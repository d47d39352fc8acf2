import numpy as np
import pytest

from hyptas.autodiff import Tape
from hyptas.errors import ContractViolation, NonFiniteLossError, ShapeError
from hyptas.losses import Prototypes, prototype_margin
from hyptas.optim import Adam, RiemannianAdam


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0])}
        opt = Adam(params, 5e-4)
        opt.step(params, {"w": np.zeros(2)})
        assert np.array_equal(params["w"], [1.0, -2.0])

    def test_first_step_moves_by_lr_sign(self):
        params = {"w": np.array([0.0])}
        opt = Adam(params, 1e-3)
        opt.step(params, {"w": np.array([1.0])})
        assert params["w"][0] == pytest.approx(-1e-3 / (1.0 + 1e-8), rel=1e-9)

    def test_two_runs_bit_identical(self):
        def run():
            rng = np.random.default_rng(3)
            params = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=(1, 3))}
            opt = Adam(params, 1e-2)
            for _ in range(50):
                grads = {k: np.sin(v) + 0.1 for k, v in params.items()}
                opt.step(params, grads)
            return {k: v.tobytes() for k, v in params.items()}

        assert run() == run()

    def test_non_finite_gradient_aborts_with_name(self):
        params = {"layer.w": np.zeros(2)}
        opt = Adam(params, 5e-4)
        with pytest.raises(NonFiniteLossError, match="layer.w"):
            opt.step(params, {"layer.w": np.array([np.nan, 0.0])})

    def test_shape_mismatch(self):
        params = {"w": np.zeros(2)}
        opt = Adam(params, 5e-4)
        with pytest.raises(ShapeError):
            opt.step(params, {"w": np.zeros(3)})


class TestRiemannianAdam:
    def test_zero_gradient_keeps_prototype(self):
        protos = Prototypes(np.array([[0.2, 0.0], [0.0, 0.3]]), 1.0)
        opt = RiemannianAdam(protos, 0.02)
        before = protos.points.copy()
        opt.step(protos, np.zeros((2, 2)))
        assert np.array_equal(protos.points, before)

    def test_origin_rescale_is_quarter(self):
        # at the origin the inverse conformal metric is (1-0)^2/4
        protos = Prototypes(np.zeros((2, 3)) + [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], 1.0)
        g = np.array([[4.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        scaling = (1.0 - 1.0 * np.sum(protos.points**2, axis=1, keepdims=True)) ** 2 / 4.0
        assert np.allclose(g * scaling, g / 4.0)

    def test_manifold_closure_many_steps(self):
        rng = np.random.default_rng(5)
        for c in (0.5, 1.0, 2.0):
            protos = Prototypes(0.05 * rng.normal(size=(4, 3)), c)
            opt = RiemannianAdam(protos, 0.1)
            for _ in range(500):
                opt.step(protos, rng.normal(size=(4, 3)))
                assert np.all(c * np.sum(protos.points**2, axis=1) < 1.0)

    def test_frozen_prototypes_rejected(self):
        protos = Prototypes(np.array([[0.1, 0.0], [0.0, 0.1]]), 1.0)
        protos.freeze()
        opt = RiemannianAdam(protos, 0.02)
        with pytest.raises(ContractViolation):
            opt.step(protos, np.zeros((2, 2)))

    def test_margin_descent_separates_near_coincident_prototypes(self):
        # Exactly coincident prototypes sit on the distance kink where the
        # gradient vanishes by symmetry; init guarantees pairwise-distinct
        # points, so the test starts from a tight but distinct pair.
        protos = Prototypes(np.array([[0.05, 0.0], [0.05 + 1e-3, 1e-3]]), 1.0)
        opt = RiemannianAdam(protos, 5e-3)
        margin = 2.0

        def pair_distance():
            return protos.min_pairwise_distance()

        before = pair_distance()
        distances = [before]
        for _ in range(100):
            tape = Tape()
            leaf = tape.leaf(protos.points)
            loss = prototype_margin(leaf, margin, 1.0)
            grads = tape.backward(loss)
            opt.step(protos, grads[leaf])
            distances.append(pair_distance())
        assert distances[-1] > before
        assert all(b > a - 1e-12 for a, b in zip(distances, distances[1:]))

    def test_non_finite_gradient_rejected(self):
        protos = Prototypes(np.array([[0.1, 0.0], [0.0, 0.1]]), 1.0)
        opt = RiemannianAdam(protos, 0.02)
        with pytest.raises(NonFiniteLossError):
            opt.step(protos, np.array([[np.inf, 0.0], [0.0, 0.0]]))
