import numpy as np
import pytest

import hyptas.autodiff as td
from hyptas.autodiff import Tape
from hyptas.errors import ContractViolation, NonFiniteLossError, ShapeError
from hyptas.losses import Prototypes, prototype_margin
from hyptas.model import Denoiser, DenoiserConfig
from hyptas.optim import Adam, RiemannianAdam

TINY = DenoiserConfig(feature_dim=2, classes=2, embed_dim=2, encoder_channels=2)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        model = Denoiser(TINY, seed=1)
        before = model.flat.copy()
        opt = Adam(model.flat, 5e-4, model.views)
        opt.step(model.flat, np.zeros_like(model.flat))
        assert np.array_equal(model.flat, before)

    def test_first_step_moves_by_lr_sign(self):
        model = Denoiser(TINY, seed=1)
        before = model.flat.copy()
        grad = np.where(np.arange(model.flat.size) % 2 == 0, 1.0, -1.0)
        opt = Adam(model.flat, 1e-3, model.views)
        opt.step(model.flat, grad)
        step = -grad * 1e-3 / (1.0 + 1e-8)
        assert np.allclose(model.flat - before, step, rtol=1e-9, atol=0.0)

    def test_two_runs_bit_identical(self):
        def run():
            model = Denoiser(TINY, seed=3)
            opt = Adam(model.flat, 1e-2, model.views)
            for _ in range(50):
                opt.step(model.flat, np.sin(model.flat) + 0.1)
            return model.flat.tobytes()

        assert run() == run()

    def test_non_finite_gradient_aborts_with_name(self):
        model = Denoiser(TINY)
        opt = Adam(model.flat, 5e-4, model.views)
        grad = np.zeros_like(model.flat)
        model.views(grad)["dec.step2.w"][3, 1] = np.nan
        with pytest.raises(NonFiniteLossError, match=r"'dec\.step2\.w'"):
            opt.step(model.flat, grad)

    def test_non_finite_gradient_moves_no_state(self):
        """A rejected step leaves the parameters, the moments and the step
        count as they were: the next steps match a run that never saw it."""
        def run(bad_step: bool):
            model = Denoiser(TINY, seed=2)
            opt = Adam(model.flat, 1e-2, model.views)
            opt.step(model.flat, np.cos(model.flat))
            if bad_step:
                before = model.flat.copy()
                grad = np.sin(model.flat)
                grad[-1] = np.inf  # the last parameter, after every other one
                with pytest.raises(NonFiniteLossError, match="dec.head.b"):
                    opt.step(model.flat, grad)
                assert np.array_equal(model.flat, before)
            for _ in range(3):
                opt.step(model.flat, np.sin(model.flat) - 0.2)
            return model.flat.tobytes()

        assert run(bad_step=True) == run(bad_step=False)

    def test_shape_mismatch(self):
        model = Denoiser(TINY)
        opt = Adam(model.flat, 5e-4, model.views)
        with pytest.raises(ShapeError):
            opt.step(model.flat, np.zeros(model.flat.size + 1))


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
            loss = prototype_margin(leaf, margin, 1.0, 1)
            grads = tape.backward(td.total(loss))
            opt.step(protos, grads[leaf])
            distances.append(pair_distance())
        assert distances[-1] > before
        assert all(b > a - 1e-12 for a, b in zip(distances, distances[1:]))

    def test_non_finite_gradient_rejected(self):
        protos = Prototypes(np.array([[0.1, 0.0], [0.0, 0.1]]), 1.0)
        opt = RiemannianAdam(protos, 0.02)
        with pytest.raises(NonFiniteLossError):
            opt.step(protos, np.array([[np.inf, 0.0], [0.0, 0.0]]))
