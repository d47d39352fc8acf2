import math

import numpy as np
import pytest

from hyptas.diffusion import (
    GAMMA_MAX,
    GAMMA_MIN,
    NoiseSchedule,
    corrupt_with_gamma,
    ddim_step,
    forward_corrupt,
    label_decode,
    label_encode,
    make_schedule,
    sample,
    sample_timesteps,
)
from hyptas.errors import ScheduleError, ShapeError


def noise(shape, seed):
    """The sampler's starting noise for one seed."""
    return np.random.default_rng(seed).standard_normal(shape)


class TestSchedule:
    def test_endpoints_t1000(self):
        s = make_schedule(1000)
        assert s.gamma[0] == pytest.approx(GAMMA_MAX, abs=1e-10)
        assert s.gamma[1] >= 0.999 * s.gamma[0]
        assert s.gamma[1000] < 0.01

    def test_strictly_decreasing(self):
        for T in (1, 2, 10, 1000):
            g = make_schedule(T).gamma
            assert np.all(np.diff(g) < 0)

    def test_t1_boundary(self):
        s = make_schedule(1)
        assert s.gamma.shape == (2,)
        assert s.gamma[0] == pytest.approx(GAMMA_MAX, abs=1e-10)
        assert s.gamma[1] == pytest.approx(GAMMA_MIN, abs=1e-10)

    def test_t0_rejected(self):
        with pytest.raises(ScheduleError):
            make_schedule(0)

    def test_validation_rejects_nondecreasing(self):
        with pytest.raises(ScheduleError):
            NoiseSchedule(np.array([0.5, 0.5, 0.1]))
        with pytest.raises(ScheduleError):
            NoiseSchedule(np.array([1.0, 0.5]))


class TestLabelCodec:
    def test_single_frame_encoding(self):
        assert np.array_equal(label_encode(np.array([0]), 2), [[1.0, -1.0]])

    def test_roundtrip_random(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            labels = rng.integers(0, 7, size=rng.integers(1, 40))
            assert np.array_equal(label_decode(label_encode(labels, 7)), labels)

    def test_decode_is_rowwise_argmax(self):
        rng = np.random.default_rng(3)
        noisy = rng.normal(size=(30, 5))
        expect = np.array([int(max(range(5), key=lambda c: noisy[i, c])) for i in range(30)])
        assert np.array_equal(label_decode(noisy), expect)

    def test_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            label_encode(np.array([3]), 3)
        with pytest.raises(ShapeError):
            label_encode(np.array([-1]), 3)


class TestForwardCorrupt:
    def test_gamma_one_returns_signal(self):
        x0 = np.array([[2.0, -2.0]])
        eps = np.array([[1.0, 1.0]])
        assert np.array_equal(corrupt_with_gamma(x0, 1.0, eps), x0)

    def test_gamma_zero_returns_noise(self):
        x0 = np.array([[2.0, -2.0]])
        eps = np.array([[1.0, -0.5]])
        assert np.array_equal(corrupt_with_gamma(x0, 0.0, eps), eps)

    def test_quarter_gamma_arithmetic(self):
        out = corrupt_with_gamma(np.array([[2.0]]), 0.25, np.array([[1.0]]))
        assert out[0, 0] == pytest.approx(0.5 * 2.0 + math.sqrt(0.75), abs=1e-12)
        assert out[0, 0] == pytest.approx(1.8660, abs=1e-4)

    def test_step_range_checked(self):
        s = make_schedule(10)
        x = np.zeros((2, 2))
        with pytest.raises(ScheduleError):
            forward_corrupt(x, 0, s, x)
        with pytest.raises(ScheduleError):
            forward_corrupt(x, 11, s, x)
        forward_corrupt(x, 10, s, np.zeros((2, 2)))


class TestDdimStep:
    def test_near_clean_target_collapses_to_prediction(self):
        # gamma(t_prev) at the top clamp: the residual keeps at most a
        # sqrt(1 - GAMMA_MAX) = 1% share.
        s = make_schedule(1000)
        rng = np.random.default_rng(7)
        y = rng.normal(size=(6, 4))
        p = rng.normal(size=(6, 4))
        out = ddim_step(y, p, 1000, 0, s)
        resid = y - math.sqrt(s.gamma[1000]) * p
        bound = math.sqrt(1.0 - s.gamma[0]) / math.sqrt(1.0 - s.gamma[1000]) * np.abs(resid)
        assert np.all(np.abs(out - p) <= np.abs((math.sqrt(s.gamma[0]) - 1.0) * p) + bound + 1e-12)
        assert np.max(np.abs(out - p)) < 0.05

    def test_deterministic_when_sigma_zero(self):
        s = make_schedule(100)
        rng = np.random.default_rng(9)
        y, p = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        a = ddim_step(y, p, 80, 40, s)
        b = ddim_step(y, p, 80, 40, s)
        assert np.array_equal(a, b)

    def test_step_ordering_enforced(self):
        s = make_schedule(100)
        y = np.zeros((2, 2))
        with pytest.raises(ScheduleError):
            ddim_step(y, y, 40, 80, s)
        with pytest.raises(ScheduleError):
            ddim_step(y, y, 40, 40, s)


class TestTrajectory:
    def test_even_spacing_25_of_1000(self):
        ts = sample_timesteps(1000, 25)
        assert ts[0] == 1000 and ts[-1] == 40 and len(ts) == 25
        assert all(a - b == 40 for a, b in zip(ts, ts[1:]))

    def test_strictly_decreasing_always(self):
        for T, steps in [(1000, 25), (10, 7), (3, 2), (1000, 1), (17, 17)]:
            ts = sample_timesteps(T, steps)
            assert all(a > b for a, b in zip(ts, ts[1:]))
            assert ts[0] == T and ts[-1] >= 1

    def test_steps_bounds(self):
        with pytest.raises(ScheduleError):
            sample_timesteps(10, 0)
        with pytest.raises(ScheduleError):
            sample_timesteps(10, 11)


class TestSampler:
    def _oracle(self, labels, C):
        target = (label_encode(labels, C) + 1.0) / 2.0  # one-hot probabilities

        def denoiser(y_t, t):
            return target.copy()

        return denoiser

    def test_single_step_is_one_denoiser_call(self):
        calls = []

        def denoiser(y_t, t):
            calls.append(t)
            e = np.exp(y_t - y_t.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        s = make_schedule(100)
        probs = sample(denoiser, 1, s, noise((12, 4), 0))
        assert calls == [100]
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_same_seed_identical(self):
        def denoiser(y_t, t):
            e = np.exp(y_t - y_t.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        s = make_schedule(50)
        a = sample(denoiser, 8, s, noise((9, 3), 123))
        b = sample(denoiser, 8, s, noise((9, 3), 123))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("steps", [1, 8, 25])
    def test_oracle_predictor_recovers_labels(self, steps):
        rng = np.random.default_rng(31)
        labels = rng.integers(0, 5, size=40)
        s = make_schedule(1000)
        probs = sample(self._oracle(labels, 5), steps, s, noise((40, 5), 7))
        assert np.array_equal(label_decode(probs), labels)

    @pytest.mark.parametrize("steps", [1, 8, 25])
    def test_oracle_predictor_reconstructs_signal(self, steps):
        rng = np.random.default_rng(33)
        labels = rng.integers(0, 6, size=25)
        clean = label_encode(labels, 6)
        s = make_schedule(1000)
        probs = sample(self._oracle(labels, 6), steps, s, noise((25, 6), 11))
        reconstructed = 2.0 * probs - 1.0
        assert np.max(np.abs(reconstructed - clean)) < 1e-6

    def test_denoiser_shape_mismatch_rejected(self):
        s = make_schedule(10)
        with pytest.raises(ShapeError):
            sample(lambda y, t: np.ones((2, 2)), 2, s, noise((3, 3), 0))

    @pytest.mark.parametrize("shape", [(0, 3), (4,), (2, 2, 2)])
    def test_starting_noise_must_be_a_nonempty_matrix(self, shape):
        with pytest.raises(ShapeError, match="starting noise"):
            sample(lambda y, t: y, 2, make_schedule(10), np.zeros(shape))
