"""Noise schedule, forward label-signal corruption, and the deterministic
skip-step reverse sampler.

The schedule table gamma(t), t = 0..T, is the cumulative signal-retention
fraction: x_t = sqrt(gamma(t)) x_0 + sqrt(1 - gamma(t)) eps. The sampler
walks a strictly decreasing subsequence of timesteps down to 0; every
update is deterministic, so the whole reverse pass is a pure function of
(starting noise, weights, condition features).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ScheduleError, ShapeError

GAMMA_MAX = 0.9999
GAMMA_MIN = 1e-4
_COSINE_OFFSET = 0.008


@dataclass(frozen=True)
class NoiseSchedule:
    """Signal-retention table gamma(0..T), strictly decreasing inside (0, 1)."""

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=np.float64)
        g.flags.writeable = False
        object.__setattr__(self, "gamma", g)
        if g.ndim != 1 or g.shape[0] < 2:
            raise ScheduleError("schedule needs at least entries for t = 0 and t = 1")
        if not np.all(np.isfinite(g)):
            raise ScheduleError("non-finite schedule entries")
        if np.any(g[1:] >= g[:-1]):
            raise ScheduleError("gamma must be strictly decreasing in t")
        if g[0] >= 1.0 or g[-1] <= 0.0:
            raise ScheduleError("gamma must stay inside (0, 1)")

    @property
    def T(self) -> int:
        return self.gamma.shape[0] - 1


def make_schedule(T: int) -> NoiseSchedule:
    """Cosine cumulative schedule clamped to [GAMMA_MIN, GAMMA_MAX].

    gamma(t) = cos^2(((t/T + s)/(1 + s)) * pi/2) / cos^2((s/(1 + s)) * pi/2),
    s = 0.008; after clamping, strict decrease is restored with 1e-12 steps
    (drift <= 1e-9 over T = 1000, well under every tolerance downstream).
    """
    if T < 1:
        raise ScheduleError(f"T must be >= 1, got {T}")
    t = np.arange(T + 1, dtype=np.float64)
    f = np.cos(((t / T + _COSINE_OFFSET) / (1.0 + _COSINE_OFFSET)) * math.pi / 2.0) ** 2
    gamma = np.clip(f / f[0], GAMMA_MIN, GAMMA_MAX)
    for i in range(1, T + 1):
        gamma[i] = min(gamma[i], gamma[i - 1] - 1e-12)
    return NoiseSchedule(gamma)


def label_encode(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Per-frame labels -> signed (L, C) signal: +1 at the label, -1 elsewhere."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ShapeError(f"labels must be a nonempty 1-D sequence, got shape {labels.shape}")
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ShapeError(f"labels out of range [0, {num_classes})")
    signal = np.full((labels.shape[0], num_classes), -1.0, dtype=np.float64)
    signal[np.arange(labels.shape[0]), labels] = 1.0
    return signal


def label_decode(signal: np.ndarray) -> np.ndarray:
    """Row-wise argmax back to integer labels."""
    signal = np.asarray(signal)
    if signal.ndim != 2 or signal.size == 0:
        raise ShapeError(f"signal must be a nonempty (L, C) matrix, got shape {signal.shape}")
    return np.argmax(signal, axis=1)


def corrupt_with_gamma(x0: np.ndarray, gamma: float, noise: np.ndarray) -> np.ndarray:
    """sqrt(gamma) x0 + sqrt(1 - gamma) noise."""
    if x0.shape != noise.shape:
        raise ShapeError(f"signal {x0.shape} and noise {noise.shape} disagree")
    return math.sqrt(gamma) * x0 + math.sqrt(1.0 - gamma) * noise


def forward_corrupt(
    x0: np.ndarray, t: int, schedule: NoiseSchedule, noise: np.ndarray
) -> np.ndarray:
    if not 1 <= t <= schedule.T:
        raise ScheduleError(f"t = {t} outside [1, {schedule.T}]")
    return corrupt_with_gamma(x0, float(schedule.gamma[t]), noise)


def ddim_step(
    y_t: np.ndarray,
    p_t: np.ndarray,
    t: int,
    t_prev: int,
    schedule: NoiseSchedule,
) -> np.ndarray:
    """One deterministic reverse update from timestep t to t_prev given the
    clean-signal prediction p_t.

    y_{t_prev} = sqrt(g') p_t + sqrt(1 - g')/sqrt(1 - g) (y_t - sqrt(g) p_t),
    g = gamma(t), g' = gamma(t_prev).
    """
    if not 0 <= t_prev < t <= schedule.T:
        raise ScheduleError(f"need 0 <= t_prev < t <= T, got t_prev={t_prev}, t={t}")
    if y_t.shape != p_t.shape:
        raise ShapeError(f"state {y_t.shape} and prediction {p_t.shape} disagree")
    g = float(schedule.gamma[t])
    g_prev = float(schedule.gamma[t_prev])
    residual = (y_t - math.sqrt(g) * p_t) * (math.sqrt(1.0 - g_prev) / math.sqrt(1.0 - g))
    return math.sqrt(g_prev) * p_t + residual


def sample_timesteps(T: int, steps: int) -> list[int]:
    """Evenly spaced integer timesteps floor(T*k/steps), k = steps..1, deduplicated."""
    if steps < 1:
        raise ScheduleError(f"steps must be >= 1, got {steps}")
    if steps > T:
        raise ScheduleError(f"steps = {steps} exceeds T = {T}")
    seen = []
    for k in range(steps, 0, -1):
        t = (T * k) // steps
        if t >= 1 and (not seen or t < seen[-1]):
            seen.append(t)
    return seen


def sample(
    denoiser: Callable[[np.ndarray, int], np.ndarray],
    steps: int,
    schedule: NoiseSchedule,
    noise: np.ndarray,
) -> np.ndarray:
    """Run the reverse pass from the starting noise (L, C); returns (L, C) class probabilities.

    `denoiser(y_t, t)` must return per-frame probabilities (rows sum to 1);
    these are re-encoded as 2P - 1 before the next update. Every update is
    elementwise, so rows stacked from several videos step exactly as they
    would alone. The final hop targets timestep 0, where the signal is clean
    by definition, so it returns the prediction itself: with a perfect
    predictor the clean signal is reconstructed exactly, for any number of
    steps.
    """
    y = np.asarray(noise, dtype=np.float64)
    if y.ndim != 2 or y.size == 0:
        raise ShapeError(f"starting noise must be a nonempty (L, C) matrix, got shape {y.shape}")
    trajectory = sample_timesteps(schedule.T, steps)
    probs = None
    for i, t in enumerate(trajectory):
        probs = denoiser(y, t)
        if probs.shape != y.shape:
            raise ShapeError(f"denoiser returned {probs.shape}, expected {y.shape}")
        p_t = 2.0 * probs - 1.0
        if i + 1 < len(trajectory):
            y = ddim_step(y, p_t, t, trajectory[i + 1], schedule)
        # else: the remaining hop targets t = 0, where the update collapses to
        # the prediction itself; p_t is the reconstructed clean signal.
    return probs
