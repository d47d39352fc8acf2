"""Euclidean Adam for network weights; Riemannian Adam for ball prototypes.

The Riemannian variant rescales Euclidean gradients by the inverse conformal
metric (1 - c|z|^2)^2 / 4, keeps Adam moments in the tangent space at the
current point without parallel transport between steps (the standard
practical simplification), retracts with the exponential map, and
re-projects into the open ball.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NonFiniteLossError, ShapeError
from .geometry import exp_map_rows, project_rows
from .losses import Prototypes


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.lr <= 0.0:
            raise ShapeError(f"learning rate must be > 0, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ShapeError("betas must lie in [0, 1)")


class Adam:
    """Bias-corrected Adam over a name -> array parameter dict, updated in place."""

    def __init__(self, params: dict[str, np.ndarray], config: AdamConfig = AdamConfig()):
        self.config = config
        self.step_count = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        cfg = self.config
        self.step_count += 1
        t = self.step_count
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape} ({name})")
            if not np.all(np.isfinite(g)):
                raise NonFiniteLossError(f"non-finite gradient for parameter {name!r}")
            m = self._m[name] = cfg.beta1 * self._m[name] + (1.0 - cfg.beta1) * g
            v = self._v[name] = cfg.beta2 * self._v[name] + (1.0 - cfg.beta2) * g * g
            m_hat = m / (1.0 - cfg.beta1**t)
            v_hat = v / (1.0 - cfg.beta2**t)
            params[name] = p - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


class RiemannianAdam:
    """Adam on the Poincare ball for the prototype matrix."""

    def __init__(self, prototypes: Prototypes, config: AdamConfig = AdamConfig()):
        self.config = config
        self.step_count = 0
        self._m = np.zeros_like(prototypes.points)
        self._v = np.zeros_like(prototypes.points)

    def step(self, prototypes: Prototypes, euclidean_grad: np.ndarray) -> None:
        if prototypes.frozen:
            raise ContractViolation("cannot update frozen prototypes")
        if euclidean_grad.shape != prototypes.points.shape:
            raise ShapeError(
                f"gradient shape {euclidean_grad.shape} != prototypes {prototypes.points.shape}"
            )
        if not np.all(np.isfinite(euclidean_grad)):
            raise NonFiniteLossError("non-finite prototype gradient")
        cfg = self.config
        z = prototypes.points
        c = prototypes.curvature
        scaling = (1.0 - c * np.sum(z * z, axis=1, keepdims=True)) ** 2 / 4.0
        rgrad = euclidean_grad * scaling
        self.step_count += 1
        t = self.step_count
        self._m = cfg.beta1 * self._m + (1.0 - cfg.beta1) * rgrad
        self._v = cfg.beta2 * self._v + (1.0 - cfg.beta2) * rgrad * rgrad
        m_hat = self._m / (1.0 - cfg.beta1**t)
        v_hat = self._v / (1.0 - cfg.beta2**t)
        update = -cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
        prototypes.points = project_rows(exp_map_rows(z, update, c), c)
