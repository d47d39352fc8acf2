"""Euclidean Adam for network weights; Riemannian Adam for ball prototypes.

The Riemannian variant rescales Euclidean gradients by the inverse conformal
metric (1 - c|z|^2)^2 / 4, keeps Adam moments in the tangent space at the
current point without parallel transport between steps (the standard
practical simplification), retracts with the exponential map, and
re-projects into the open ball.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, NonFiniteLossError, ShapeError
from .geometry import exp_map_rows, project_rows
from .losses import Prototypes

# Adam's moment decay rates and denominator guard (Kingma & Ba, 2015), the
# same for both optimizers; only the learning rate is configured.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def _moments(m: np.ndarray, v: np.ndarray, g: np.ndarray, t: int):
    """The moments updated with gradient g at step t, and their bias-corrected
    forms: (m, v, m_hat, v_hat)."""
    m = BETA1 * m + (1.0 - BETA1) * g
    v = BETA2 * v + (1.0 - BETA2) * g * g
    return m, v, m / (1.0 - BETA1**t), v / (1.0 - BETA2**t)


class Adam:
    """Bias-corrected Adam over a name -> array parameter dict, updated in place."""

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr = lr
        self.step_count = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        t = self.step_count
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape} ({name})")
            if not np.all(np.isfinite(g)):
                raise NonFiniteLossError(f"non-finite gradient for parameter {name!r}")
            self._m[name], self._v[name], m_hat, v_hat = _moments(
                self._m[name], self._v[name], g, t
            )
            params[name] = p - self.lr * m_hat / (np.sqrt(v_hat) + EPS)


class RiemannianAdam:
    """Adam on the Poincare ball for the prototype matrix."""

    def __init__(self, prototypes: Prototypes, lr: float):
        self.lr = lr
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
        z = prototypes.points
        c = prototypes.curvature
        scaling = (1.0 - c * np.sum(z * z, axis=1, keepdims=True)) ** 2 / 4.0
        rgrad = euclidean_grad * scaling
        self.step_count += 1
        self._m, self._v, m_hat, v_hat = _moments(self._m, self._v, rgrad, self.step_count)
        update = -self.lr * m_hat / (np.sqrt(v_hat) + EPS)
        prototypes.points = project_rows(exp_map_rows(z, update, c), c)
