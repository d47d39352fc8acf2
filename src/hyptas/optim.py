"""Euclidean Adam for network weights; Riemannian Adam for ball prototypes.

Both take the same Adam step, `_adam_update`. The Riemannian variant first
rescales Euclidean gradients by the inverse conformal metric
(1 - c|z|^2)^2 / 4, keeps Adam moments in the tangent space at the current
point without parallel transport between steps (the standard practical
simplification), then retracts with the exponential map and re-projects into
the open ball (Becigneul & Ganea, ICLR 2019), through the numpy kernels of
`ballops`.
"""

from __future__ import annotations

import numpy as np

from .ballops import exp_map_rows, project_rows
from .errors import ContractViolation, NonFiniteLossError, ShapeError
from .losses import Prototypes

# Adam's moment decay rates and denominator guard (Kingma & Ba, 2015), the
# same for both optimizers; only the learning rate is configured.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def _adam_update(m: np.ndarray, v: np.ndarray, g: np.ndarray, t: int, lr: float) -> np.ndarray:
    """Advance the moments m and v in place with gradient g at step t; return
    the step -lr * m_hat / (sqrt(v_hat) + EPS) from their bias-corrected forms."""
    m[...] = BETA1 * m + (1.0 - BETA1) * g
    v[...] = BETA2 * v + (1.0 - BETA2) * g * g
    return -lr * (m / (1.0 - BETA1**t)) / (np.sqrt(v / (1.0 - BETA2**t)) + EPS)


class Adam:
    """Bias-corrected Adam over a flat parameter buffer, updated in place;
    `views` (`Denoiser.views`) names the parameter of a non-finite gradient."""

    def __init__(self, params: np.ndarray, lr: float, views):
        self.lr = lr
        self.step_count = 0
        self.views = views
        self._m = np.zeros_like(params)
        self._v = np.zeros_like(params)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        if grad.shape != params.shape:
            raise ShapeError(f"gradient shape {grad.shape} != parameter shape {params.shape}")
        if not np.all(np.isfinite(grad)):
            name = next(k for k, g in self.views(grad).items() if not np.all(np.isfinite(g)))
            raise NonFiniteLossError(f"non-finite gradient for parameter {name!r}")
        self.step_count += 1
        params += _adam_update(self._m, self._v, grad, self.step_count, self.lr)


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
        scaling = (1.0 - c * np.add.reduce(z * z, axis=1, keepdims=True)) ** 2 / 4.0
        self.step_count += 1
        update = _adam_update(self._m, self._v, euclidean_grad * scaling, self.step_count, self.lr)
        prototypes.points = project_rows(exp_map_rows(z, update, c), c)
