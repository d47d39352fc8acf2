"""Poincare-ball kernels of Riemannian Adam: Mobius addition, the exp and
log maps at any base point, and safe projection into the open ball.

Every kernel works row-wise on (N, d) float64 arrays in double precision.
The ball of curvature magnitude c has Euclidean radius 1/sqrt(c);
boundary-adjacent quantities are clamped (BALL_EPS on norms, DENOM_EPS on
denominators, the artanh argument below 1) so no operation can leave the
open ball or divide by zero. `optim` retracts with `exp_map_rows`, and
`hyptas check` certifies its round trip with `log_map_rows`. Every formula
the losses use lives once in `ballops`, as a fused tape op that shares
these constants; its Mobius addition is inlined in `ballops.distance_rows`,
so until the two forms are merged `mobius_add_rows` here is the retraction's.
"""

from __future__ import annotations

import math

import numpy as np

BALL_EPS = 1e-5        # norm clearance kept from the ball boundary
DENOM_EPS = 1e-15      # floor for denominators
ARTANH_ARG_MAX = 1.0 - 1e-12


def mobius_add_rows(x: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Gyrovector addition x (+) y applied row-wise.

    ((1 + 2c<x,y> + c|y|^2) x + (1 - c|x|^2) y) / (1 + 2c<x,y> + c^2 |x|^2 |y|^2)
    """
    xx = np.sum(x * x, axis=-1, keepdims=True)
    yy = np.sum(y * y, axis=-1, keepdims=True)
    xy = np.sum(x * y, axis=-1, keepdims=True)
    num = (1.0 + 2.0 * c * xy + c * yy) * x + (1.0 - c * xx) * y
    den = 1.0 + 2.0 * c * xy + c * c * xx * yy
    return num / np.maximum(den, DENOM_EPS)


def project_rows(x: np.ndarray, c: float) -> np.ndarray:
    """Rescale any row with c*|row|^2 >= (1 - BALL_EPS)^2 to norm (1-BALL_EPS)/sqrt(c)."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    limit = (1.0 - BALL_EPS) / math.sqrt(c)
    scale = np.where(norms >= limit, limit / np.maximum(norms, DENOM_EPS), 1.0)
    return x * scale


def exp_map_rows(x: np.ndarray, v: np.ndarray, c: float) -> np.ndarray:
    """Exponential map at each row of x applied to the matching row of v."""
    sqrt_c = math.sqrt(c)
    xx = np.sum(x * x, axis=-1, keepdims=True)
    lam = 2.0 / np.maximum(1.0 - c * xx, DENOM_EPS)
    vnorm = np.linalg.norm(v, axis=-1, keepdims=True)
    safe = np.maximum(vnorm, DENOM_EPS)
    gain = np.tanh(sqrt_c * lam * vnorm / 2.0) / (sqrt_c * safe)
    second = np.where(vnorm > 0.0, gain * v, np.zeros_like(v))
    return project_rows(mobius_add_rows(x, second, c), c)


def log_map_rows(x: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Logarithmic map at each row of x toward the matching row of y."""
    sqrt_c = math.sqrt(c)
    w = mobius_add_rows(-x, y, c)
    wnorm = np.linalg.norm(w, axis=-1, keepdims=True)
    xx = np.sum(x * x, axis=-1, keepdims=True)
    lam = 2.0 / np.maximum(1.0 - c * xx, DENOM_EPS)
    arg = np.minimum(sqrt_c * wnorm, ARTANH_ARG_MAX)
    gain = (2.0 / (sqrt_c * lam)) * np.arctanh(arg) / np.maximum(wnorm, DENOM_EPS)
    return np.where(wnorm > 0.0, gain * w, np.zeros_like(w))
