"""Poincare-ball geometry: Mobius arithmetic, exp/log maps, geodesic
distance, entailment-cone angles, and safe projection into the open ball.

Every kernel works row-wise on (N, d) float64 arrays in double precision.
The ball of curvature magnitude c has Euclidean radius 1/sqrt(c);
boundary-adjacent quantities are clamped (BALL_EPS on norms, DENOM_EPS on
denominators, inverse-trig arguments to their closed domains) so no
operation can leave the open ball or divide by zero. `ballops` builds the
differentiable versions of the loss kernels on the tape.
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


def exp_map_origin_rows(v: np.ndarray, c: float) -> np.ndarray:
    """exp at the origin: tanh(sqrt(c)|v|) v / (sqrt(c)|v|), projected inside."""
    sqrt_c = math.sqrt(c)
    vnorm = np.linalg.norm(v, axis=-1, keepdims=True)
    safe = np.maximum(vnorm, DENOM_EPS)
    radial = np.minimum(np.tanh(sqrt_c * vnorm), 1.0 - BALL_EPS)
    return (radial / (sqrt_c * safe)) * v


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


def distance_rows(x: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Geodesic distance per row: (2/sqrt(c)) artanh(sqrt(c) |(-x) (+) y|)."""
    sqrt_c = math.sqrt(c)
    w = mobius_add_rows(-x, y, c)
    arg = np.minimum(sqrt_c * np.linalg.norm(w, axis=-1), ARTANH_ARG_MAX)
    return (2.0 / sqrt_c) * np.arctanh(arg)


def origin_distance_rows(x: np.ndarray, c: float) -> np.ndarray:
    sqrt_c = math.sqrt(c)
    arg = np.minimum(sqrt_c * np.linalg.norm(x, axis=-1), ARTANH_ARG_MAX)
    return (2.0 / sqrt_c) * np.arctanh(arg)


def exterior_angle_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Angle at each row of x between the radially-outward cone axis and the
    direction of the matching row of y.

    Uses the nonsingular entailment-cone form
        cos(theta) = (<x,y>(1+|x|^2) - |x|^2 (1+|y|^2))
                     / (|x| |x-y| sqrt(1 + |x|^2 |y|^2 - 2<x,y>))
    which is exactly 0 for y radially outward of x. Degenerate rows
    (|x| <= BALL_EPS or |x-y| <= BALL_EPS) return 0 by convention.
    """
    xx = np.sum(x * x, axis=-1)
    yy = np.sum(y * y, axis=-1)
    xy = np.sum(x * y, axis=-1)
    nx = np.sqrt(xx)
    nxy = np.linalg.norm(x - y, axis=-1)
    num = xy * (1.0 + xx) - xx * (1.0 + yy)
    inner = np.maximum(1.0 + xx * yy - 2.0 * xy, DENOM_EPS)
    den = np.maximum(nx * nxy * np.sqrt(inner), DENOM_EPS)
    cos_theta = np.clip(num / den, -1.0, 1.0)
    # arccos amplifies rounding near +/-1 to ~1e-8; radially outward pairs must
    # come out exactly 0, so cosines within 1e-12 of the ends snap to them.
    cos_theta = np.where(cos_theta >= 1.0 - 1e-12, 1.0, cos_theta)
    cos_theta = np.where(cos_theta <= -1.0 + 1e-12, -1.0, cos_theta)
    theta = np.arccos(cos_theta)
    degenerate = (nx <= BALL_EPS) | (nxy <= BALL_EPS)
    return np.where(degenerate, 0.0, theta)


def aperture_rows(x: np.ndarray, K: float) -> np.ndarray:
    """Half-angle of the entailment cone at each row: arcsin(K (1 - |x|^2) / |x|).

    The arcsin argument is clamped to [-1, 1]; at the origin (|x| <= BALL_EPS)
    or whenever the argument exceeds 1 the cone opens fully to pi/2.
    """
    nx = np.linalg.norm(x, axis=-1)
    arg = K * (1.0 - nx * nx) / np.maximum(nx, BALL_EPS)
    return np.arcsin(np.clip(arg, -1.0, 1.0))
