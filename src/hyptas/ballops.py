"""Every Poincare-ball formula of the package, each with one implementation.

The formulas the losses use (geodesic distance, distance to the origin,
the exp map at the origin, the entailment-cone exterior angle and the cone
aperture) are each one fused tape op. Its forward computes in numpy the
expressions, in the order, of the tape-primitive composition it replaces,
and its gradient rule replays the gradient arithmetic that `Tape.backward`
would run over that composition, node by node in reverse creation order,
with one `_accumulate` per contribution to each input (dropped there for
an input that needs no gradient). So values and gradients keep the composed
form's bits, clamps included. The composed forms live in
`tests/ball_oracles.py` as forward and gradient oracles. Inference, the
prototype log value and the `hyptas check` suites run the same ops forward
through `evaluate` on constants, which the tape does not record. The two
cone ops are the unit ball's formulas; `losses.temporal_entailment` scales
its rows onto that ball.

The last section holds Riemannian Adam's retraction in numpy: Mobius
addition (until merged with the tape form inlined in `distance_rows`), the
exp and log maps at any base point, and projection into the open ball.

The ops run on every training step over rows of about 100 x 16, so they
call numpy's ufuncs without the Python wrappers around them: row sums are
`np.add.reduce` (`_rows_dot`), row norms the sqrt of a row dot, which is
the route `np.linalg.norm` takes for real rows (`_norms`), and clamps the
`np.maximum` and `np.minimum` of `autodiff._clamp`. Each runs the loop the
wrapper would, in the same order, so it keeps the bits.

Rows are (N, d) float64; the ball of curvature c has radius 1/sqrt(c).
Clamping follows one policy: norms floored (BALL_EPS off the boundary,
DENOM_EPS under denominators), artanh arguments kept below 1, inverse-trig
arguments clipped to their closed domains.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tape, Tensor, _accumulate, _clamp, _same_tape
from .errors import ShapeError

BALL_EPS = 1e-5        # norm clearance kept from the ball boundary
DENOM_EPS = 1e-15      # floor for denominators
ARTANH_ARG_MAX = 1.0 - 1e-12


def evaluate(op, *args) -> np.ndarray:
    """`op(*args)` forward on a tape of constants, which records nothing:
    numpy rows in, numpy out. Scalars (curvature, cone_k) pass as is.
    """
    tape = Tape()
    return op(*(tape.const(a) if isinstance(a, np.ndarray) else a for a in args)).value


# numpy forms of the primitives' forward and backward steps, named after the
# `autodiff` op each one stands for.

def _rows_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.add.reduce(a * b, axis=1, keepdims=True)


def _norms(a: np.ndarray) -> np.ndarray:
    """Row norms, by the route np.linalg.norm takes for real rows."""
    return np.sqrt(_rows_dot(a, a))


def _row_norm(a: np.ndarray, floor: float = DENOM_EPS):
    """Floored row norms and the rows above the floor, which alone pass a gradient."""
    raw = _norms(a)
    return np.maximum(raw, floor), raw > floor


def _row_norm_grad(g: np.ndarray, a: np.ndarray, norm: np.ndarray, active: np.ndarray):
    return np.divide(g * a, norm, out=np.zeros(a.shape), where=active)


def _artanh_distance(norm: np.ndarray, sqrt_c: float):
    """2/sqrt(c) artanh(sqrt(c) norm), the argument capped below 1, and the rule
    that takes the gradient of that value to the gradient of `norm`."""
    arg, kept = _clamp(norm * sqrt_c, hi=ARTANH_ARG_MAX)

    def norm_grad(g):
        return g * (2.0 / sqrt_c) / (1.0 - arg * arg) * kept * sqrt_c

    return np.arctanh(arg) * (2.0 / sqrt_c), norm_grad


def _row_pair(x: Tensor, y: Tensor) -> Tape:
    if x.value.shape != y.value.shape or x.value.ndim != 2:
        raise ShapeError(f"need matching (N, d) rows, got {x.value.shape}, {y.value.shape}")
    return _same_tape(x, y)


def distance_rows(x: Tensor, y: Tensor, c: float) -> Tensor:
    """Row-wise geodesic distance 2/sqrt(c) artanh(sqrt(c) |(-x) (+) y|) -> (N, 1).

    Exactly 0 for equal rows (the norm of the Mobius sum has floor 0), with
    zero gradient there. The Mobius sum is
        ((1 + 2c<u,y> + c|y|^2) u + (1 - c|u|^2) y) / (1 + 2c<u,y> + c^2 |u|^2 |y|^2)
    for u = -x, its denominator floored at DENOM_EPS.
    """
    tape = _row_pair(x, y)
    yv, u = y.value, -x.value
    uu, yy, uy = _rows_dot(u, u), _rows_dot(yv, yv), _rows_dot(u, yv)
    coef_u = (uy * (2.0 * c) + yy * c) + 1.0
    coef_y = uu * -c + 1.0
    num = u * coef_u + yv * coef_y
    uu_cc = uu * (c * c)
    den, den_kept = _clamp((uy * (2.0 * c) + uu_cc * yy) + 1.0, lo=DENOM_EPS)
    w = num / den
    w_norm, w_active = _row_norm(w, floor=0.0)
    out, norm_grad = _artanh_distance(w_norm, math.sqrt(c))

    def push(g):
        g_w = _row_norm_grad(norm_grad(g), w, w_norm, w_active)
        g_num = g_w / den
        g_den = np.add.reduce(-g_w * w / den, axis=1, keepdims=True) * den_kept
        # den = 1 + 2c<u,y> + (c^2 |u|^2) |y|^2
        g_uu = g_den * yy * (c * c)
        g_yy = g_den * uu_cc
        g_uy = g_den * (2.0 * c)
        # num = coef_u u + coef_y y
        _accumulate(y, g_num * coef_y)
        g_coef_y = np.add.reduce(g_num * yv, axis=1, keepdims=True)
        g_u = g_num * coef_u
        g_coef_u = np.add.reduce(g_num * u, axis=1, keepdims=True)
        g_uu = g_uu + g_coef_y * -c
        g_yy = g_yy + g_coef_u * c
        g_uy = g_uy + g_coef_u * (2.0 * c)
        # the three inner products, then u = -x
        g_u = g_u + g_uy * yv
        _accumulate(y, g_uy * u)
        _accumulate(y, g_yy * yv)
        _accumulate(y, g_yy * yv)
        g_u = g_u + g_uu * u
        g_u = g_u + g_uu * u
        _accumulate(x, -g_u)

    return tape._register(out, (x, y), push)


def origin_distance_rows(x: Tensor, c: float) -> Tensor:
    """Row-wise distance to the origin 2/sqrt(c) artanh(sqrt(c) |x|) -> (N, 1)."""
    xv = x.value
    norm, active = _row_norm(xv)
    out, norm_grad = _artanh_distance(norm, math.sqrt(c))

    def push(g):
        _accumulate(x, _row_norm_grad(norm_grad(g), xv, norm, active))

    return x.tape._register(out, (x,), push)


def exp_map_origin_rows(v: Tensor, c: float) -> Tensor:
    """Project rows of a Euclidean (N, d) tensor into the ball via exp at the origin.

    The radial tanh gain is capped at 1 - BALL_EPS so every output row stays
    strictly inside with the same clearance `project_rows` enforces.
    Past the cap the gain is constant, so such rows pass no gradient through
    their norm.
    """
    sqrt_c, vv = math.sqrt(c), v.value
    norm, active = _row_norm(vv)
    scaled = norm * sqrt_c
    gain = np.tanh(scaled)
    radial, kept = _clamp(gain, hi=1.0 - BALL_EPS)
    ratio = radial / scaled

    def push(g):
        _accumulate(v, g * ratio)
        g_ratio = np.add.reduce(g * vv, axis=1, keepdims=True)
        g_scaled = -g_ratio * ratio / scaled
        g_scaled = g_scaled + g_ratio / scaled * kept * (1.0 - gain * gain)
        _accumulate(v, _row_norm_grad(g_scaled * sqrt_c, vv, norm, active))

    return v.tape._register(vv * ratio, (v,), push)


def exterior_angle_rows(x: Tensor, y: Tensor) -> Tensor:
    """Row-wise entailment-cone exterior angle in the unit ball -> (N, 1).

    Uses the nonsingular form
        cos(theta) = (<x,y>(1+|x|^2) - |x|^2 (1+|y|^2))
                     / (|x| |x-y| sqrt(1 + |x|^2 |y|^2 - 2<x,y>)).
    Rows with a degenerate base (|x| <= BALL_EPS) or coincident pair
    (|x - y| <= BALL_EPS) are masked to 0 by convention. So are rows with
    cos(theta) >= 1 - 1e-12: arccos amplifies rounding there to ~1e-7, and
    a radially outward y must come out exactly 0. No gradient flows through
    masked rows.
    """
    tape = _row_pair(x, y)
    xv, yv = x.value, y.value
    xx, yy, xy = _rows_dot(xv, xv), _rows_dot(yv, yv), _rows_dot(xv, yv)
    nx, nx_active = _row_norm(xv)
    diff = xv - yv
    nxy, nxy_active = _row_norm(diff)
    xx1, yy1 = 1.0 + xx, 1.0 + yy
    num = xy * xx1 - xx * yy1
    inner, inner_kept = _clamp((1.0 + xx * yy) - xy * 2.0, lo=DENOM_EPS)
    lengths, root = nx * nxy, np.sqrt(inner)
    den, den_kept = _clamp(lengths * root, lo=DENOM_EPS)
    quotient = num / den
    cos_theta, cos_kept = _clamp(quotient, lo=-1.0, hi=1.0)
    keep = ((nx > BALL_EPS) & (nxy > BALL_EPS) & (cos_theta < 1.0 - 1e-12)).astype(np.float64)

    def push(g):
        g_cos = -(g * keep) / np.sqrt(np.maximum(1.0 - cos_theta * cos_theta, DENOM_EPS))
        g_quotient = g_cos * cos_kept
        g_num = g_quotient / den
        g_prod = -g_quotient * quotient / den * den_kept
        # den = (|x| |x-y|) sqrt(inner)
        g_lengths = g_prod * root
        g_inner = g_prod * lengths / np.maximum(2.0 * root, DENOM_EPS) * inner_kept
        g_nx = g_lengths * nxy
        g_nxy = g_lengths * nx
        # inner = (1 + |x|^2 |y|^2) - 2<x,y>
        g_xy = -g_inner * 2.0
        g_xx = g_inner * yy
        g_yy = g_inner * xx
        # num = <x,y>(1 + |x|^2) - |x|^2 (1 + |y|^2)
        g_xx = g_xx + -g_num * yy1
        g_yy = g_yy + -g_num * xx
        g_xy = g_xy + g_num * xx1
        g_xx = g_xx + g_num * xy
        # the norms, then the three inner products
        g_diff = _row_norm_grad(g_nxy, diff, nxy, nxy_active)
        _accumulate(x, g_diff)
        _accumulate(y, -g_diff)
        _accumulate(x, _row_norm_grad(g_nx, xv, nx, nx_active))
        _accumulate(x, g_xy * yv)
        _accumulate(y, g_xy * xv)
        _accumulate(y, g_yy * yv)
        _accumulate(y, g_yy * yv)
        _accumulate(x, g_xx * xv)
        _accumulate(x, g_xx * xv)

    return tape._register(np.arccos(cos_theta) * keep, (x, y), push)


def aperture_rows(x: Tensor, K: float) -> Tensor:
    """Row-wise cone aperture arcsin(K (1 - |x|^2) / |x|) in the unit ball -> (N, 1).

    The arcsin argument is clipped to [-1, 1]; rows at or inside the norm
    floor get an argument >> 1 and therefore open fully to pi/2, matching
    the origin convention.
    """
    xv = x.value
    norm, active = _row_norm(xv, floor=BALL_EPS)
    xx = _rows_dot(xv, xv)
    arg = (1.0 - xx) * K / norm
    clipped, kept = _clamp(arg, lo=-1.0, hi=1.0)

    def push(g):
        g_arg = g / np.sqrt(np.maximum(1.0 - clipped * clipped, DENOM_EPS)) * kept
        g_xx = -(g_arg / norm * K)
        _accumulate(x, g_xx * xv)
        _accumulate(x, g_xx * xv)
        _accumulate(x, _row_norm_grad(-g_arg * arg / norm, xv, norm, active))

    return x.tape._register(np.arcsin(clipped), (x,), push)


# ---------------------------------------------------------------------------
# Riemannian Adam's retraction, in numpy
# ---------------------------------------------------------------------------

def mobius_add_rows(x: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Gyrovector addition x (+) y applied row-wise.

    ((1 + 2c<x,y> + c|y|^2) x + (1 - c|x|^2) y) / (1 + 2c<x,y> + c^2 |x|^2 |y|^2)
    """
    xx, yy, xy = _rows_dot(x, x), _rows_dot(y, y), _rows_dot(x, y)
    num = (1.0 + 2.0 * c * xy + c * yy) * x + (1.0 - c * xx) * y
    den = 1.0 + 2.0 * c * xy + c * c * xx * yy
    return num / np.maximum(den, DENOM_EPS)


def project_rows(x: np.ndarray, c: float) -> np.ndarray:
    """Rescale any row with c*|row|^2 >= (1 - BALL_EPS)^2 to norm (1-BALL_EPS)/sqrt(c)."""
    x = np.asarray(x, dtype=np.float64)
    norms = _norms(x)
    limit = (1.0 - BALL_EPS) / math.sqrt(c)
    scale = np.where(norms >= limit, limit / np.maximum(norms, DENOM_EPS), 1.0)
    return x * scale


def exp_map_rows(x: np.ndarray, v: np.ndarray, c: float) -> np.ndarray:
    """Exponential map at each row of x applied to the matching row of v."""
    sqrt_c = math.sqrt(c)
    lam = 2.0 / np.maximum(1.0 - c * _rows_dot(x, x), DENOM_EPS)
    vnorm = _norms(v)
    safe = np.maximum(vnorm, DENOM_EPS)
    gain = np.tanh(sqrt_c * lam * vnorm / 2.0) / (sqrt_c * safe)
    second = np.where(vnorm > 0.0, gain * v, 0.0)
    return project_rows(mobius_add_rows(x, second, c), c)


def log_map_rows(x: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Logarithmic map at each row of x toward the matching row of y."""
    sqrt_c = math.sqrt(c)
    w = mobius_add_rows(-x, y, c)
    wnorm = _norms(w)
    lam = 2.0 / np.maximum(1.0 - c * _rows_dot(x, x), DENOM_EPS)
    arg = np.minimum(sqrt_c * wnorm, ARTANH_ARG_MAX)
    gain = (2.0 / (sqrt_c * lam)) * np.arctanh(arg) / np.maximum(wnorm, DENOM_EPS)
    return np.where(wnorm > 0.0, gain * w, 0.0)
