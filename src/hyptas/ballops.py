"""Every Poincare-ball formula the losses use, composed from tape primitives.

Mobius addition, geodesic distance, distance to the origin, the exp map at
the origin, the entailment-cone exterior angle and the cone aperture each
have this one implementation. Training builds them on a recording tape, so
gradients are exact by construction rather than hand-derived; inference,
the prototype log value and the `hyptas check` suites run the same
functions forward through `evaluate` on a non-recording tape. Clamping
follows one policy: norms floored, artanh arguments kept below 1,
inverse-trig arguments clipped to their closed domains. `geometry` keeps
only the numpy kernels of Riemannian Adam's retraction.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as td
from .autodiff import Tape, Tensor
from .geometry import ARTANH_ARG_MAX, BALL_EPS, DENOM_EPS


def evaluate(op, *args) -> np.ndarray:
    """`op(*args)` forward on a non-recording tape: numpy rows in, numpy out.

    Array arguments become constants; scalars (curvature, cone_k) pass as is.
    """
    tape = Tape(record=False)
    return op(*(tape.const(a) if isinstance(a, np.ndarray) else a for a in args)).value


def mobius_add_rows(x: Tensor, y: Tensor, c: float) -> Tensor:
    """Row-wise gyrovector addition of two (N, d) tensors."""
    xx = td.rows_dot(x, x)
    yy = td.rows_dot(y, y)
    xy = td.rows_dot(x, y)
    coef_x = td.add(td.mul(xy, 2.0 * c) + td.mul(yy, c), 1.0)
    coef_y = td.add(td.mul(xx, -c), 1.0)
    num = td.scale_rows(x, coef_x) + td.scale_rows(y, coef_y)
    den = td.add(td.mul(xy, 2.0 * c) + td.mul(td.mul(xx, c * c), yy), 1.0)
    return td.div_rows(num, td.clamp(den, lo=DENOM_EPS))


def distance_rows(x: Tensor, y: Tensor, c: float) -> Tensor:
    """Row-wise geodesic distance -> (N, 1); exactly 0 for equal rows."""
    sqrt_c = math.sqrt(c)
    w = mobius_add_rows(td.neg(x), y, c)
    arg = td.clamp(td.mul(td.row_norm(w, floor=0.0), sqrt_c), hi=ARTANH_ARG_MAX)
    return td.mul(td.artanh(arg), 2.0 / sqrt_c)


def origin_distance_rows(x: Tensor, c: float) -> Tensor:
    """Row-wise distance to the origin -> (N, 1)."""
    sqrt_c = math.sqrt(c)
    arg = td.clamp(td.mul(td.row_norm(x), sqrt_c), hi=ARTANH_ARG_MAX)
    return td.mul(td.artanh(arg), 2.0 / sqrt_c)


def exp_map_origin_rows(v: Tensor, c: float) -> Tensor:
    """Project rows of a Euclidean (N, d) tensor into the ball via exp at the origin.

    The radial tanh gain is capped at 1 - BALL_EPS so every output row stays
    strictly inside with the same clearance `geometry.project_rows` enforces.
    """
    sqrt_c = math.sqrt(c)
    n = td.row_norm(v)
    scaled = td.mul(n, sqrt_c)
    radial = td.clamp(td.tanh(scaled), hi=1.0 - BALL_EPS)
    return td.scale_rows(v, td.div(radial, scaled))


def exterior_angle_rows(x: Tensor, y: Tensor) -> Tensor:
    """Row-wise entailment-cone exterior angle -> (N, 1).

    Uses the nonsingular form
        cos(theta) = (<x,y>(1+|x|^2) - |x|^2 (1+|y|^2))
                     / (|x| |x-y| sqrt(1 + |x|^2 |y|^2 - 2<x,y>)).
    Rows with a degenerate base (|x| <= BALL_EPS) or coincident pair
    (|x - y| <= BALL_EPS) are masked to 0 by convention. So are rows with
    cos(theta) >= 1 - 1e-12: arccos amplifies rounding there to ~1e-7, and
    a radially outward y must come out exactly 0. The mask is a constant,
    so no gradient flows through masked rows.
    """
    xx = td.rows_dot(x, x)
    yy = td.rows_dot(y, y)
    xy = td.rows_dot(x, y)
    nx = td.row_norm(x)
    diff = x - y
    nxy = td.row_norm(diff)
    one = x.tape.const(np.ones_like(xx.value))
    num = td.mul(xy, one + xx) - td.mul(xx, one + yy)
    inner = td.clamp(one + td.mul(xx, yy) - td.mul(xy, 2.0), lo=DENOM_EPS)
    den = td.clamp(td.mul(td.mul(nx, nxy), td.sqrt(inner)), lo=DENOM_EPS)
    cos_theta = td.clamp(td.div(num, den), lo=-1.0, hi=1.0)
    theta = td.acos(cos_theta)
    keep = x.tape.const(
        ((nx.value > BALL_EPS) & (nxy.value > BALL_EPS)
         & (cos_theta.value < 1.0 - 1e-12)).astype(np.float64)
    )
    return td.mul(theta, keep)


def aperture_rows(x: Tensor, K: float) -> Tensor:
    """Row-wise cone aperture arcsin(K (1 - |x|^2) / |x|) -> (N, 1).

    The arcsin argument is clipped to [-1, 1]; rows at or inside the norm
    floor get an argument >> 1 and therefore open fully to pi/2, matching
    the origin convention.
    """
    n = td.row_norm(x, floor=BALL_EPS)
    nn = td.rows_dot(x, x)
    one = x.tape.const(np.ones_like(nn.value))
    arg = td.div(td.mul(one - nn, K), n)
    return td.asin(td.clamp(arg, lo=-1.0, hi=1.0))
