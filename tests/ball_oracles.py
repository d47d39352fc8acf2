"""The Poincare-ball formulas composed from tape primitives: oracles for `ballops`.

Each function builds its formula from `autodiff` primitives, so its value
and gradients follow from the primitives' own rules. The fused ops in
`hyptas.ballops` compute the same expressions in the same order and replay
this composition's gradient arithmetic, so on every input, clamped rows
included, they must agree with these oracles to the bit, in the value and
in the gradient of every input. The tape form of `mobius_add_rows` exists
only here: the fused `distance_rows` inlines it, and `ballops` keeps the
retraction's numpy form. The tape primitives that only these compositions
use (`tanh`, `sqrt`, `artanh`, `asin`, `acos`, the two-tensor product `mul`,
`scale_rows`, `div_rows`, `rows_dot`, `row_norm`) live only here too, with
the gradient rules they had in `autodiff`.
"""

from __future__ import annotations

import math

import numpy as np

from hyptas import autodiff as td
from hyptas.autodiff import Tensor, _accumulate, _same_tape
from hyptas.ballops import ARTANH_ARG_MAX, BALL_EPS, DENOM_EPS
from hyptas.errors import ShapeError


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.value)

    def push(g):
        _accumulate(a, g * (1.0 - out * out))

    return a.tape._register(out, (a,), push)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.value)

    def push(g):
        _accumulate(a, g / np.maximum(2.0 * out, DENOM_EPS))

    return a.tape._register(out, (a,), push)


def artanh(a: Tensor) -> Tensor:
    """Inverse hyperbolic tangent; caller clamps |argument| < 1."""
    val = a.value

    def push(g):
        _accumulate(a, g / (1.0 - val * val))

    return a.tape._register(np.arctanh(val), (a,), push)


def asin(a: Tensor) -> Tensor:
    val = a.value

    def push(g):
        _accumulate(a, g / np.sqrt(np.maximum(1.0 - val * val, DENOM_EPS)))

    return a.tape._register(np.arcsin(val), (a,), push)


def acos(a: Tensor) -> Tensor:
    val = a.value

    def push(g):
        _accumulate(a, -g / np.sqrt(np.maximum(1.0 - val * val, DENOM_EPS)))

    return a.tape._register(np.arccos(val), (a,), push)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ShapeError(f"mul: unsupported shapes {av.shape} * {bv.shape}")

    def push(g):
        if a.needs_grad:
            _accumulate(a, g * bv)
        if b.needs_grad:
            _accumulate(b, g * av)

    return tape._register(av * bv, (a, b), push)


def scale_rows(a: Tensor, s: Tensor) -> Tensor:
    """Multiply each row of a (N, d) tensor by the matching (N, 1) scalar."""
    tape = _same_tape(a, s)
    av, sv = a.value, s.value
    if av.ndim != 2 or sv.shape != (av.shape[0], 1):
        raise ShapeError(f"scale_rows: got {av.shape} scaled by {sv.shape}")

    def push(g):
        if a.needs_grad:
            _accumulate(a, g * sv)
        if s.needs_grad:
            _accumulate(s, np.sum(g * av, axis=1, keepdims=True))

    return tape._register(av * sv, (a, s), push)


def div_rows(a: Tensor, s: Tensor) -> Tensor:
    """Divide each row of a (N, d) tensor by the matching (N, 1) scalar."""
    tape = _same_tape(a, s)
    av, sv = a.value, s.value
    if av.ndim != 2 or sv.shape != (av.shape[0], 1):
        raise ShapeError(f"div_rows: got {av.shape} divided by {sv.shape}")
    out = av / sv

    def push(g):
        if a.needs_grad:
            _accumulate(a, g / sv)
        if s.needs_grad:
            _accumulate(s, np.sum(-g * out / sv, axis=1, keepdims=True))

    return tape._register(out, (a, s), push)


def rows_dot(a: Tensor, b: Tensor) -> Tensor:
    """Per-row inner product of two (N, d) tensors -> (N, 1)."""
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape != bv.shape or av.ndim != 2:
        raise ShapeError(f"rows_dot: need matching 2-D shapes, got {av.shape}, {bv.shape}")
    out = np.sum(av * bv, axis=1, keepdims=True)

    def push(g):
        if a.needs_grad:
            _accumulate(a, g * bv)
        if b.needs_grad:
            _accumulate(b, g * av)

    return tape._register(out, (a, b), push)


def row_norm(a: Tensor, floor: float = DENOM_EPS) -> Tensor:
    """Per-row Euclidean norm -> (N, 1), floored; gradient is flat below the floor.

    With `floor=0.0` a zero row has norm exactly 0 and gradient 0.
    """
    raw = np.linalg.norm(a.value, axis=1, keepdims=True)
    out = np.maximum(raw, floor)
    active = raw > floor
    val = a.value

    def push(g):
        grad = np.zeros_like(val)
        _accumulate(a, np.divide(g * val, out, out=grad, where=active))

    return a.tape._register(out, (a,), push)


def mobius_add_rows(x: Tensor, y: Tensor, c: float) -> Tensor:
    """Row-wise gyrovector addition of two (N, d) tensors."""
    xx = rows_dot(x, x)
    yy = rows_dot(y, y)
    xy = rows_dot(x, y)
    coef_x = td.add(td.mul(xy, 2.0 * c) + td.mul(yy, c), 1.0)
    coef_y = td.add(td.mul(xx, -c), 1.0)
    num = scale_rows(x, coef_x) + scale_rows(y, coef_y)
    den = td.add(td.mul(xy, 2.0 * c) + mul(td.mul(xx, c * c), yy), 1.0)
    return div_rows(num, td.clamp(den, lo=DENOM_EPS))


def distance_rows(x: Tensor, y: Tensor, c: float) -> Tensor:
    """Row-wise geodesic distance -> (N, 1); exactly 0 for equal rows."""
    sqrt_c = math.sqrt(c)
    w = mobius_add_rows(td.mul(x, -1.0), y, c)  # -x, and -g to x, exactly
    arg = td.clamp(td.mul(row_norm(w, floor=0.0), sqrt_c), hi=ARTANH_ARG_MAX)
    return td.mul(artanh(arg), 2.0 / sqrt_c)


def origin_distance_rows(x: Tensor, c: float) -> Tensor:
    """Row-wise distance to the origin -> (N, 1)."""
    sqrt_c = math.sqrt(c)
    arg = td.clamp(td.mul(row_norm(x), sqrt_c), hi=ARTANH_ARG_MAX)
    return td.mul(artanh(arg), 2.0 / sqrt_c)


def exp_map_origin_rows(v: Tensor, c: float) -> Tensor:
    """Rows of a Euclidean (N, d) tensor mapped into the ball by exp at the
    origin, the radial tanh gain capped at 1 - BALL_EPS."""
    sqrt_c = math.sqrt(c)
    n = row_norm(v)
    scaled = td.mul(n, sqrt_c)
    radial = td.clamp(tanh(scaled), hi=1.0 - BALL_EPS)
    return scale_rows(v, td.div(radial, scaled))


def exterior_angle_rows(x: Tensor, y: Tensor) -> Tensor:
    """Row-wise entailment-cone exterior angle -> (N, 1), with the masked
    rows (degenerate base, coincident pair, cos(theta) >= 1 - 1e-12) at 0
    through a constant mask."""
    xx = rows_dot(x, x)
    yy = rows_dot(y, y)
    xy = rows_dot(x, y)
    nx = row_norm(x)
    diff = x - y
    nxy = row_norm(diff)
    one = x.tape.const(np.ones_like(xx.value))
    num = mul(xy, one + xx) - mul(xx, one + yy)
    inner = td.clamp(one + mul(xx, yy) - td.mul(xy, 2.0), lo=DENOM_EPS)
    den = td.clamp(mul(mul(nx, nxy), sqrt(inner)), lo=DENOM_EPS)
    cos_theta = td.clamp(td.div(num, den), lo=-1.0, hi=1.0)
    theta = acos(cos_theta)
    keep = x.tape.const(
        ((nx.value > BALL_EPS) & (nxy.value > BALL_EPS)
         & (cos_theta.value < 1.0 - 1e-12)).astype(np.float64)
    )
    return mul(theta, keep)


def aperture_rows(x: Tensor, K: float) -> Tensor:
    """Row-wise cone aperture arcsin(K (1 - |x|^2) / |x|) -> (N, 1), the
    argument clipped to [-1, 1]."""
    n = row_norm(x, floor=BALL_EPS)
    nn = rows_dot(x, x)
    one = x.tape.const(np.ones_like(nn.value))
    arg = td.div(td.mul(one - nn, K), n)
    return asin(td.clamp(arg, lo=-1.0, hi=1.0))


FORMULAS = ("distance_rows", "origin_distance_rows", "exp_map_origin_rows",
            "exterior_angle_rows", "aperture_rows")
