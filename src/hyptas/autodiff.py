"""Minimal reverse-mode differentiation over dense float64 arrays.

A Tape records, in creation order (a topological order), exactly the nodes
that `Tape.backward` visits: the leaves, and every op with at least one
parent that needs a gradient. A constant, and an op over constants only, is
a bare value tensor that is never recorded, so a pass with no leaves (the
finite-difference probes, `ballops.evaluate`) records nothing. `Tape.backward`
seeds the scalar output with 1 and walks the record once in reverse,
accumulating gradients into every leaf. All values are numpy float64
arrays; scalars are 0-d arrays.

A tape is single use: `backward` drops the record once it has built its
result, so no Tensor -> Tape -> nodes cycle outlives the step and reference
counting frees the graph as soon as the caller lets go of it. A second
`backward` raises.

Broadcasting is deliberately narrow: `add`, `sub` and `mul` accept a Python
float, and every other mixed-shape combination has its own named op
(`scale_rows`, `gather_rows`, ...). This keeps each node's backward rule
one line and the whole tape auditable. A gradient rule computes only the
gradients of operands that need one: a constant operand (features, masks)
costs no backward arithmetic.

Fused ops stand for a whole composition of primitives: each denoiser layer
is one `conv_layer` node (dilated convolution, biases, the decoder's step
projection, residual and relu) and each classification head one
`softmax_head` node, and the Poincare-ball formulas are fused ops of their
own in `ballops`, registered through `Tape._register` like the primitives
here. A fused op computes the composition's numpy expressions in the same
order and replays its gradient arithmetic, so values and gradients keep the
composition's bits; the compositions live in the test suite as oracles.

Training stacks its videos in time, and the layer ops, `sums` and `mean`
take their frame counts as `rows` (a lone video is rows = (L,)). The layer
ops keep every tap inside its video, run every matmul over each video's
own rows, take each video's weight gradients over its own rows and sum
them left to right, and `sums` and `mean` reduce per video. A packed
training step thus gives each video the bits of a tape of its own; `total`
sums the per-video losses into the 0-d root that `Tape.backward` seeds.
Inference runs without a tape, in `model.ForwardRunner`.

`finite_diff_check` is the independent gradient oracle used throughout the
test suite: central differences against the tape's analytic gradients, with
each perturbed point evaluated on a tape of its own. `stacked_finite_diff_check`
(behind `hyptas check`) takes the same differences for a function of stacked
copies: every perturbed point is one copy of a single pass over constants,
so it returns `finite_diff_check`'s bits whenever each copy keeps the bits
it has alone, as every training op and loss does. Both share one routine
for the perturbed points, the difference quotients and the error.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Callable, Sequence

import numpy as np

from .errors import AutodiffError, ShapeError


class Tensor:
    """A value on a tape; a recorded op also holds the rule that pushes its
    gradient back to its parents."""

    __slots__ = ("tape", "value", "_push", "needs_grad", "grad", "name")

    def __init__(self, tape, value, push=None, needs_grad=False, name=None):
        self.tape = tape
        self.value = value
        self._push = push
        self.needs_grad = needs_grad
        self.grad = None
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        label = self.name or "tensor"
        return f"<{label} shape={self.value.shape} leaf={self._push is None and self.needs_grad}>"

    # Operator sugar; every route lands on a module-level op below.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return neg(self)


class Tape:
    """Single-owner op record; build a graph, call backward(scalar) once.

    Only the leaves and the ops that need a gradient are recorded. The tape
    is single use: backward drops the record, and a second call raises.
    """

    def __init__(self):
        self.nodes: list[Tensor] = []
        self._spent = False

    def leaf(self, value, name: str | None = None) -> Tensor:
        """A trainable input, recorded; backward() reports its gradient."""
        node = Tensor(self, np.asarray(value, dtype=np.float64), needs_grad=True, name=name)
        self.nodes.append(node)
        return node

    def const(self, value, name: str | None = None) -> Tensor:
        """A fixed input, not recorded; gradients are not propagated into it."""
        return Tensor(self, np.asarray(value, dtype=np.float64), name=name)

    def _register(self, value, parents, push) -> Tensor:
        """The op's output: recorded with its gradient rule if a parent needs
        a gradient, otherwise a bare value."""
        for p in parents:
            if p.needs_grad:
                node = Tensor(self, value, push=push, needs_grad=True)
                self.nodes.append(node)
                return node
        return Tensor(self, value)

    def backward(self, output: Tensor) -> dict[Tensor, np.ndarray]:
        """Accumulate d(output)/d(leaf) for every leaf on this tape.

        Visits nodes exactly once in reverse creation order. Returns a dict
        keyed by leaf tensor (zero arrays for leaves the output does not
        depend on); the same gradients are left on each node's `.grad`.
        The record is then dropped: the tape is spent.
        """
        if self._spent:
            raise AutodiffError("backward already ran on this tape; a tape is single use")
        if output.tape is not self:
            raise AutodiffError("output tensor does not belong to this tape")
        if output.value.ndim != 0:
            raise AutodiffError(f"backward needs a scalar output, got shape {output.value.shape}")
        output.grad = np.ones(())
        for node in reversed(self.nodes):
            if node.grad is not None and node._push is not None:
                node._push(node.grad)
        out = {}
        for node in self.nodes:
            if node._push is None:
                out[node] = node.grad if node.grad is not None else np.zeros_like(node.value)
        self.nodes = []
        self._spent = True
        return out


def _accumulate(node: Tensor, grad: np.ndarray) -> None:
    # Gradients are only ever rebound, never mutated in place, so aliasing
    # the incoming array is safe.
    if not node.needs_grad:
        return
    node.grad = grad if node.grad is None else node.grad + grad


def _same_tape(*tensors: Tensor):
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise AutodiffError("tensors live on different tapes")
    return tape


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor | float) -> Tensor:
    """Elementwise sum with a tensor of a's shape or a float."""
    if not isinstance(b, Tensor):
        def push(g):
            _accumulate(a, g)
        return a.tape._register(a.value + b, (a,), push)
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ShapeError(f"add: unsupported shapes {av.shape} + {bv.shape}")

    def push(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return tape._register(av + bv, (a, b), push)


def neg(a: Tensor) -> Tensor:
    def push(g):
        _accumulate(a, -g)
    return a.tape._register(-a.value, (a,), push)


def sub(a: Tensor, b: Tensor | float) -> Tensor:
    return add(a, -b)


def mul(a: Tensor, b: Tensor | float | np.ndarray) -> Tensor:
    """Elementwise product with a tensor of a's shape, or with a float or a
    constant array that broadcasts to a's shape (such as one factor per video)."""
    if not isinstance(b, Tensor):
        def push(g):
            _accumulate(a, g * b)
        return a.tape._register(a.value * b, (a,), push)
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


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise quotient of same-shape tensors. Caller keeps b away from 0."""
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ShapeError(f"div: unsupported shapes {av.shape} / {bv.shape}")
    out = av / bv

    def push(g):
        if a.needs_grad:
            _accumulate(a, g / bv)
        if b.needs_grad:
            _accumulate(b, -g * out / bv)

    return tape._register(out, (a, b), push)


# ---------------------------------------------------------------------------
# Pointwise nonlinearities
# ---------------------------------------------------------------------------

def relu(a: Tensor) -> Tensor:
    mask = a.value > 0.0

    def push(g):
        _accumulate(a, g * mask)

    return a.tape._register(a.value * mask, (a,), push)


def log(a: Tensor) -> Tensor:
    """Natural log; caller clamps the argument positive."""
    val = a.value

    def push(g):
        _accumulate(a, g / val)

    return a.tape._register(np.log(val), (a,), push)


def square(a: Tensor) -> Tensor:
    val = a.value

    def push(g):
        _accumulate(a, g * (2.0 * val))

    return a.tape._register(val * val, (a,), push)


def clamp(a: Tensor, lo: float | None = None, hi: float | None = None) -> Tensor:
    """Clip values; gradient passes only where the value was left unchanged."""
    out = np.clip(a.value, lo, hi)
    mask = out == a.value

    def push(g):
        _accumulate(a, g * mask)

    return a.tape._register(out, (a,), push)


# ---------------------------------------------------------------------------
# Reductions and row-wise structure
# ---------------------------------------------------------------------------

def _spans(rows: Sequence[int], length: int) -> list[tuple[int, int]]:
    """(start, stop) of each video's rows among `length` stacked rows."""
    if sum(rows) != length or min(rows) < 1:
        raise ShapeError(f"row counts {tuple(rows)} do not split {length} rows")
    stops = list(itertools.accumulate(rows))
    return list(zip([0] + stops[:-1], stops))


def _in_order(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Per-video parts summed left to right in video order, ((p0 + p1) + p2) + ...,
    the order in which one tape per video would add them up."""
    return functools.reduce(operator.add, parts)


def total(a: Tensor) -> Tensor:
    """Sum of every entry (0-d), such as the root that `Tape.backward` seeds."""
    shape = a.value.shape

    def push(g):
        _accumulate(a, np.full(shape, float(g)))

    return a.tape._register(np.sum(a.value).reshape(()), (a,), push)


def sums(a: Tensor, rows: Sequence[int]) -> Tensor:
    """The sum over each video's rows -> (V,)."""
    return _video_reduce(a, rows, mean=False)


def mean(a: Tensor, rows: Sequence[int]) -> Tensor:
    """The mean over each video's rows -> (V,)."""
    return _video_reduce(a, rows, mean=True)


def _video_reduce(a: Tensor, rows, mean: bool) -> Tensor:
    """Sum or mean over each video's block of rows, with the one-video
    arithmetic: every entry of a block gets the block's gradient (divided by
    the block's size for a mean)."""
    av = a.value
    spans = _spans(rows, av.shape[0])
    reduce = np.mean if mean else np.sum
    out = np.array([reduce(av[lo:hi]) for lo, hi in spans])

    def push(g):
        sizes = np.array([(hi - lo) * (av.size // av.shape[0]) for lo, hi in spans])
        _accumulate(a, np.repeat(g / sizes if mean else g, sizes).reshape(av.shape))

    return a.tape._register(out, (a,), push)


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


def gather_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Select rows of a (C, d) tensor by integer index -> (len(index), d)."""
    idx = np.asarray(index, dtype=np.intp)
    shape = a.value.shape

    def push(g):
        ga = np.zeros(shape)
        np.add.at(ga, idx, g)
        _accumulate(a, ga)

    return a.tape._register(a.value[idx], (a,), push)


def pick_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Rows of a (N, d) tensor at distinct integer indices -> (len(index), d);
    the gradient is written back by assignment, with zeros elsewhere."""
    idx = np.asarray(index, dtype=np.intp)
    shape = a.value.shape

    def push(g):
        ga = np.zeros(shape)
        ga[idx] = g
        _accumulate(a, ga)

    return a.tape._register(a.value[idx], (a,), push)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    na = a.value.shape[1]

    def push(g):
        _accumulate(a, g[:, :na])
        _accumulate(b, g[:, na:])

    return tape._register(np.concatenate([a.value, b.value], axis=1), (a, b), push)


# ---------------------------------------------------------------------------
# Softmax (row-wise over class columns)
# ---------------------------------------------------------------------------

def _softmax_rows(val: np.ndarray) -> np.ndarray:
    shifted = val - np.max(val, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


def _softmax_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    return out * (g - np.sum(g * out, axis=1, keepdims=True))


def softmax(a: Tensor) -> Tensor:
    out = _softmax_rows(a.value)

    def push(g):
        _accumulate(a, _softmax_grad(out, g))

    return a.tape._register(out, (a,), push)


def _matmul_rows(a: np.ndarray, b: np.ndarray, spans) -> np.ndarray:
    """a @ b with one matmul per video's rows of a, so that each video gets
    the bits of its own matmul (a row of a BLAS matmul can change in its
    last bits with the matmul's row count)."""
    if len(spans) == 1:
        return a @ b
    return np.concatenate([a[lo:hi] @ b for lo, hi in spans])


def softmax_head(h: Tensor, w: Tensor, b: Tensor, rows: Sequence[int]) -> Tensor:
    """Class probabilities softmax(h @ w + b) of h (L, d), w (d, C), b (1, C).

    One op for the composition matmul -> row-bias add -> softmax, with its
    arithmetic: the same forward expressions, and a backward that hands the
    softmax gradient to b and through the matmul to h and w. `rows` gives
    the frame counts of the videos stacked in h. Every matmul runs per
    video, as in `_dilated_conv`, and w and b get the videos' own gradients
    summed left to right.
    """
    tape = _same_tape(h, w, b)
    hv, wv, bv = h.value, w.value, b.value
    spans = _spans(rows, hv.shape[0])
    z = _matmul_rows(hv, wv, spans)
    if bv.shape != (1, z.shape[1]):
        raise ShapeError(f"softmax_head: bias {bv.shape} for logits {z.shape}")
    out = _softmax_rows(z + bv)

    def push(g):
        gz = _softmax_grad(out, g)
        if b.needs_grad:
            _accumulate(b, _in_order([np.sum(gz[lo:hi], axis=0, keepdims=True) for lo, hi in spans]))
        if h.needs_grad:
            _accumulate(h, _matmul_rows(gz, wv.T, spans))
        if w.needs_grad:
            _accumulate(w, _in_order([hv[lo:hi].T @ gz[lo:hi] for lo, hi in spans]))

    return tape._register(out, (h, w, b), push)


# ---------------------------------------------------------------------------
# Dilated temporal-convolution layer
# ---------------------------------------------------------------------------

def _dilated_conv(xv: np.ndarray, wv: np.ndarray, dilation: int, rows):
    """'Same'-padded dilated convolution: x (L, Cin), w (k, Cin, Cout) -> (L, Cout),
    and its backward `grads(g, need_x, need_w) -> (gx, gw)` (None where not needed).

    Tap j reads frames offset by (j - k//2) * dilation; out-of-range frames
    contribute zero. `rows` gives the frame counts of the videos stacked in
    x, and no tap reads across a video boundary. Both passes work on one
    zero-padded buffer that holds every video with pad = (k//2) * dilation
    zero rows on each side (pad rows between neighbours, since a tap reaches
    at most pad rows past a video's edge), so each video's padded frames are
    one window of it, and sum one matmul per tap on row-slice views, tap by
    tap. A single im2col matmul would reorder the float sums and change the
    result bits.

    Both passes run each tap's matmul over each video's window: a row of a
    BLAS matmul can change in its last bits with the matmul's row count, so
    only per-video matmuls give every video the bits of its own buffer. The
    kernel gradient is the videos' own gradients summed left to right.
    """
    if xv.ndim != 2 or wv.ndim != 3 or xv.shape[1] != wv.shape[1]:
        raise ShapeError(f"conv_layer: got input {xv.shape}, kernel {wv.shape}")
    k, L = wv.shape[0], xv.shape[0]
    pad = (k // 2) * dilation
    # (o, lo, hi) per video: its rows lo:hi of x sit at buffer rows o + pad on
    windows = [(lo + pad * i, lo, hi) for i, (lo, hi) in enumerate(_spans(rows, L))]
    span = L + pad * (len(rows) - 1)  # rows of the buffer between its outer pads
    starts = [j * dilation for j in range(k)]  # tap j's window in the padded rows

    xp = np.zeros((span + 2 * pad, xv.shape[1]))
    for o, lo, hi in windows:
        xp[o + pad : o + pad + hi - lo] = xv[lo:hi]
    out = np.zeros((L, wv.shape[2]))
    for o, lo, hi in windows:
        for j, s in enumerate(starts):
            out[lo:hi] += xp[o + s : o + s + hi - lo] @ wv[j]

    def grads(g, need_x, need_w):
        gx = gw = None
        if need_x:
            gp = np.zeros_like(xp)
            for o, lo, hi in windows:
                for j, s in enumerate(starts):
                    gp[o + s : o + s + hi - lo] += g[lo:hi] @ wv[j].T
            gx = np.concatenate([gp[o + pad : o + pad + hi - lo] for o, lo, hi in windows])
        if need_w:
            def video_gw(o, lo, hi):
                gw = np.empty_like(wv)
                for j, s in enumerate(starts):
                    gw[j] = xp[o + s : o + s + hi - lo].T @ g[lo:hi]
                return gw

            gw = _in_order([video_gw(*window) for window in windows])
        return gx, gw

    return out, grads


def conv_layer(
    x: Tensor,
    w: Tensor,
    b: Tensor,
    dilation: int,
    rows: Sequence[int],
    step: tuple[Sequence[np.ndarray], Tensor, Tensor] | None = None,
    residual: bool = False,
) -> Tensor:
    """One dilated temporal-convolution layer as one op:
    relu([x +] ((conv(x, w) + b) [+ (e @ sw + sb)])).

    x (L, Cin), w (k, Cin, Cout), b (1, Cout); `rows` as in `_dilated_conv`.
    `step = (e, sw, sb)` adds a step projection: `e` is a list of fixed
    (1, E) arrays, one per video, each projected on its own by the (E, Cout)
    weight sw and (1, Cout) bias sb (a 1-row matmul) and added to its
    video's rows. `residual` adds the input. The backward replays the
    composition's gradient arithmetic: the
    residual's gradient reaches x before the convolution's, each bias gets
    the column sum of the relu's gradient, and sw gets e.T times it. Every
    weight gradient is taken per video over its own rows and the videos'
    gradients are summed left to right, as one tape per video would.
    """
    parents = (x, w, b) if step is None else (x, w, b) + tuple(step[1:])
    tape = _same_tape(*parents)
    conv, conv_grads = _dilated_conv(x.value, w.value, dilation, rows)
    bias_shape = (1, conv.shape[1])
    if b.value.shape != bias_shape:
        raise ShapeError(f"conv_layer: bias {b.value.shape} for output {conv.shape}")
    z = conv + b.value
    if step is not None:
        e, sw, sb = step
        if sb.value.shape != bias_shape:
            raise ShapeError(f"conv_layer: step bias {sb.value.shape} for output {conv.shape}")
        if len(e) != len(rows):
            raise ShapeError(f"conv_layer: {len(e)} step embeddings for {len(rows)} videos")
        z = z + np.repeat(np.concatenate([ev @ sw.value + sb.value for ev in e]), rows, axis=0)
    if residual:
        if x.value.shape != z.shape:
            raise ShapeError(f"conv_layer: residual input {x.value.shape} for output {z.shape}")
        z = x.value + z
    mask = z > 0.0

    def push(g):
        g = g * mask
        if residual:
            _accumulate(x, g)
        gsums = [np.sum(g[lo:hi], axis=0, keepdims=True) for lo, hi in _spans(rows, g.shape[0])]
        gsum = _in_order(gsums)
        if step is not None:
            if sw.needs_grad:
                _accumulate(sw, _in_order([ev.T @ gv for ev, gv in zip(e, gsums)]))
            _accumulate(sb, gsum)
        _accumulate(b, gsum)
        gx, gw = conv_grads(g, x.needs_grad, w.needs_grad)
        if gx is not None:
            _accumulate(x, gx)
        if gw is not None:
            _accumulate(w, gw)

    return tape._register(z * mask, parents, push)


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

def _perturbed(point: list[np.ndarray], step: float):
    """The 2N perturbed points of `point` in order: for each coordinate k (the
    inputs in order, each flattened), the point with k moved by +step, then by
    -step. Only the moved input is copied."""
    for pi, p in enumerate(point):
        flat = p.reshape(-1)
        for ci in range(flat.size):
            for delta in (step, -step):
                moved = p.copy()
                moved.reshape(-1)[ci] = flat[ci] + delta
                yield point[:pi] + [moved] + point[pi + 1:]


def _central_differences(base, point, step, values_at) -> float:
    """Max over all coordinates of |analytic - central difference| / max(1, |analytic|).

    `base(tape, leaves)` builds the scalar whose recorded tape gives the
    analytic gradient at `point`; `values_at(points)` returns the function's
    value at each of the `_perturbed` points, in their order.
    """
    if step <= 0.0:
        raise AutodiffError(f"finite-difference step must be > 0, got {step}")
    point = [np.asarray(p, dtype=np.float64) for p in point]

    tape = Tape()
    leaves = [tape.leaf(p) for p in point]
    out = base(tape, leaves)
    if not math.isfinite(float(out.value)):
        raise AutodiffError("function evaluated non-finite at the base point")
    grads = tape.backward(out)
    analytic = np.concatenate([grads[leaf].reshape(-1) for leaf in leaves])

    values = np.asarray(values_at(_perturbed(point, step)), dtype=np.float64)
    if values.shape != (2 * analytic.size,):
        raise AutodiffError(f"{values.shape} values for {2 * analytic.size} perturbed points")
    if not np.all(np.isfinite(values)):
        raise AutodiffError("function evaluated non-finite at a perturbed point")
    fd = (values[0::2] - values[1::2]) / (2.0 * step)
    return float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic)), initial=0.0))


def finite_diff_check(
    f: Callable[[Tape, list[Tensor]], Tensor],
    point: Sequence[np.ndarray],
    step: float = 1e-5,
) -> float:
    """Max over all coordinates of |analytic - central difference| / max(1, |analytic|).

    `f` builds a scalar on the tape it is given from the tensors it is given:
    leaves at the base point, then, 2 * total_coordinates times, constants at
    the perturbed points, on a tape that records nothing.
    """
    def values_at(points):
        out = []
        for arrays in points:
            t = Tape()
            out.append(float(f(t, [t.const(a) for a in arrays]).value))
        return out

    return _central_differences(f, point, step, values_at)


def stacked_finite_diff_check(
    f: Callable[[Tape, list[Tensor]], Tensor],
    point: Sequence[np.ndarray],
    step: float = 1e-5,
) -> float:
    """`finite_diff_check` of `total(f)` for an `f` that takes stacked copies.

    `f` takes each input as V copies stacked along axis 0 and returns the
    (V,) tensor of the copies' values. The analytic gradient comes from one
    recorded tape at the base point (V = 1), and the 2N perturbed points from
    one pass over constants that stacks them (V = 2N): copy 2k moves
    coordinate k by +step and copy 2k + 1 by -step. Where each copy's value
    has the bits it has alone, the result equals `finite_diff_check`'s.
    """
    def values_at(points):
        t = Tape()
        return f(t, [t.const(np.concatenate(copies)) for copies in zip(*points)]).value

    return _central_differences(lambda tape, leaves: total(f(tape, leaves)), point, step, values_at)
