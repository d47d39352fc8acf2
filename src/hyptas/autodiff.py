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

Broadcasting is deliberately narrow: `add` and `sub` take a tensor of the
same shape or a Python float, `mul` a float or a constant array (a mask
column, one factor per video, one-hot targets), and every other
mixed-shape combination has its own named op (`gather_rows`, ...). This
keeps each node's backward rule one line and the whole tape auditable. A
gradient rule computes only the gradients of operands that need one: a
constant operand (features, masks) costs no backward arithmetic.

Fused ops stand for a whole composition of primitives: the Poincare-ball
formulas in `ballops`, and the denoiser's conv stacks and classification
heads in `model`, register through `Tape._register` like the primitives
here. A fused op computes the composition's numpy expressions in the same
order and replays its gradient arithmetic, so values and gradients keep
the composition's bits; the compositions live in the test suite as
oracles.

Training stacks its videos in time, and `sums` and `mean` take their frame
counts as `rows` (a lone video is rows = (L,)) and reduce per video, as the
denoiser's nodes keep each video's matmuls and weight gradients apart. A
packed training step thus gives each video the bits of a tape of its own;
`total` sums the per-video losses into the 0-d root that `Tape.backward`
seeds. Inference runs without a tape, in `model.ForwardRunner`.

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
                out[node] = node.grad if node.grad is not None else np.zeros(node.value.shape)
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


def mul(a: Tensor, b: float | np.ndarray) -> Tensor:
    """Elementwise product with a float, or with a constant array that
    broadcasts to a's shape."""
    def push(g):
        _accumulate(a, g * b)
    return a.tape._register(a.value * b, (a,), push)


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


def _clamp(a: np.ndarray, lo: float | None = None, hi: float | None = None):
    """Values clipped to [lo, hi] and the mask of values left unchanged.

    np.maximum then np.minimum, the ufuncs np.clip calls: they differ from
    np.clip only in the sign of a zero clipped at a bound of 0.0, and no
    caller clamps at 0.0."""
    out = a if lo is None else np.maximum(a, lo)
    if hi is not None:
        out = np.minimum(out, hi)
    return out, out == a


def clamp(a: Tensor, lo: float | None = None, hi: float | None = None) -> Tensor:
    """Clip values; gradient passes only where the value was left unchanged."""
    out, mask = _clamp(a.value, lo, hi)

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

    return a.tape._register(np.add.reduce(a.value, axis=None).reshape(()), (a,), push)


def sums(a: Tensor, rows: Sequence[int]) -> Tensor:
    """The sum over each video's rows -> (V,)."""
    return _video_reduce(a, rows, mean=False)


def mean(a: Tensor, rows: Sequence[int]) -> Tensor:
    """The mean over each video's rows -> (V,)."""
    return _video_reduce(a, rows, mean=True)


def _video_reduce(a: Tensor, rows, mean: bool) -> Tensor:
    """Sum or mean over each video's block of rows, with the one-video
    arithmetic: every entry of a block gets the block's gradient (divided by
    the block's size for a mean). A mean divides the block's sum by its
    size, which is np.mean's own arithmetic."""
    av = a.value
    spans = _spans(rows, av.shape[0])
    sizes = np.array([(hi - lo) * (av.size // av.shape[0]) for lo, hi in spans])
    out = np.array([np.add.reduce(av[lo:hi], axis=None) for lo, hi in spans])
    if mean:
        out = out / sizes

    def push(g):
        _accumulate(a, np.repeat(g / sizes if mean else g, sizes).reshape(av.shape))

    return a.tape._register(out, (a,), push)


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


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

FD_STEP = 1e-5  # the central differences' step, in every input coordinate


def _perturbed(point: list[np.ndarray]):
    """The 2N perturbed points of `point` in order: for each coordinate k (the
    inputs in order, each flattened), the point with k moved by +FD_STEP, then
    by -FD_STEP. Only the moved input is copied."""
    for pi, p in enumerate(point):
        flat = p.reshape(-1)
        for ci in range(flat.size):
            for delta in (FD_STEP, -FD_STEP):
                moved = p.copy()
                moved.reshape(-1)[ci] = flat[ci] + delta
                yield point[:pi] + [moved] + point[pi + 1:]


def _central_differences(base, point, values_at) -> float:
    """Max over all coordinates of |analytic - central difference| / max(1, |analytic|).

    `base(tape, leaves)` builds the scalar whose recorded tape gives the
    analytic gradient at `point`; `values_at(points)` returns the function's
    value at each of the `_perturbed` points, in their order.
    """
    point = [np.asarray(p, dtype=np.float64) for p in point]

    tape = Tape()
    leaves = [tape.leaf(p) for p in point]
    out = base(tape, leaves)
    if not math.isfinite(float(out.value)):
        raise AutodiffError("function evaluated non-finite at the base point")
    grads = tape.backward(out)
    analytic = np.concatenate([grads[leaf].reshape(-1) for leaf in leaves])

    values = np.asarray(values_at(_perturbed(point)), dtype=np.float64)
    if values.shape != (2 * analytic.size,):
        raise AutodiffError(f"{values.shape} values for {2 * analytic.size} perturbed points")
    if not np.all(np.isfinite(values)):
        raise AutodiffError("function evaluated non-finite at a perturbed point")
    fd = (values[0::2] - values[1::2]) / (2.0 * FD_STEP)
    return float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic)), initial=0.0))


def finite_diff_check(
    f: Callable[[Tape, list[Tensor]], Tensor],
    point: Sequence[np.ndarray],
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

    return _central_differences(f, point, values_at)


def stacked_finite_diff_check(
    f: Callable[[Tape, list[Tensor]], Tensor],
    point: Sequence[np.ndarray],
) -> float:
    """`finite_diff_check` of `total(f)` for an `f` that takes stacked copies.

    `f` takes each input as V copies stacked along axis 0 and returns the
    (V,) tensor of the copies' values. The analytic gradient comes from one
    recorded tape at the base point (V = 1), and the 2N perturbed points from
    one pass over constants that stacks them (V = 2N): copy 2k moves
    coordinate k by +FD_STEP and copy 2k + 1 by -FD_STEP. Where each copy's value
    has the bits it has alone, the result equals `finite_diff_check`'s.
    """
    def values_at(points):
        t = Tape()
        return f(t, [t.const(np.concatenate(copies)) for copies in zip(*points)]).value

    return _central_differences(lambda tape, leaves: total(f(tape, leaves)), point, values_at)
