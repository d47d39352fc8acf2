"""The denoiser layers composed from tape primitives: oracles for the fused
`autodiff.conv_layer` and `autodiff.softmax_head`.

Each function builds its layer the way the model once did, node by node, so
its value and gradients follow from the primitives' own rules. The fused
ops compute the same expressions in the same order and replay this
composition's gradient arithmetic, so on every input they must agree with
these oracles to the bit, in the value and in the gradient of every input.
The tape primitives that only these compositions use live here too, with
the gradient rules they had in `autodiff`: `matmul`, the row-bias `add_row`
and `conv1d`, a tape op over the one convolution kernel in `autodiff`.
"""

from __future__ import annotations

import numpy as np

from hyptas import autodiff as td
from hyptas.autodiff import Tensor, _accumulate, _dilated_conv, _same_tape
from hyptas.errors import ShapeError


def matmul(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    av, bv = a.value, b.value

    def push(g):
        if a.needs_grad:
            _accumulate(a, g @ bv.T)
        if b.needs_grad:
            _accumulate(b, av.T @ g)

    return tape._register(av @ bv, (a, b), push)


def add_row(a: Tensor, b: Tensor) -> Tensor:
    """a (N, C) plus the (1, C) row bias b on every row."""
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.shape != (1, av.shape[1]):
        raise ShapeError(f"add_row: unsupported shapes {av.shape} + {bv.shape}")

    def push(g):
        _accumulate(a, g)
        _accumulate(b, np.sum(g, axis=0, keepdims=True))

    return tape._register(av + bv, (a, b), push)


def conv1d(x: Tensor, w: Tensor, dilation: int = 1, rows=None) -> Tensor:
    """The bare dilated convolution x (L, Cin), w (k, Cin, Cout) -> (L, Cout)."""
    tape = _same_tape(x, w)
    out, grads = _dilated_conv(x.value, w.value, dilation, rows)

    def push(g):
        gx, gw = grads(g, x.needs_grad, w.needs_grad)
        if gx is not None:
            _accumulate(x, gx)
        if gw is not None:
            _accumulate(w, gw)

    return tape._register(out, (x, w), push)


def conv_layer(x, w, b, dilation, rows=None, step=None, residual=False):
    """relu([x +] ((conv(x, w) + b) [+ (e @ sw + sb)])), node by node."""
    branch = add_row(conv1d(x, w, dilation, rows), b)
    if step is not None:
        e, sw, sb = step
        branch = add_row(branch, td.add(matmul(x.tape.const(e), sw), sb))
    return td.relu(x + branch if residual else branch)


def softmax_head(h, w, b, rows=None):
    """softmax(h @ w + b), node by node, for one video."""
    assert rows is None or len(rows) == 1, "the composition pools the weight gradients"
    return td.softmax(add_row(matmul(h, w), b))
