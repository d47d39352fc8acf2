"""The denoiser layers composed from tape primitives: oracles for the fused
`autodiff.conv_layer` and `autodiff.softmax_head`; and the forward-only
arithmetic over stacked videos, the oracle for `model.ForwardRunner`.

Each function builds its layer the way the model once did, node by node, so
its value and gradients follow from the primitives' own rules. The fused
ops compute the same expressions in the same order and replay this
composition's gradient arithmetic, so on every input they must agree with
these oracles to the bit, in the value and in the gradient of every input.
The tape primitives that only these compositions use live here too, with
the gradient rules they had in `autodiff`: `matmul`, the row-bias `add_row`
and `conv1d`, a tape op over the one convolution kernel in `autodiff`.

`packed_forward_layer` and `packed_denoiser` keep the arithmetic that
inference once ran on the tape: one matmul per tap over the zero-padded
buffer of all the stacked videos, and one head matmul over all their rows.
`model.ForwardRunner` runs it on buffers of its own and must give its bytes.
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


def conv1d(x: Tensor, w: Tensor, dilation: int, rows) -> Tensor:
    """The bare dilated convolution x (L, Cin), w (k, Cin, Cout) -> (L, Cout)
    over the videos of `rows` frames stacked in x."""
    tape = _same_tape(x, w)
    out, grads = _dilated_conv(x.value, w.value, dilation, rows)

    def push(g):
        gx, gw = grads(g, x.needs_grad, w.needs_grad)
        if gx is not None:
            _accumulate(x, gx)
        if gw is not None:
            _accumulate(w, gw)

    return tape._register(out, (x, w), push)


def conv_layer(x, w, b, dilation, rows, step=None, residual=False):
    """relu([x +] ((conv(x, w) + b) [+ (e @ sw + sb)])), node by node, for one
    video: rows = (L,), and the step's e a list of its one embedding."""
    assert len(rows) == 1, "the composition adds one step projection to every row"
    branch = add_row(conv1d(x, w, dilation, rows), b)
    if step is not None:
        (e,), sw, sb = step
        branch = add_row(branch, td.add(matmul(x.tape.const(e), sw), sb))
    return td.relu(x + branch if residual else branch)


def softmax_head(h, w, b, rows):
    """softmax(h @ w + b), node by node, for one video: rows = (L,)."""
    assert len(rows) == 1, "the composition pools the weight gradients"
    return td.softmax(add_row(matmul(h, w), b))


def packed_forward_layer(xv, w, b, dilation, rows, step=None, residual=False):
    """A denoiser layer's forward over the stacked videos of `rows`, with the
    arithmetic the forward-only tape op had: each tap's matmul over the whole
    zero-padded buffer of all the videos, the valid rows gathered, then
    relu([x +] ((conv + b) [+ (e @ sw + sb)]))."""
    k, length = w.shape[0], xv.shape[0]
    pad = (k // 2) * dilation
    span = length + pad * (len(rows) - 1)
    offsets = np.cumsum((0,) + tuple(rows[:-1])) + pad * np.arange(len(rows))
    valid = np.concatenate([np.arange(o, o + n) for o, n in zip(offsets, rows)])
    xp = np.zeros((span + 2 * pad, xv.shape[1]))
    xp[valid + pad] = xv
    out = np.zeros((span, w.shape[2]))
    for j in range(k):
        out += xp[j * dilation : j * dilation + span] @ w[j]
    z = out[valid] + b
    if step is not None:
        e, sw, sb = step
        z = z + (e @ sw + sb)
    if residual:
        z = xv + z
    return z * (z > 0.0)


def packed_denoiser(model, videos):
    """Encode the videos stacked in time with `packed_forward_layer`; returns
    `decode(y_t, t) -> (embeddings, probabilities)` over all their rows, the
    head one matmul over all of them."""
    from hyptas.model import DILATIONS, STEP_DIM, sinusoidal_step_embedding

    p, rows = model.params, tuple(v.shape[0] for v in videos)

    def stack(name, h, e=None):
        for i, dilation in enumerate(DILATIONS):
            layer = f"{name}.in" if i == 0 else f"{name}.layer{i}"
            step = None if e is None else (e, p[f"dec.step{i}.w"], p[f"dec.step{i}.b"])
            h = packed_forward_layer(h, p[f"{layer}.w"], p[f"{layer}.b"], dilation, rows,
                                     step, residual=i > 0)
        return h

    condition = stack("enc", np.concatenate(videos))

    def decode(y_t, t):
        h = stack("dec", np.concatenate([y_t, condition], axis=1),
                  sinusoidal_step_embedding(t, STEP_DIM))
        return h, td._softmax_rows(h @ p["dec.head.w"] + p["dec.head.b"])

    return decode
