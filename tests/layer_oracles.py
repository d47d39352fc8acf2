"""The denoiser built from tape primitives, node by node: the oracle for the
conv-stack and head nodes of `model.BoundDenoiser`; and the forward-only
arithmetic over stacked videos, the oracle for `model.ForwardRunner`.

`encode`, `decode` and `softmax_head` build one video's stacks and heads
the way the model once did, one node per primitive (`conv1d`, the row-bias
`add_row`, the step projection's and the head's `matmul`, the residual add,
relu and softmax, and `concat_cols` in front of the decoder), so their
values and gradients follow from the primitives' own rules. The model
runs each stack and each head as one node and replays this composition's
gradient arithmetic, so on every input it must agree with these oracles to
the bit, in the value and in the gradient of every parameter and of the
condition. Over stacked videos the reference is the composition on each
video alone, with the videos' weight gradients summed left to right. The
tape primitives that only these compositions use (`matmul`, `add_row`,
`concat_cols`, `conv1d`, `softmax`) live here, with the gradient rules they
had in `autodiff`.

`packed_forward_layer` and `packed_denoiser` keep the arithmetic that
inference once ran on the tape: one matmul per tap over the zero-padded
buffer of all the stacked videos, and one head matmul over all their rows.
`model.ForwardRunner` runs it on buffers of its own and must give its bytes.
"""

from __future__ import annotations

import numpy as np

from hyptas import autodiff as td
from hyptas.autodiff import Tensor, _accumulate, _same_tape
from hyptas.errors import ShapeError
from hyptas.model import (DILATIONS, STEP_DIM, _softmax_grad, _softmax_rows,
                          sinusoidal_step_embedding)


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


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    na = a.value.shape[1]

    def push(g):
        _accumulate(a, g[:, :na])
        _accumulate(b, g[:, na:])

    return tape._register(np.concatenate([a.value, b.value], axis=1), (a, b), push)


def conv1d(x: Tensor, w: Tensor, dilation: int) -> Tensor:
    """The 'same'-padded dilated convolution of one video, x (L, Cin) by
    w (k, Cin, Cout) -> (L, Cout): tap j reads frames offset by
    (j - k//2) * dilation, and out-of-range frames read zero. Both passes
    sum one matmul per tap over a zero-padded copy of x."""
    tape = _same_tape(x, w)
    xv, wv = x.value, w.value
    k, length = wv.shape[0], xv.shape[0]
    pad = (k // 2) * dilation
    xp = np.zeros((length + 2 * pad, xv.shape[1]))
    xp[pad : pad + length] = xv
    taps = [xp[j * dilation : j * dilation + length] for j in range(k)]
    out = np.zeros((length, wv.shape[2]))
    for j, tap in enumerate(taps):
        out += tap @ wv[j]

    def push(g):
        if x.needs_grad:
            gp = np.zeros_like(xp)
            for j in range(k):
                gp[j * dilation : j * dilation + length] += g @ wv[j].T
            _accumulate(x, gp[pad : pad + length].copy())
        if w.needs_grad:
            _accumulate(w, np.stack([tap.T @ g for tap in taps]))

    return tape._register(out, (x, w), push)


def softmax(a: Tensor) -> Tensor:
    """Row-wise softmax over the class columns."""
    out = _softmax_rows(a.value.copy())

    def push(g):
        _accumulate(a, _softmax_grad(out, g))

    return a.tape._register(out, (a,), push)


def conv_layer(x, w, b, dilation, step=None, residual=False):
    """relu([x +] ((conv(x, w) + b) [+ (e @ sw + sb)])), node by node, for
    one video; `step` is (e, sw, sb) with its one (1, E) embedding e."""
    branch = add_row(conv1d(x, w, dilation), b)
    if step is not None:
        e, sw, sb = step
        branch = add_row(branch, td.add(matmul(x.tape.const(e), sw), sb))
    return td.relu(x + branch if residual else branch)


def softmax_head(h, w, b):
    """softmax(h @ w + b), node by node, for one video."""
    return softmax(add_row(matmul(h, w), b))


def _stack(bound, name, h, e=None):
    for i, dilation in enumerate(DILATIONS):
        layer = f"{name}.in" if i == 0 else f"{name}.layer{i}"
        step = None if e is None else (e, bound[f"dec.step{i}.w"], bound[f"dec.step{i}.b"])
        h = conv_layer(h, bound[f"{layer}.w"], bound[f"{layer}.b"], dilation, step, residual=i > 0)
    return h


def encode(bound: dict[str, Tensor], features: np.ndarray) -> Tensor:
    """One video's condition, from the tensors of a `BoundDenoiser.bound`."""
    return _stack(bound, "enc", bound["enc.in.w"].tape.const(features))


def decode(bound: dict[str, Tensor], y_t: Tensor, condition: Tensor, t: int) -> Tensor:
    """One video's embeddings at step t, the decoder's final-layer output."""
    return _stack(bound, "dec", concat_cols(y_t, condition), sinusoidal_step_embedding(t, STEP_DIM))


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
        return h, _softmax_rows(h @ p["dec.head.w"] + p["dec.head.b"])

    return decode
