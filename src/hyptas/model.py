"""Desk-scale denoiser: a dilated temporal-convolutional encoder that
produces condition features (plus an auxiliary classification head), and a
timestep-aware decoder that maps (noisy label signal, condition, step) to
per-frame embeddings and class probabilities.

Both stacks use the fixed MS-TCN layout (Farha & Gall, CVPR 2019): kernel
`KERNEL` at dilations `DILATIONS`, and the decoder adds a projection of the
`STEP_DIM`-wide sinusoidal step embedding to every layer. Only the widths
vary, so a `DenoiserConfig` holds the input, output and hidden widths alone.
One class, `_Stack`, runs the forward of every layer (convolution, bias,
step projection, residual, relu) on zero-padded buffers of its own, and
holds the stack's backward beside it. A training pass stacks its videos in
time (a lone video is a stack of one) and passes their frame counts `rows`
and one step per video; `BoundDenoiser.encode` and `decode` each record
their stack as one tape node and their classification head as another, so
a trainable encode + decode records 4 nodes, however many videos it stacks,
each decoded at its own step. Inference runs the same stacks without a
tape: a `ForwardRunner` builds them for one set of videos, encodes them
once and decodes all of them at one step per sampler step.

Every sampler step and training step runs this module's numpy calls, on
arrays of about 100 x 32, so it calls the ufuncs that numpy's Python
wrappers call (`np.add.reduce` for `np.sum`, `np.maximum.reduce` for
`np.max`, `np.zeros` for `np.zeros_like`, slices for `np.split`): the same
loops in the same order, so the same bits, without a few microseconds of
wrapper per call. `tests/test_ufunc_forms.py` keeps it so.

The decoder's final-layer output, before the classification head, is the
embedding the hyperbolic losses supervise. Condition masking implements the
position / boundary / relation priors by zeroing rows of the condition
inside the graph, so masked frames contribute no encoder gradient; the
boundary prior's half-width is fixed too (`BOUNDARY_HALFWIDTH`).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as td
from .autodiff import Tape, Tensor, _accumulate, _in_order
from .errors import ShapeError
from .metrics import Segment

MASK_KINDS = ("none", "position", "boundary", "relation")
DILATIONS = (1, 2, 4, 8)
KERNEL = 3
STEP_DIM = 64
BOUNDARY_HALFWIDTH = 2


@dataclass(frozen=True)
class DenoiserConfig:
    feature_dim: int
    classes: int
    embed_dim: int = 16
    encoder_channels: int = 32

    def __post_init__(self):
        for name in ("feature_dim", "classes", "embed_dim", "encoder_channels"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be positive, got {getattr(self, name)}")


@functools.lru_cache(maxsize=4096)  # every t of a T = 1000 schedule, at one dim
def sinusoidal_step_embedding(t: int, dim: int) -> np.ndarray:
    """(1, dim) sin/cos features of the integer timestep; cached per (t, dim)
    and returned read-only, since every decoder call at step t reuses it."""
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = t * freqs
    emb = np.concatenate([np.sin(angles), np.cos(angles)])
    if emb.shape[0] < dim:
        emb = np.concatenate([emb, np.zeros(dim - emb.shape[0])])
    emb = emb[None, :]
    emb.flags.writeable = False
    return emb


def _softmax_rows(val: np.ndarray) -> np.ndarray:
    """Softmax of each row of the logits `val`, which it overwrites with the
    shifted exponentials: only the returned quotient is a new array.

    The row max is taken on a column-major copy, where numpy reduces all
    rows at once rather than one short row at a time. A max is exact in any
    order, and the sign of a zero max cannot reach the output (v - (+-0) = v,
    exp(+-0) = 1). The row sums stay over the row-major rows, whose order
    sets their bits."""
    val -= np.maximum.reduce(np.asfortranarray(val), axis=1, keepdims=True)
    np.exp(val, out=val)
    return val / np.add.reduce(val, axis=1, keepdims=True)


def _softmax_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of the logits from g, the gradient of softmax rows `out`."""
    return out * (g - np.add.reduce(g * out, axis=1, keepdims=True))


def _layer_name(stack: str, i: int) -> str:
    return f"{stack}.in" if i == 0 else f"{stack}.layer{i}"


def _glorot(rng, shape, fan_in, fan_out):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Denoiser:
    """Parameter container; training passes are built on a caller-owned tape,
    inference runs in a `ForwardRunner`. `params` maps each name to its view
    of one float64 buffer, `flat`."""

    def __init__(self, config: DenoiserConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        k, ch, d = KERNEL, config.encoder_channels, config.embed_dim
        params: dict[str, np.ndarray] = {}

        for stack, cin, cout in (("enc", config.feature_dim, ch), ("dec", config.classes + ch, d)):
            for i in range(len(DILATIONS)):
                name, width = _layer_name(stack, i), cin if i == 0 else cout
                params[f"{name}.w"] = _glorot(rng, (k, width, cout), k * width, cout)
                # small positive bias keeps every relu channel initially live
                params[f"{name}.b"] = np.full((1, cout), 0.01)
            if stack == "dec":
                for i in range(len(DILATIONS)):
                    params[f"dec.step{i}.w"] = _glorot(rng, (STEP_DIM, d), STEP_DIM, d)
                    params[f"dec.step{i}.b"] = np.zeros((1, d))
            params[f"{stack}.head.w"] = _glorot(rng, (cout, config.classes), cout, config.classes)
            params[f"{stack}.head.b"] = np.zeros((1, config.classes))
        self._shapes = {name: arr.shape for name, arr in params.items()}
        self.flat = np.concatenate([arr.ravel() for arr in params.values()])
        self.params = self.views(self.flat)

    def views(self, buffer: np.ndarray) -> dict[str, np.ndarray]:
        """Name -> view of a buffer laid out like `flat`, such as a gradient sum."""
        views, offset = {}, 0
        for name, shape in self._shapes.items():
            size = math.prod(shape)
            views[name] = buffer[offset : offset + size].reshape(shape)
            offset += size
        return views

    def bind(self, tape: Tape, trainable: bool = True) -> "BoundDenoiser":
        """Place the parameters on a tape, as leaves (training) or constants."""
        attach = tape.leaf if trainable else tape.const
        bound = {name: attach(arr, name=name) for name, arr in self.params.items()}
        return BoundDenoiser(self.config, tape, bound)


def _matmul_rows(a: np.ndarray, b: np.ndarray, spans) -> np.ndarray:
    """a @ b with one matmul per video's rows of a, so that each video gets
    the bits of its own matmul (a row of a BLAS matmul can change in its
    last bits with the matmul's row count)."""
    return a @ b if len(spans) == 1 else np.concatenate([a[lo:hi] @ b for lo, hi in spans])


def _checked_features(features, config: DenoiserConfig) -> np.ndarray:
    """Features (L, D) as float64, refused unless L > 0, D is the model's
    feature_dim and every value is finite."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != config.feature_dim:
        raise ShapeError(f"features {features.shape} do not match feature_dim {config.feature_dim}")
    if features.shape[0] == 0:
        raise ShapeError("a video needs at least one frame")
    if not np.all(np.isfinite(features)):
        raise ShapeError("non-finite features")
    return features


@dataclass
class BoundDenoiser:
    """Forward passes over bound parameters. Every pass takes the frame
    counts `rows` of the videos stacked in its inputs ((L,) for one video),
    runs its conv stack as one tape node over a `_Stack`, whose backward the
    node calls, and its classification head as one node."""

    config: DenoiserConfig
    tape: Tape
    bound: dict[str, Tensor]

    def _pass(self, stack: str, inputs: Sequence[Tensor], rows: Sequence[int], es=None):
        """The conv stack over the columns of `inputs` side by side, one node
        whose parents are `inputs` and the stack's parameters, and its
        classification head softmax(h @ w + b), one node: (h, probabilities).

        Both run each matmul over rows per video, and w and b get the
        videos' own gradients summed left to right."""
        spans = td._spans(rows, inputs[0].value.shape[0])
        params = {n: t for n, t in self.bound.items() if n.startswith(stack) and ".head." not in n}
        net = _Stack({n: t.value for n, t in params.items()}, stack, rows, per_video=True)
        cols = [0, *itertools.accumulate(t.value.shape[1] for t in inputs)]
        for t, col in zip(inputs, cols):
            net.write(t.value, col)
        out = np.empty((sum(rows), net.layers[-1].w.shape[2]))
        net.forward(es, out, net.frame_starts)

        def push(g):
            grads, gx = net.backward(g, out, es, any(t.needs_grad for t in inputs))
            for name, grad in grads.items():
                _accumulate(params[name], grad)
            if gx is not None:
                for t, lo, hi in zip(inputs, cols, cols[1:]):
                    _accumulate(t, gx[:, lo:hi])

        h = self.tape._register(out, (*inputs, *params.values()), push)
        w, b = self.bound[f"{stack}.head.w"], self.bound[f"{stack}.head.b"]
        logits = _matmul_rows(out, w.value, spans)
        logits += b.value
        probs = _softmax_rows(logits)

        def head_push(g):
            gz = _softmax_grad(probs, g)
            _accumulate(b, _in_order([np.add.reduce(gz[lo:hi], axis=0, keepdims=True)
                                      for lo, hi in spans]))
            _accumulate(h, _matmul_rows(gz, w.value.T, spans))
            _accumulate(w, _in_order([out[lo:hi].T @ gz[lo:hi] for lo, hi in spans]))

        return h, self.tape._register(probs, (h, w, b), head_push)

    def encode(self, features: np.ndarray, rows: Sequence[int]) -> tuple[Tensor, Tensor]:
        """Features (L, D) -> (condition (L, channels), encoder probabilities (L, C))."""
        return self._pass("enc", [self.tape.const(_checked_features(features, self.config))], rows)

    def decode(
        self, y_t: Tensor, condition: Tensor, t: Sequence[int], rows: Sequence[int]
    ) -> tuple[Tensor, Tensor]:
        """(noisy signal (L, C), condition (L, channels), steps) -> (embeddings, probabilities).

        `t` holds one step per video of `rows`: in training each video
        draws its own. The returned embeddings are the final layer's output
        before the classification head.
        """
        cfg, signal = self.config, y_t.value.shape
        if signal[1] != cfg.classes or condition.value.shape != (signal[0], cfg.encoder_channels):
            raise ShapeError(f"signal {signal} and condition {condition.value.shape} do not "
                             f"match {cfg.classes} classes and {cfg.encoder_channels} channels")
        if len(t) != len(rows):
            raise ShapeError(f"{len(t)} steps for {len(rows)} videos")
        es = [sinusoidal_step_embedding(int(tv), STEP_DIM) for tv in t]
        return self._pass("dec", [y_t, condition], rows, es)


class _Layer:
    """Convolution layer i of a `_Stack`: its parameters, the zero-padded
    buffer of its input, in which video v's frames start at row frames[v],
    and views of the stack's scratch `acc` and `tap` over its span."""

    def __init__(self, params, stack: str, i: int, rows, frame_starts, per_video: bool, acc, tap):
        self.name = _layer_name(stack, i)
        self.w, b = params[f"{self.name}.w"], params[f"{self.name}.b"]
        self.step = (params[f"dec.step{i}.w"], params[f"dec.step{i}.b"]) if stack == "dec" else None
        self.residual, self.dilation = i > 0, DILATIONS[i]
        self.pad = (KERNEL // 2) * self.dilation
        self.span = sum(rows) + self.pad * (len(rows) - 1)  # the rows between the outer pads
        # An inference decoder layer runs once per sampler step, where adding
        # a bias of full rows is faster than broadcasting it.
        self.bias = b if per_video or self.step is None else np.repeat(b, self.span, axis=0)
        # each video's first row in the span, and its frames
        self.videos = [(lo + self.pad * v, n) for v, (lo, n) in enumerate(zip(frame_starts, rows))]
        self.frames = [s + self.pad for s, _ in self.videos]
        self.inputs = np.zeros((self.span + 2 * self.pad, self.w.shape[1]))
        self.z, d = acc[: self.span], self.dilation
        # Per window of the tap matmuls (each video's, or the whole span), its
        # taps' input rows and its rows of z and tap, viewed once here rather
        # than at every sampler step.
        self.windows = [([self.inputs[s + j * d : s + j * d + n] for j in range(KERNEL)],
                         self.z[s : s + n], tap[s : s + n])
                        for s, n in (self.videos if per_video else [(0, self.span)])]


class _Stack:
    """One conv stack of the denoiser, the encoder's or the decoder's
    `len(DILATIONS)` layers, over videos of `rows` frames stacked in time:
    the only implementation of a layer's forward, with the stack's backward
    beside it.

    Each layer owns `inputs`, a zero-padded buffer of its input: pad =
    (KERNEL // 2) * dilation zero rows before, between and after the videos,
    so no tap reads across a video boundary (a tap reaches at most pad rows
    past a video's edge). A layer writes its relu output into the videos'
    rows of the next layer's buffer, so pad rows are never written and stay
    zero. The layers share two scratch arrays, `acc` and `tap`, whose rows
    between the videos are never read.

    Forward, each layer sums one matmul per tap, tap by tap (the first tap
    assigned: a matmul's sums start at +0.0, so a tap is never -0.0 and
    0.0 + tap is tap; one im2col matmul would reorder the sums and change
    the bits); then, in place, it adds b, the step projection e @ sw + sb and
    the residual input, and applies relu as z * (z > 0), which keeps -0.0
    for a negative z (np.maximum would not). Every op after the matmuls is
    row-local, so the rows between the videos cost a little arithmetic and
    no bits. A row of a BLAS matmul can change in its last bits with the
    matmul's row count, so the stack of a `BoundDenoiser` pass (training)
    runs each tap's matmul over each video's window, which gives every
    video the bits of a tape of its own, and adds each video's own step
    projection; the stacks of a `ForwardRunner` (inference, no tape) run it
    once over the whole span, with one step for all videos.

    The backward walks the same buffers from the last layer down. Each relu
    mask is read back as output > 0, from the next layer's input. A layer's
    input gradient is the convolution's, tap by tap per video into a zeroed
    buffer in the input's layout, plus the residual's: the tape formed
    residual + convolution, the same bits. Every weight, bias and
    step-projection gradient is taken per video over its own rows, and the
    videos' parts are summed left to right.
    """

    def __init__(self, params: Mapping[str, np.ndarray], stack: str, rows: Sequence[int],
                 per_video: bool):
        self.rows = tuple(rows)
        self.frame_starts = [0, *itertools.accumulate(self.rows)][:-1]
        widest = sum(self.rows) + (KERNEL // 2) * max(DILATIONS) * (len(self.rows) - 1)
        shape = (widest, params[f"{stack}.in.w"].shape[2])
        acc, tap = np.zeros(shape), np.zeros(shape)
        self.layers = [_Layer(params, stack, i, self.rows, self.frame_starts, per_video, acc, tap)
                       for i in range(len(DILATIONS))]

    def write(self, x: np.ndarray | Sequence[np.ndarray], col: int = 0) -> None:
        """Copy each video's rows into the first layer's buffer, from column
        `col` on: x is the videos' rows stacked like the stack's videos, or
        a sequence of each video's rows, in order."""
        first = self.layers[0]
        if isinstance(x, np.ndarray):
            x = [x[s : s + n] for s, n in zip(self.frame_starts, self.rows)]
        for f, video in zip(first.frames, x):
            first.inputs[f : f + video.shape[0], col : col + video.shape[1]] = video

    def forward(self, es, out: np.ndarray, out_starts: Sequence[int]) -> None:
        """Run the layers in turn, each writing its output into the next
        one's inputs and the last into the rows of `out` at `out_starts`. A
        decoder's `es` holds one step embedding per window."""
        for i, layer in enumerate(self.layers):
            z = layer.z
            for taps, zw, tw in layer.windows:
                np.matmul(taps[0], layer.w[0], out=zw)
                for j in range(1, KERNEL):
                    np.matmul(taps[j], layer.w[j], out=tw)
                    zw += tw
            z += layer.bias
            if layer.step is not None:
                sw, sb = layer.step
                for (_, zw, _), e in zip(layer.windows, es):
                    zw += e @ sw + sb
            if layer.residual:
                z += layer.inputs[layer.pad : layer.pad + layer.span]
            dst, starts = (out, out_starts) if i + 1 == len(self.layers) else (
                self.layers[i + 1].inputs, self.layers[i + 1].frames)
            if len(self.rows) == 1:
                np.multiply(z, z > 0.0, out=dst[starts[0] : starts[0] + layer.span])
            else:
                np.multiply(z, z > 0.0, out=z)
                for start, (s, n) in zip(starts, layer.videos):
                    dst[start : start + n] = z[s : s + n]

    def backward(self, g: np.ndarray, out: np.ndarray, es, input_grad: bool):
        """From g, the gradient of `out` (the last forward's output, its videos
        stacked): the gradients {parameter name: gradient}, and the gradient
        of the first layer's input (its videos stacked) if `input_grad`, else
        None. Only a per-video stack has one: it reuses the tap views of its
        windows, which are its videos in order."""
        grads: dict[str, np.ndarray] = {}
        g, g_starts = g * (out > 0.0), self.frame_starts
        for i in reversed(range(len(self.layers))):
            layer = self.layers[i]
            d, parts = layer.dilation, [(s, gs, n) for (s, n), gs in zip(layer.videos, g_starts)]
            gsums = [np.add.reduce(g[gs : gs + n], axis=0, keepdims=True) for _, gs, n in parts]
            grads[f"{layer.name}.b"] = _in_order(gsums)
            if layer.step is not None:
                grads[f"dec.step{i}.w"] = _in_order([e.T @ gv for e, gv in zip(es, gsums)])
                grads[f"dec.step{i}.b"] = grads[f"{layer.name}.b"]
            gw = [np.empty_like(layer.w) for _ in parts]
            for part, (taps, _, _), (_, gs, n) in zip(gw, layer.windows, parts):
                for j in range(KERNEL):
                    np.matmul(taps[j].T, g[gs : gs + n], out=part[j])
            grads[f"{layer.name}.w"] = _in_order(gw)
            if i == 0 and not input_grad:
                return grads, None
            gx = np.zeros(layer.inputs.shape)
            for s, gs, n in parts:
                for j in range(KERNEL):
                    gx[s + j * d : s + j * d + n] += g[gs : gs + n] @ layer.w[j].T
            if i == 0:
                videos = zip(layer.frames, self.rows)
                return grads, np.concatenate([gx[f : f + n] for f, n in videos])
            for f, (_, gs, n) in zip(layer.frames, parts):  # the residual's gradient
                gx[f : f + n] += g[gs : gs + n]
            g, g_starts = gx * (layer.inputs > 0.0), layer.frames


class ForwardRunner:
    """The denoiser forward without a tape, for inference: the videos are
    encoded once when the runner is built, and each `decode` is one sampler
    step over all of them, stacked in time.

    Its stacks run each tap's matmul once over the whole span, and every
    video at the one step of the sampler. Each video's features go straight
    into the encoder's first buffer. The encoder's buffers live only while
    it encodes; its output goes once into the condition columns of the
    decoder's first buffer, and a decode writes only the signal's C
    columns. The decoder's output rows are the embeddings, and its head is
    softmax(h @ w + b), one matmul over all frames into the runner's logits
    buffer, where the softmax runs in place up to its final divide, so no
    returned array aliases a buffer. The encoder's classification head,
    which inference never reads, is skipped.
    """

    def __init__(self, model: Denoiser, videos: Sequence[np.ndarray]):
        cfg, p = model.config, model.params
        videos = [_checked_features(f, cfg) for f in videos]
        self.rows = tuple(f.shape[0] for f in videos)
        self.classes = cfg.classes
        encoder = _Stack(p, "enc", self.rows, per_video=False)
        self.decoder = _Stack(p, "dec", self.rows, per_video=False)
        self.head = (p["dec.head.w"], p["dec.head.b"])
        # The last decode's final-layer output, before the head, and its logits.
        self.embeddings = np.empty((sum(self.rows), cfg.embed_dim))
        self.logits = np.empty((sum(self.rows), cfg.classes))
        encoder.write(videos)
        first = self.decoder.layers[0]
        encoder.forward(None, first.inputs[:, cfg.classes :], first.frames)

    def decode(self, y_t: np.ndarray, t: int) -> np.ndarray:
        """One sampler step: noisy signal (L, C) at step t -> probabilities (L, C)."""
        if y_t.shape != (sum(self.rows), self.classes):
            raise ShapeError(
                f"signal {y_t.shape} for {sum(self.rows)} frames of {self.classes} classes"
            )
        self.decoder.write(y_t)
        self.decoder.forward([sinusoidal_step_embedding(t, STEP_DIM)], self.embeddings,
                             self.decoder.frame_starts)
        w, b = self.head
        np.matmul(self.embeddings, w, out=self.logits)
        self.logits += b
        return _softmax_rows(self.logits)


def mask_vector(
    kind: str,
    segments: list[Segment],
    length: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(L, 1) keep-mask implementing one conditioning prior.

    none: all ones. position: all zeros. boundary: zeros within
    +/- BOUNDARY_HALFWIDTH of each internal segment boundary (the first frame
    of every segment after the first). relation: zeros over one uniformly
    chosen segment.
    """
    if kind not in MASK_KINDS:
        raise ShapeError(f"unknown mask kind {kind!r}; expected one of {MASK_KINDS}")
    keep = np.ones((length, 1))
    if kind == "none":
        return keep
    if kind == "position":
        return np.zeros((length, 1))
    if kind == "boundary":
        for seg in segments[1:]:
            lo = max(seg.start - BOUNDARY_HALFWIDTH, 0)
            hi = min(seg.start + BOUNDARY_HALFWIDTH, length - 1)
            keep[lo : hi + 1] = 0.0
        return keep
    seg = segments[int(rng.integers(0, len(segments)))]
    keep[seg.start : seg.end + 1] = 0.0
    return keep


def apply_masking(condition: Tensor, keep: np.ndarray) -> Tensor:
    """Zero the condition rows whose (L, 1) keep-mask entry is 0, with the
    masks of stacked videos stacked alike. A row kept scales by 1.0, which
    keeps its value and gradient bits. Labels and signals are untouched."""
    return td.mul(condition, keep)


def sample_mask_kind(rng: np.random.Generator) -> str:
    """Uniform draw over the four priors, one per training example."""
    return MASK_KINDS[int(rng.integers(0, len(MASK_KINDS)))]
