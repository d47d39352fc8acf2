"""Desk-scale denoiser: a dilated temporal-convolutional encoder that
produces condition features (plus an auxiliary classification head), and a
timestep-aware decoder that maps (noisy label signal, condition, step) to
per-frame embeddings and class probabilities.

Both stacks use the fixed MS-TCN layout (Farha & Gall, CVPR 2019): kernel
`KERNEL` at dilations `DILATIONS`, and the decoder adds a projection of the
`STEP_DIM`-wide sinusoidal step embedding to every layer. Only the widths
vary, so a `DenoiserConfig` holds the input, output and hidden widths alone.
In training, each layer (convolution, bias, step projection, residual,
relu) is one `autodiff.conv_layer` tape op and each classification head one
`autodiff.softmax_head`. A training pass stacks its videos in time (a lone
video is a stack of one) and passes their frame counts `rows` and one step
per video, so a trainable encode + decode records 11 nodes, however many
videos it stacks, each decoded at its own step. Inference runs the same
arithmetic without a tape: a `ForwardRunner` owns padded numpy buffers for
one set of videos, encodes them once and decodes all of them at one step
per sampler step.

The decoder's final-layer output, before the classification head, is the
embedding the hyperbolic losses supervise. Condition masking implements the
position / boundary / relation priors by zeroing rows of the condition
inside the graph, so masked frames contribute no encoder gradient; the
boundary prior's half-width is fixed too (`BOUNDARY_HALFWIDTH`).
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as td
from .autodiff import Tape, Tensor
from .errors import ShapeError
from .metrics import Segment

logger = logging.getLogger(__name__)

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

        def conv_init(name, cin, cout):
            params[f"{name}.w"] = _glorot(rng, (k, cin, cout), k * cin, cout)
            # small positive bias keeps every relu channel initially live
            params[f"{name}.b"] = np.full((1, cout), 0.01)

        conv_init("enc.in", config.feature_dim, ch)
        for i in range(1, len(DILATIONS)):
            conv_init(f"enc.layer{i}", ch, ch)
        params["enc.head.w"] = _glorot(rng, (ch, config.classes), ch, config.classes)
        params["enc.head.b"] = np.zeros((1, config.classes))

        conv_init("dec.in", config.classes + ch, d)
        for i in range(1, len(DILATIONS)):
            conv_init(f"dec.layer{i}", d, d)
        for i in range(len(DILATIONS)):
            params[f"dec.step{i}.w"] = _glorot(rng, (STEP_DIM, d), STEP_DIM, d)
            params[f"dec.step{i}.b"] = np.zeros((1, d))
        params["dec.head.w"] = _glorot(rng, (d, config.classes), d, config.classes)
        params["dec.head.b"] = np.zeros((1, config.classes))
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


class BoundDenoiser:
    """Forward passes over bound parameters. Every pass takes the frame
    counts `rows` of the videos stacked in its inputs ((L,) for one video);
    every layer is row-local except the convolution inside each
    `conv_layer`, which gets `rows` so that no tap reads across a video
    boundary."""

    def __init__(self, config: DenoiserConfig, tape: Tape, bound: dict[str, Tensor]):
        self.config = config
        self.tape = tape
        self.bound = bound

    def _layer(self, stack: str, i: int, x: Tensor, rows, step=None) -> Tensor:
        name = f"{stack}.in" if i == 0 else f"{stack}.layer{i}"
        return td.conv_layer(
            x, self.bound[f"{name}.w"], self.bound[f"{name}.b"], DILATIONS[i], rows,
            step=step, residual=i > 0,
        )

    def encode(self, features: np.ndarray, rows: Sequence[int]) -> tuple[Tensor, Tensor]:
        """Features (L, D) -> (condition (L, channels), encoder probabilities (L, C))."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.config.feature_dim:
            raise ShapeError(
                f"features {features.shape} do not match feature_dim {self.config.feature_dim}"
            )
        if not np.all(np.isfinite(features)):
            raise ShapeError("non-finite features")
        h = self.tape.const(features)
        for i in range(len(DILATIONS)):
            h = self._layer("enc", i, h, rows)
        p_enc = td.softmax_head(h, self.bound["enc.head.w"], self.bound["enc.head.b"], rows)
        return h, p_enc

    def decode(
        self, y_t: Tensor, condition: Tensor, t: Sequence[int], rows: Sequence[int]
    ) -> tuple[Tensor, Tensor]:
        """(noisy signal (L, C), condition (L, channels), steps) -> (embeddings, probabilities).

        `t` holds one step per video of `rows`: in training each video
        draws its own. The returned embeddings are the final layer's output
        before the classification head.
        """
        if y_t.value.shape[0] != condition.value.shape[0]:
            raise ShapeError(
                f"signal rows {y_t.value.shape[0]} vs condition rows {condition.value.shape[0]}"
            )
        if y_t.value.shape[1] != self.config.classes:
            raise ShapeError(f"signal {y_t.value.shape} does not match classes {self.config.classes}")
        e = [sinusoidal_step_embedding(int(tv), STEP_DIM) for tv in t]
        h = td.concat_cols(y_t, condition)
        for i in range(len(DILATIONS)):
            step = (e, self.bound[f"dec.step{i}.w"], self.bound[f"dec.step{i}.b"])
            h = self._layer("dec", i, h, rows, step)
        probs = td.softmax_head(h, self.bound["dec.head.w"], self.bound["dec.head.b"], rows)
        return h, probs


def _copy_rows(dst, dst_starts, src, src_starts, rows) -> None:
    """Copy each video's rows of `src` to `dst`, the slice at one start to the
    slice at the other."""
    for d, s, n in zip(dst_starts, src_starts, rows):
        dst[d : d + n] = src[s : s + n]


@dataclass
class _BufferedLayer:
    """One convolution layer of a `ForwardRunner` and its buffers.

    `inputs` holds the videos in `_dilated_conv`'s zero-padded layout; `acc`
    and `tap` span its rows between the outer pads, in the same layout, and
    their rows between the videos are never read. They are scratch, views of
    memory that every layer of the runner shares."""

    w: np.ndarray
    bias: np.ndarray  # b, or for a decoder layer b repeated on every row of `acc`
    step: tuple[np.ndarray, np.ndarray] | None  # (sw, sb) of a decoder layer
    residual: bool
    dilation: int
    starts: list[int]  # each video's first row in `acc`
    frames: list[int]  # each video's first row in `inputs`
    inputs: np.ndarray
    acc: np.ndarray
    tap: np.ndarray


class ForwardRunner:
    """The denoiser forward without a tape, for inference: the videos are
    encoded once when the runner is built, and each `decode` is one sampler
    step over all of them, stacked in time.

    The runner owns one zero-padded input buffer per convolution layer (an
    encoder layer's only while it encodes), in `_dilated_conv`'s layout:
    pad = (KERNEL // 2) * dilation zero rows before, between and after the
    videos. A layer writes its relu output into the videos' rows of the next
    layer's buffer, so pad rows are never written and stay zero across
    steps. The encoder's output goes once into the condition columns of the
    decoder's first buffer; a decode writes only the signal's C columns.

    The arithmetic is that of the tape ops' forward over all rows at once.
    Each layer sums one matmul per tap over the whole buffer span (the
    first tap assigned: a matmul's sums start at +0.0, so a tap is never
    -0.0 and 0.0 + tap is tap); then, in place, it adds b, the step
    projection e @ sw + sb and the residual input, and applies relu as
    z * (z > 0), which keeps -0.0 for a negative z (np.maximum would not).
    Every op after the matmuls is row-local, so the rows between the
    videos cost a little arithmetic and no bits. The decoder's output rows
    are gathered for the head, softmax(h @ w + b), one matmul over all
    frames. The encoder's classification head, which inference never
    reads, is skipped.
    """

    def __init__(self, model: Denoiser, videos: Sequence[np.ndarray]):
        cfg = model.config
        for f in videos:
            if f.ndim != 2 or f.shape[1] != cfg.feature_dim:
                raise ShapeError(
                    f"features {f.shape} do not match checkpoint feature_dim {cfg.feature_dim}"
                )
            if f.shape[0] == 0:
                raise ShapeError("a video needs at least one frame")
            if not np.all(np.isfinite(f)):
                raise ShapeError("non-finite features")
        self.rows = tuple(f.shape[0] for f in videos)
        self.frame_starts = [0, *itertools.accumulate(self.rows)][:-1]
        p, ch, d = model.params, cfg.encoder_channels, cfg.embed_dim
        self.classes = cfg.classes
        widest = sum(self.rows) + (KERNEL // 2) * max(DILATIONS) * (len(self.rows) - 1)
        self._scratch = [np.empty(widest * max(ch, d)) for _ in range(2)]
        encoder = [
            self._layer(p, "enc", i, cfg.feature_dim if i == 0 else ch, ch)
            for i in range(len(DILATIONS))
        ]
        self.decoder = [
            self._layer(p, "dec", i, cfg.classes + ch if i == 0 else d, d)
            for i in range(len(DILATIONS))
        ]
        self.head = (p["dec.head.w"], p["dec.head.b"])
        # The last decode's final-layer output, before the head.
        self.embeddings = np.empty((sum(self.rows), d))
        for f, start in zip(videos, encoder[0].frames):
            encoder[0].inputs[start : start + f.shape[0]] = f
        dec = self.decoder[0]
        self._stack(encoder, None, dec.inputs[:, cfg.classes :], dec.frames)

    def _layer(self, params, stack: str, i: int, cin: int, cout: int) -> _BufferedLayer:
        name = f"{stack}.in" if i == 0 else f"{stack}.layer{i}"
        step = (params[f"dec.step{i}.w"], params[f"dec.step{i}.b"]) if stack == "dec" else None
        dilation = DILATIONS[i]
        pad = (KERNEL // 2) * dilation
        span = sum(self.rows) + pad * (len(self.rows) - 1)
        starts = [lo + pad * v for v, lo in enumerate(self.frame_starts)]
        # A decoder layer runs once per step, where adding a bias of full
        # rows is faster than broadcasting it; the encoder runs once.
        bias = params[f"{name}.b"]
        if step is not None:
            bias = np.repeat(bias, span, axis=0)
        acc, tap = (buffer[: span * cout].reshape(span, cout) for buffer in self._scratch)
        return _BufferedLayer(
            w=params[f"{name}.w"], bias=bias, step=step, residual=i > 0,
            dilation=dilation, starts=starts, frames=[s + pad for s in starts],
            inputs=np.zeros((span + 2 * pad, cin)), acc=acc, tap=tap,
        )

    def _stack(self, layers: list[_BufferedLayer], e: np.ndarray | None, out, out_starts) -> None:
        """Run the layers in turn, each writing its output into the next
        one's inputs and the last into the rows of `out` at `out_starts`."""
        for i, layer in enumerate(layers):
            span, pad = layer.acc.shape[0], layer.dilation * (KERNEL // 2)
            z = layer.acc
            np.matmul(layer.inputs[:span], layer.w[0], out=z)
            for j in range(1, KERNEL):
                s = j * layer.dilation
                np.matmul(layer.inputs[s : s + span], layer.w[j], out=layer.tap)
                z += layer.tap
            z += layer.bias
            if layer.step is not None:
                sw, sb = layer.step
                z += e @ sw + sb
            if layer.residual:
                z += layer.inputs[pad : pad + span]
            dst, starts = (out, out_starts) if i + 1 == len(layers) else (
                layers[i + 1].inputs, layers[i + 1].frames)
            if len(self.rows) == 1:
                np.multiply(z, z > 0.0, out=dst[starts[0] : starts[0] + span])
            else:
                np.multiply(z, z > 0.0, out=z)
                _copy_rows(dst, starts, z, layer.starts, self.rows)

    def decode(self, y_t: np.ndarray, t: int) -> np.ndarray:
        """One sampler step: noisy signal (L, C) at step t -> probabilities (L, C)."""
        if y_t.shape != (sum(self.rows), self.classes):
            raise ShapeError(
                f"signal {y_t.shape} for {sum(self.rows)} frames of {self.classes} classes"
            )
        first = self.decoder[0]
        _copy_rows(first.inputs[:, : self.classes], first.frames, y_t, self.frame_starts, self.rows)
        self._stack(self.decoder, sinusoidal_step_embedding(t, STEP_DIM),
                    self.embeddings, self.frame_starts)
        w, b = self.head
        return td._softmax_rows(self.embeddings @ w + b)


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
    chosen segment; with no segments to choose from the mask falls back to
    none (logged).
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
    if not segments:
        logger.warning("relation mask with no segments; falling back to none")
        return keep
    seg = segments[int(rng.integers(0, len(segments)))]
    keep[seg.start : seg.end + 1] = 0.0
    return keep


def apply_masking(condition: Tensor, keep: np.ndarray | None) -> Tensor:
    """Zero the condition rows whose (L, 1) keep-mask entry is 0, with the
    masks of stacked videos stacked alike; None (every video drew the none
    prior) keeps the condition as is. Labels and signals are untouched."""
    if keep is None:
        return condition
    return td.scale_rows(condition, condition.tape.const(keep))


def sample_mask_kind(rng: np.random.Generator) -> str:
    """Uniform draw over the four priors, one per training example."""
    return MASK_KINDS[int(rng.integers(0, len(MASK_KINDS)))]
