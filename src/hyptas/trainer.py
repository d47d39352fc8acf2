"""Two-phase training loop, prototype lifecycle, and packed inference.

Each epoch walks a permutation of the training videos in chunks of
`batch_size`. Per video, in chunk order, the rng draws a diffusion timestep
uniformly in [1, T], a conditioning mask kind, the label noise and (for the
relation prior) the masked segment. A chunk then trains as groups, each one
tape: the whole chunk stacked in time when every video has at least two
frames and it holds at most `PACK_ROWS` frames (a bound on a tape's
memory), otherwise one tape per video, which is a stack of one and runs the
same code (rows = (L,)). A group's tape binds the parameters once, encodes
its features, masks the condition, corrupts the encoded labels, decodes at
each video's own step, maps into the ball, and builds each video's phase
loss; one backward gives every weight the left-to-right sum of the videos'
own gradients, which goes into one flat gradient sum laid out like the
weights. Each chunk then takes one Adam step over the flat weight buffer,
and one Riemannian Adam step on the prototypes while the phase trains them;
they freeze at epoch E1.

A packed group computes every bit that one tape per video computes
(`tests/train_oracle.py` keeps that loop as the reference): a row of a BLAS
matmul can change in its last bits with the matmul's row count, so the
recorded conv stacks and heads run each matmul over rows once per video
(each video's step projection stays a 1-row matmul), every reduction (loss
terms, bias and weight gradients) runs per video, and only row-local numpy
work runs on all rows at once. A 1-frame video, whose entailment term is
zero, gets a tape of its own. Everything is a deterministic function of
(dataset, config): identical seeds produce bit-identical checkpoints.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as td
from . import ballops as bo
from .autodiff import Tape
from .data import (
    PROTOTYPE_INIT_RADIUS,
    Dataset,
    RunConfig,
    parse_config_text,
    read_checkpoint,
    write_checkpoint,
)
from .diffusion import (
    NoiseSchedule,
    forward_corrupt,
    label_decode,
    label_encode,
    make_schedule,
    sample,
)
from .errors import ConfigError, FormatError, GeometryError, NonFiniteLossError, ShapeError
from .losses import PHASES, Prototypes, cross_entropy, phase_for_epoch, phase_loss
from .metrics import evaluate_videos, segments_from_labels
from .model import (
    Denoiser,
    DenoiserConfig,
    ForwardRunner,
    apply_masking,
    mask_vector,
    sample_mask_kind,
)
from .optim import Adam, RiemannianAdam

logger = logging.getLogger(__name__)

# Frames one packed training tape may hold, for memory: a tape's memory grows
# with its rows, and a larger chunk trains one tape per video (splitting it
# into several packed groups would sum the weight gradients as (g1 + g2) +
# (g3 + g4) instead of ((g1 + g2) + g3) + g4). On the benchmark's `long` data
# (4 x 1000-frame videos, seed 1, 10 epochs, 2-vCPU Xeon) one packed tape per
# chunk trained 1-3% faster (112.8k-114.0k against 110.7k-111.6k frames/s,
# the same checkpoint bytes) but in 72 MB of peak RSS against 48 MB: traced,
# a 4,000-frame tape holds 19.8 MB when its backward starts and peaks at
# 29.5 MB, against 5.0 and 7.5 MB for one video.
PACK_ROWS = 1024


@dataclass
class EpochRecord:
    epoch: int
    phase: str
    components: dict[str, float]
    total: float
    prototype_min_distance: float
    prototype_checksum: str
    metrics: dict[str, float] | None = None

    def format_line(self) -> str:
        parts = [f"epoch={self.epoch}", f"phase={self.phase}", f"total={self.total:.6f}"]
        parts += [f"{k}={v:.6f}" for k, v in self.components.items()]
        parts.append(f"proto_min={self.prototype_min_distance:.6f}")
        if self.metrics:
            parts += [f"{k.lower().replace('@', '_')}={v:.4f}" for k, v in self.metrics.items()]
        return " ".join(parts)


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    def phases(self) -> list[str]:
        return [r.phase for r in self.records]

    def format_lines(self) -> list[str]:
        return [r.format_line() for r in self.records]


@dataclass
class TrainedState:
    model: Denoiser
    prototypes: Prototypes
    schedule: NoiseSchedule
    config: RunConfig


def init_prototypes(classes: int, dim: int, curvature: float, seed: int) -> Prototypes:
    """Pairwise-distinct points in a small ball around the origin (norm below
    PROTOTYPE_INIT_RADIUS)."""
    if classes < 2:
        raise ShapeError(f"need at least two classes, got {classes}")
    rng = np.random.default_rng(seed)
    while True:
        directions = rng.normal(size=(classes, dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.uniform(0.02, PROTOTYPE_INIT_RADIUS, size=(classes, 1))
        points = directions * radii
        diff = points[:, None, :] - points[None, :, :]
        off_diag = np.linalg.norm(diff, axis=2)[~np.eye(classes, dtype=bool)]
        if np.all(off_diag > 1e-6):
            return Prototypes(points, curvature)


def _denoiser_config(dataset: Dataset, config: RunConfig) -> DenoiserConfig:
    return DenoiserConfig(
        feature_dim=dataset.feature_dim,
        classes=dataset.num_classes,
        embed_dim=config.embed_dim,
        encoder_channels=config.encoder_channels,
    )


def _groups(chunk: Sequence[int], lengths: Sequence[int]) -> list[list[int]]:
    """The tapes of one chunk: the whole chunk when every video has at least
    two frames and it holds at most `PACK_ROWS` frames, else one per video."""
    frames = [lengths[i] for i in chunk]
    if min(frames) >= 2 and sum(frames) <= PACK_ROWS:
        return [list(chunk)]
    return [[i] for i in chunk]


@dataclass
class _Draw:
    """One video's random choices for one training step."""

    t: int
    noise: np.ndarray
    keep: np.ndarray


def _group_step(model, prototypes, schedule, config, phase, videos, draws, grad):
    """One tape over the videos of a group, stacked in time: writes the
    parameters' gradient into `grad`, laid out like `model.flat`, and
    returns it, each video's prototype copy gradient (while trained),
    loss total and components. It allocates no gradient array."""
    rows = tuple(video.labels.shape[0] for video in videos)
    classes = prototypes.count
    tape = Tape()
    bound = model.bind(tape, trainable=True)
    condition, p_enc = bound.encode(np.concatenate([video.features for video in videos]), rows)
    masked = apply_masking(condition, np.concatenate([d.keep for d in draws]))
    y_t = tape.const(np.concatenate([
        forward_corrupt(label_encode(video.labels, classes), d.t, schedule, d.noise)
        for video, d in zip(videos, draws)
    ]))
    ts = [d.t for d in draws]
    emb, probs = bound.decode(y_t, masked, ts, rows)
    ball = bo.exp_map_origin_rows(emb, config.curvature)
    copies = np.concatenate([prototypes.points] * len(videos))
    trains_prototypes = PHASES[phase].trains_prototypes
    proto_tensor = tape.leaf(copies) if trains_prototypes else tape.const(copies)
    labels = np.concatenate([video.labels for video in videos])
    y_onehot = np.eye(classes)[labels]
    ce = cross_entropy(probs, y_onehot, rows)
    if config.aux_head:
        ce = ce + cross_entropy(p_enc, y_onehot, rows)
    total, components = phase_loss(
        phase, config, ce, ball, proto_tensor, labels, ts, prototypes.frozen, rows
    )
    for v, t in enumerate(ts):
        for name, values in components.items():
            if not math.isfinite(values[v]):
                raise NonFiniteLossError(f"loss component {name!r} is non-finite at t={t}")
        if not math.isfinite(total.value[v]):
            raise NonFiniteLossError(f"total {phase} loss is non-finite at t={t}")
    grads = tape.backward(td.total(total))
    np.concatenate([grads[tensor].ravel() for tensor in bound.bound.values()], out=grad)
    proto_grads = []
    if trains_prototypes:
        g = grads[proto_tensor]
        proto_grads = [g[v * classes : (v + 1) * classes] for v in range(len(videos))]
    return grad, proto_grads, total.value, components


def train(dataset: Dataset, config: RunConfig) -> tuple[TrainedState, TrainLog]:
    if not dataset.train:
        raise ShapeError("training split is empty")
    if dataset.num_classes < 2:
        raise ShapeError("need at least two classes")

    model = Denoiser(_denoiser_config(dataset, config), seed=config.seed)
    prototypes = init_prototypes(
        dataset.num_classes, config.embed_dim, config.curvature, config.seed + 1
    )
    schedule = make_schedule(config.timesteps)
    net_opt = Adam(model.flat, config.lr, model.views)
    proto_opt = RiemannianAdam(prototypes, config.proto_lr)
    grad_sum = np.zeros_like(model.flat)
    grad = np.empty_like(model.flat)
    rng = np.random.default_rng(config.seed + 2)
    e1 = config.stabilization_epochs
    log = TrainLog()
    train_segments = [segments_from_labels(video.labels) for video in dataset.train]
    lengths = [video.labels.shape[0] for video in dataset.train]

    for epoch in range(config.epochs):
        phase = "single" if config.single_phase else phase_for_epoch(epoch, e1)
        protos_trainable = PHASES[phase].trains_prototypes
        if not protos_trainable and not prototypes.frozen:
            prototypes.freeze()
            logger.info("prototypes frozen entering epoch %d", epoch)

        order = rng.permutation(len(dataset.train))
        sums: dict[str, float] = {}
        total_sum = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            draws = {}
            for idx in batch:
                t = int(rng.integers(1, config.timesteps + 1))
                mask_kind = sample_mask_kind(rng)
                noise = rng.standard_normal((lengths[idx], dataset.num_classes))
                keep = mask_vector(mask_kind, train_segments[idx], lengths[idx], rng)
                draws[idx] = _Draw(t, noise, keep)
            grad_sum.fill(0.0)
            proto_grad_sum = np.zeros_like(prototypes.points)
            for group in _groups(batch, lengths):
                grad, proto_grads, totals, components = _group_step(
                    model, prototypes, schedule, config, phase,
                    [dataset.train[i] for i in group], [draws[i] for i in group], grad,
                )
                grad_sum += grad
                for g in proto_grads:
                    proto_grad_sum += g
                for v in range(len(group)):
                    total_sum += float(totals[v])
                    for k, values in components.items():
                        sums[k] = sums.get(k, 0.0) + float(values[v])
            net_opt.step(model.flat, grad_sum / len(batch))
            if protos_trainable:
                proto_opt.step(prototypes, proto_grad_sum / len(batch))

        n = len(dataset.train)
        record = EpochRecord(
            epoch=epoch,
            phase=phase,
            components={k: v / n for k, v in sums.items()},
            total=total_sum / n,
            prototype_min_distance=prototypes.min_pairwise_distance(),
            prototype_checksum=_checksum(prototypes.points),
        )
        last = epoch == config.epochs - 1
        if dataset.test and ((epoch + 1) % config.eval_every == 0 or last):
            state = TrainedState(model, prototypes, schedule, config)
            seeds = [config.seed + 7919 * (epoch + 1) + i for i in range(len(dataset.test))]
            preds = infer_videos(
                state, [rec.features for rec in dataset.test], config.infer_steps, seeds
            )
            record.metrics = evaluate_videos(
                [(pred, rec.labels) for (pred, _, _), rec in zip(preds, dataset.test)]
            )
        log.records.append(record)
        logger.info("%s", record.format_line())

    return TrainedState(model, prototypes, schedule, config), log


def _checksum(arr: np.ndarray) -> str:
    import hashlib

    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def infer_video(
    state: TrainedState,
    features: np.ndarray,
    steps: int | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`infer_videos` on one video: (labels, probabilities, ball embeddings)."""
    return infer_videos(state, [features], steps, [seed])[0]


def infer_videos(
    state: TrainedState,
    features_list: Sequence[np.ndarray],
    steps: int | None,
    seeds: Sequence[int],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Unmasked condition, deterministic reverse pass, every video at once.

    The videos are stacked in time in one `ForwardRunner`, which runs the
    denoiser's conv stacks without a tape: it encodes all features once,
    and every sampler step is one decode over all rows (each convolution
    keeps every tap inside its video). Video i starts from the noise of `seeds[i]`.
    Returns per video (labels, per-frame probabilities, ball embeddings
    from the final denoiser call).

    A packed video's probabilities and ball coordinates agree with those it
    gets alone within the 1e-12 the tests allow, but not always to the bit:
    the runner takes each matmul over all rows, and a row of a BLAS matmul
    can change in its last bits with the matmul's row count (with OpenBLAS,
    when an output width is 1-3 mod 8, as a class count may be). So the last
    bits of a video's `hyptas infer` or `export-embeddings` output can
    depend on which other videos share its split.
    """
    steps = state.config.infer_steps if steps is None else steps
    videos = [np.asarray(f, dtype=np.float64) for f in features_list]
    seeds = list(seeds)
    if not videos or len(seeds) != len(videos):
        raise ShapeError(f"need one seed per video, got {len(seeds)} seeds for {len(videos)} videos")
    runner = ForwardRunner(state.model, videos)
    noise = np.concatenate([
        np.random.default_rng(seed).standard_normal((n, state.model.config.classes))
        for seed, n in zip(seeds, runner.rows)
    ])
    probs = sample(runner.decode, steps, state.schedule, noise)
    labels = label_decode(probs)
    ball = bo.evaluate(bo.exp_map_origin_rows, runner.embeddings, state.prototypes.curvature)
    return [
        (labels[end - n : end], probs[end - n : end], ball[end - n : end])
        for n, end in zip(runner.rows, itertools.accumulate(runner.rows))
    ]


# ---------------------------------------------------------------------------
# Checkpoint schema
# ---------------------------------------------------------------------------

# Upper bound on |parameter| in a checkpoint. Trained weights stay below 1
# (at most 0.99 over the nine 180-epoch acceptance trainings); a value far
# above is damage, such as a flipped exponent bit, and would overflow the
# embedding norm in `exp_map_origin_rows` into garbage ball coordinates.
# With every desk-width weight at +-cap, inference stays finite.
PARAM_MAGNITUDE_CAP = 1e4


def save_checkpoint(state: TrainedState, path) -> None:
    """The config text, the prototypes and the parameters; `load_checkpoint`
    derives every other fact (widths, curvature, schedule) from these."""
    sections: list[tuple[str, object]] = [
        ("config_text", state.config.canonical_text()),
        ("prototypes/points", state.prototypes.points),
        ("prototypes/frozen", np.array(float(state.prototypes.frozen))),
    ]
    sections += [(f"param/{name}", arr) for name, arr in sorted(state.model.params.items())]
    write_checkpoint(path, sections)


def _section(sections: dict, path, name: str, ndim: int | None = None):
    """A required checkpoint section: a string when `ndim` is None, otherwise a
    finite float64 tensor with `ndim` dimensions."""
    if name not in sections:
        raise FormatError(f"{path}: missing {'section' if ndim is None else 'tensor'} {name!r}")
    value = sections[name]
    if ndim is None:
        if not isinstance(value, str):
            raise FormatError(f"{path}: section {name!r} must be a string, got a tensor")
        return value
    if isinstance(value, str):
        raise FormatError(f"{path}: section {name!r} must be a tensor, got a string")
    if value.ndim != ndim:
        raise FormatError(f"{path}: tensor {name!r} has shape {value.shape}, expected {ndim} dimensions")
    if not np.all(np.isfinite(value)):
        raise FormatError(f"{path}: tensor {name!r} holds non-finite values")
    return value


def load_checkpoint(path) -> TrainedState:
    """Config first; the prototypes give the class count, `param/enc.in.w` the
    feature width, and both are checked against the config's widths before
    anything is allocated from them. Sections it does not read are ignored."""
    sections = read_checkpoint(path)
    config_text = _section(sections, path, "config_text")
    values = parse_config_text(config_text, source=f"{path}:config_text")
    try:
        config = RunConfig(**values)
    except ConfigError as e:
        raise FormatError(f"{path}: stored config invalid: {e}") from e

    points = _section(sections, path, "prototypes/points", 2)
    enc_in = _section(sections, path, "param/enc.in.w", 3)
    for name, width, field_name in (
        ("prototypes/points", points.shape[1], "embed_dim"),
        ("param/enc.in.w", enc_in.shape[2], "encoder_channels"),
    ):
        if width != getattr(config, field_name):
            raise FormatError(
                f"{path}: tensor {name!r} is {width} wide, but config_text has "
                f"{field_name} = {getattr(config, field_name)}"
            )
    if enc_in.shape[1] == 0:
        raise FormatError(f"{path}: tensor 'param/enc.in.w' has no feature columns")
    try:
        prototypes = Prototypes(points.copy(), config.curvature)
    except (GeometryError, ShapeError) as e:
        raise FormatError(f"{path}: tensor 'prototypes/points': {e}") from e
    if bool(float(_section(sections, path, "prototypes/frozen", 0))):
        prototypes.freeze()
    den_cfg = DenoiserConfig(
        feature_dim=enc_in.shape[1],
        classes=prototypes.count,
        embed_dim=config.embed_dim,
        encoder_channels=config.encoder_channels,
    )
    model = Denoiser(den_cfg, seed=0)
    for name, init in model.params.items():
        key = f"param/{name}"
        stored = _section(sections, path, key, init.ndim)
        if stored.shape != init.shape:
            raise FormatError(
                f"{path}: tensor {key!r} has shape {stored.shape}, expected {init.shape}"
            )
        if np.any(np.abs(stored) > PARAM_MAGNITUDE_CAP):
            raise FormatError(
                f"{path}: tensor {key!r} holds a value above the magnitude cap "
                f"{PARAM_MAGNITUDE_CAP:g}"
            )
        model.params[name][...] = stored
    return TrainedState(model, prototypes, make_schedule(config.timesteps), config)
