"""Training objectives on the differentiation tape.

Five loss terms and one phase table. Every term takes tape tensors of
videos stacked in time, with the frame counts `rows` of the videos ((L,)
for one video), and returns one value per video, a (V,) tensor, each entry
what the video alone would give. Gradients reach whatever was bound as a
leaf: the Euclidean pre-projection embeddings, the class-probability rows,
and the prototype coordinates (while trainable); `autodiff.total` sums the
values into the scalar that `Tape.backward` needs. `PHASES` says which
terms each training phase adds to cross-entropy and whether the prototypes
train; `phase_loss` builds that weighted total with the weights of a
`RunConfig`.

Ball inputs (`x`, `z`) are (L, d) rows already inside the ball of curvature
`c` (use `ballops.exp_map_origin_rows` to get there). The ball terms call
the fused `ballops` ops, one tape node per formula, whose gradients carry
the bits of the primitive compositions they replaced.
"""

from __future__ import annotations

import functools
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as td
from . import ballops as bo
from .autodiff import Tensor
from .data import DECAY_KINDS, RunConfig
from .errors import ContractViolation, GeometryError, ShapeError

logger = logging.getLogger(__name__)

PROB_FLOOR = 1e-12          # clamp on probabilities before the log
RADIUS_FLOOR = 1e-6         # floor on d(O, x) in the push-pull ratio


@functools.lru_cache(maxsize=None)
def _pairs(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only indices (i, j) of the pairs i < j of `count` prototypes, in
    np.triu_indices order; made once per class count."""
    i, j = np.triu_indices(count, k=1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def decay_factor(kind: str, u: float) -> float:
    """Timestep decay on [0, 1]: all kinds equal 1 at u = 0 and decrease."""
    if kind == "exp":
        return math.exp(-u)
    if kind == "linear":
        return 1.0 - u
    if kind == "cosine":
        return 0.5 * (1.0 + math.cos(math.pi * u))
    raise ShapeError(f"unknown decay kind {kind!r}; expected one of {DECAY_KINDS}")


@dataclass
class Prototypes:
    """One learnable ball point per action class; frozen after phase one."""

    points: np.ndarray
    curvature: float
    frozen: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ShapeError(f"need a (C >= 2, d) prototype matrix, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise GeometryError("non-finite prototype coordinates")
        # A coordinate of 1/sqrt(c) or more lies outside the ball by itself;
        # refusing it before squaring keeps the squares finite.
        outside = np.any(np.abs(pts) >= 1.0 / math.sqrt(self.curvature))
        if outside or np.any(self.curvature * np.sum(pts * pts, axis=1) >= 1.0):
            raise GeometryError("prototypes must lie strictly inside the ball")
        self.points = pts

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def freeze(self) -> None:
        self.frozen = True
        self.points.flags.writeable = False

    def min_pairwise_distance(self) -> float:
        i, j = _pairs(self.count)
        pairs = bo.evaluate(bo.distance_rows, self.points[i], self.points[j], self.curvature)
        return float(np.min(pairs))


def cross_entropy(p: Tensor, y_onehot: np.ndarray, rows: Sequence[int]) -> Tensor:
    """Mean negative log-likelihood per video, normalized by its L * C (not
    by L alone)."""
    y = np.asarray(y_onehot, dtype=np.float64)
    if p.value.shape != y.shape:
        raise ShapeError(f"probabilities {p.value.shape} vs targets {y.shape}")
    logp = td.log(td.clamp(p, lo=PROB_FLOOR))
    picked = td.mul(logp, y)
    return td.mul(td.sums(picked, rows), -1.0 / (np.asarray(rows) * y.shape[1]))


def temporal_entailment(x: Tensor, cone_k: float, c: float, rows: Sequence[int]) -> Tensor:
    """Mean hinge over consecutive frames of (exterior angle - aperture).

    Zero when every frame lies within its predecessor's cone. The cone ops
    are the unit ball's formulas, so the frame pairs are first carried onto
    that ball by the isometry x -> sqrt(c) x (Ganea et al., ICML 2018). The
    rows are scaled after they are picked, so at c = 1 the values and the
    gradient of x keep the bits of unscaled rows. One mean per video over
    its own frame pairs, so no pair crosses a video boundary. A lone video
    shorter than two frames contributes zero (logged, not fatal); packed
    with other videos it is refused.
    """
    if min(rows) < 2:
        if len(rows) > 1:
            raise ShapeError(f"temporal entailment packs only videos of >= 2 frames, got {rows}")
        logger.warning("temporal entailment needs >= 2 frames, got %d; returning 0", rows[0])
        return x.tape.const(np.zeros((1,)))
    heads = np.ones(sum(rows), dtype=bool)
    heads[np.cumsum(rows) - 1] = False  # a video's last frame heads no pair
    first = heads.nonzero()[0]
    sqrt_c = math.sqrt(c)
    head = td.mul(td.pick_rows(x, first), sqrt_c)
    tail = td.mul(td.pick_rows(x, first + 1), sqrt_c)
    theta = bo.exterior_angle_rows(head, tail)
    alpha = bo.aperture_rows(head, cone_k)
    hinge = td.relu(theta - alpha)
    return td.mean(hinge, [n - 1 for n in rows])


def prototype_margin(z: Tensor, margin: float, c: float, videos: int) -> Tensor:
    """Pairwise repulsion: mean over ordered pairs of max(0, m - d(z_i, z_j)).

    The printed normalization is 1/(C(C-1)) over the C(C-1)/2 unordered
    pairs, i.e. two coincident prototypes cost m/2. z stacks `videos`
    per-video copies of the C prototypes, and each copy gets its own value
    (pairs stay inside a copy).
    """
    count = z.value.shape[0] // videos
    if count < 2:
        raise ShapeError("margin loss needs at least two prototypes")
    i, j = _pairs(count)
    pairs = i.size
    offsets = np.repeat(np.arange(videos) * count, pairs)
    i, j = np.concatenate([i] * videos) + offsets, np.concatenate([j] * videos) + offsets
    zi = td.gather_rows(z, i)
    zj = td.gather_rows(z, j)
    hinge = td.relu(td.mul(bo.distance_rows(zi, zj, c), -1.0) + margin)
    return td.mul(td.sums(hinge, [pairs] * videos), 1.0 / (count * (count - 1)))


def push_pull(
    x: Tensor,
    z_assigned: Tensor,
    t: Sequence[int],
    total_steps: int,
    decay: str,
    c: float,
    rows: Sequence[int],
) -> Tensor:
    """Pull toward the assigned prototype, push away from the origin.

    Mean over each video's frames of d(x, z)/max(d(O, x), RADIUS_FLOOR)
    minus d(O, x) * decay(t / T), with `t` holding each video's step; the
    push term rewards radius, so the value may be negative.
    """
    if x.value.shape != z_assigned.value.shape:
        raise ShapeError(f"embeddings {x.value.shape} vs prototypes {z_assigned.value.shape}")
    pull = bo.distance_rows(x, z_assigned, c)
    radius = bo.origin_distance_rows(x, c)
    ratio = td.div(pull, td.clamp(radius, lo=RADIUS_FLOOR))
    factors = [decay_factor(decay, tv / total_steps) for tv in t]
    return td.mean(ratio - td.mul(radius, np.repeat(factors, rows)[:, None]), rows)


def geodesic_guidance(x: Tensor, z_assigned: Tensor, c: float, rows: Sequence[int]) -> Tensor:
    """Mean squared defect of d(O, z) = d(O, x) + d(x, z), one per video.

    Exactly zero when every embedding sits on the radial geodesic from the
    origin to its prototype.
    """
    if x.value.shape != z_assigned.value.shape:
        raise ShapeError(f"embeddings {x.value.shape} vs prototypes {z_assigned.value.shape}")
    target = bo.origin_distance_rows(z_assigned, c)
    via = bo.origin_distance_rows(x, c) + bo.distance_rows(x, z_assigned, c)
    return td.mean(td.square(target - via), rows)


@dataclass(frozen=True)
class Phase:
    terms: tuple[str, ...]  # added after cross-entropy, in this order
    trains_prototypes: bool


# Stabilization: the prototypes learn under CE + entailment + margin +
# push-pull. Guidance: they are frozen and steer the embeddings under CE +
# entailment + geodesic guidance. Single: the one-phase ablation, every term
# with trainable prototypes.
PHASES = {
    "stabilization": Phase(("entail", "margin", "pp"), True),
    "guidance": Phase(("entail", "gg"), False),
    "single": Phase(("entail", "margin", "pp", "gg"), True),
}


def phase_for_epoch(epoch: int, stabilization_epochs: int) -> str:
    """'stabilization' while epoch < E1, 'guidance' from E1 on (boundary inclusive)."""
    return "stabilization" if epoch < stabilization_epochs else "guidance"


def phase_loss(
    phase: str,
    config: RunConfig,
    ce: Tensor,
    x: Tensor,
    z: Tensor,
    labels: np.ndarray,
    t: Sequence[int],
    frozen: bool,
    rows: Sequence[int],
) -> tuple[Tensor, dict]:
    """ce * lambda_ce plus term * lambda_term for each term of the phase whose
    lambda is > 0; a term with lambda = 0 is not computed.

    `x` are the frame embeddings in the ball and `labels` the frame classes,
    both stacking videos of `rows` frames; `ce` holds one value per video,
    `t` one diffusion step per video, and `z` one copy of the prototypes
    per video (each video's own leaf, so each gets its own gradient).
    `frozen` says whether the prototypes are frozen: geodesic guidance
    raises ContractViolation on unfrozen ones unless the phase trains them
    (the single-phase ablation, where they are deliberately dynamic
    targets). Every term is reduced per video. Returns the (V,) total and
    the (V,) value array of every computed term, cross-entropy included.
    """
    rule, c = PHASES[phase], config.curvature
    videos = len(rows)
    index = labels + z.value.shape[0] // videos * np.repeat(np.arange(videos), rows)

    def term(name: str) -> Tensor:
        if name == "entail":
            return temporal_entailment(x, config.cone_k, c, rows)
        if name == "margin":
            return prototype_margin(z, config.margin, c, videos)
        assigned = td.gather_rows(z, index)
        if name == "pp":
            return push_pull(x, assigned, t, config.timesteps, config.decay, c, rows)
        if not frozen and not rule.trains_prototypes:
            raise ContractViolation("geodesic guidance requires frozen prototypes")
        return geodesic_guidance(x, assigned, c, rows)

    components = {"ce": ce.value}
    total = td.mul(ce, config.lambda_ce)
    for name in rule.terms:
        weight = getattr(config, f"lambda_{name}")
        if weight > 0:
            value = term(name)
            components[name] = value.value
            total = total + td.mul(value, weight)
    return total, components
