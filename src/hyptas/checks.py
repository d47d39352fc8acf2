"""Self-contained property suites behind the `check` subcommand.

Each suite re-derives expected behavior through an independent route —
closed forms, central finite differences, a perfect-predictor sampler run,
and brute-force metric references — and reports pass/fail with a one-line
detail. The geometry suites run the `ballops` formulas:
the loss ops that training runs, forward on constants that no tape
records, and, for the round trip, the numpy kernels of the Riemannian Adam
retraction. The gradient suite checks the phase totals that training
builds against central differences; each surface takes its inputs as
stacked copies, so all perturbed points of a surface are one pass of
`phase_loss` over 2N five-frame videos (`autodiff.stacked_finite_diff_check`).
The surfaces take the class-probability rows as their leaf, as the decoder
head's node hands them to cross-entropy in training.
The metric suite draws all its pairs first, then scores each once on each
side: a one-pair `evaluate_videos` report against a frame loop, one
Levenshtein table per pair over the label runs (all tables filled together
in numpy) and frame-index sets with one IoU table per pair. The references
share no code with `hyptas.metrics`. Two worked pairs pin what random pairs
rarely decide: the strict IoU threshold and the tie rule.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import ballops as bo
from .autodiff import stacked_finite_diff_check
from .ballops import evaluate, exp_map_rows, log_map_rows
from .diffusion import label_decode, label_encode, make_schedule, sample
from .data import RunConfig
from .losses import cross_entropy, phase_loss
from .metrics import evaluate_videos


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rows(rng, n, d, lo, hi):
    v = rng.normal(size=(n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.uniform(lo, hi, size=(n, 1))


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------

DRAWS = 1000  # the random pairs, triples or rays of each geometry and metric suite


def geometry_roundtrip(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for c in (0.5, 1.0, 2.0):
        scale = 0.9 / math.sqrt(c)
        X = _rows(rng, DRAWS, 4, 0.0, scale)
        Y = _rows(rng, DRAWS, 4, 0.0, scale)
        back = exp_map_rows(X, log_map_rows(X, Y, c), c)
        worst = max(worst, float(np.max(np.abs(back - Y))))
    return CheckResult(
        "geometry.exp_log_roundtrip", worst < 1e-9,
        f"max roundtrip error {worst:.3g} over {DRAWS} pairs x 3 curvatures (limit 1e-9)",
    )


def geometry_metric_axioms(seed: int = 1) -> CheckResult:
    rng = np.random.default_rng(seed)
    X = _rows(rng, DRAWS, 3, 0.0, 0.9)
    Y = _rows(rng, DRAWS, 3, 0.0, 0.9)
    Z = _rows(rng, DRAWS, 3, 0.0, 0.9)
    dxy, dyz, dxz = (evaluate(bo.distance_rows, a, b, 1.0) for a, b in ((X, Y), (Y, Z), (X, Z)))
    sym = float(np.max(np.abs(dxy - evaluate(bo.distance_rows, Y, X, 1.0))))
    slack = dxy + dyz - dxz
    tri = float(np.min(slack))
    ok = sym < 1e-12 and tri > -1e-9
    return CheckResult(
        "geometry.metric_axioms", ok,
        f"symmetry gap {sym:.3g} (limit 1e-12), worst triangle slack {tri:.3g} (limit -1e-9)",
    )


def geometry_radial_additivity(seed: int = 2) -> CheckResult:
    rng = np.random.default_rng(seed)
    Z = _rows(rng, DRAWS, 3, 0.05, 0.95)
    s = rng.uniform(0.05, 0.95, size=(DRAWS, 1))
    X = s * Z
    gap = (evaluate(bo.origin_distance_rows, X, 1.0) + evaluate(bo.distance_rows, X, Z, 1.0)
           - evaluate(bo.origin_distance_rows, Z, 1.0))
    worst = float(np.max(np.abs(gap)))
    return CheckResult(
        "geometry.radial_additivity", worst < 1e-9,
        f"max additivity defect {worst:.3g} over {DRAWS} rays (limit 1e-9)",
    )


def geometry_cone_axis(seed: int = 3) -> CheckResult:
    rng = np.random.default_rng(seed)
    X = _rows(rng, DRAWS, 3, 0.05, 0.6)
    s = rng.uniform(1.01, 1.6, size=(DRAWS, 1))
    worst = float(np.max(evaluate(bo.exterior_angle_rows, X, s * X)))
    return CheckResult(
        "geometry.radial_cone_axis", worst < 1e-9,
        f"max exterior angle on outward rays {worst:.3g} rad (limit 1e-9)",
    )


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def _composite_surfaces(rng):
    frames, classes, dim = 5, 4, 3
    for _ in range(200):
        emb = _rows(rng, frames, dim, 0.1, 0.85)
        proto_tan = _rows(rng, classes, dim, 0.1, 0.85)
        probs = np.exp(rng.normal(size=(frames, classes)))
        probs /= np.sum(probs, axis=1, keepdims=True)
        labels = rng.integers(0, classes, size=frames)
        ball = evaluate(bo.exp_map_origin_rows, emb, 1.0)
        theta = evaluate(bo.exterior_angle_rows, ball[:-1], ball[1:])
        alpha = evaluate(bo.aperture_rows, ball[:-1], 0.1)
        if np.any(np.abs(theta - alpha) < 1e-3) or np.any(theta < 1e-3) or np.any(theta > np.pi - 1e-3):
            continue
        protos = evaluate(bo.exp_map_origin_rows, proto_tan, 1.0)
        i, j = np.triu_indices(classes, k=1)
        if np.any(np.abs(evaluate(bo.distance_rows, protos[i], protos[j], 1.0) - 2.0) < 1e-3):
            continue
        break
    config = RunConfig()  # default weights and geometry, T = 1000
    y = np.eye(classes)[labels]

    def surface(phase):
        def f(tape, leaves):
            e, p, pr = leaves
            copies = e.value.shape[0] // frames
            rows = (frames,) * copies
            ball_t = bo.exp_map_origin_rows(e, 1.0)
            protos_t = bo.exp_map_origin_rows(p, 1.0)
            ce = cross_entropy(pr, np.tile(y, (copies, 1)), rows)
            total, _ = phase_loss(phase, config, ce, ball_t, protos_t, np.tile(labels, copies),
                                  [300] * copies, True, rows)
            return total

        return f

    return [surface("stabilization"), surface("guidance")], [emb, proto_tan, probs]


def gradient_composites(seed: int = 4) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        surfaces, leaves = _composite_surfaces(rng)
        for f in surfaces:
            worst = max(worst, stacked_finite_diff_check(f, leaves))
    return CheckResult(
        "gradients.phase_composites", worst < 1e-4,
        f"max relative error vs central differences {worst:.3g} "
        "over 10 configurations (limit 1e-4)",
    )


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------

def sampler_oracle_recovery(seed: int = 5) -> CheckResult:
    rng = np.random.default_rng(seed)
    schedule = make_schedule(1000)
    worst = 0.0
    for steps in (1, 8, 25):
        labels = rng.integers(0, 5, size=40)
        clean = label_encode(labels, 5)
        target = (clean + 1.0) / 2.0
        noise = np.random.default_rng(7).standard_normal(clean.shape)
        probs = sample(lambda y, t: target.copy(), steps, schedule, noise)
        worst = max(worst, float(np.max(np.abs(2.0 * probs - 1.0 - clean))))
        if not np.array_equal(label_decode(probs), labels):
            return CheckResult("sampler.oracle_recovery", False, f"label mismatch at {steps} steps")
    return CheckResult(
        "sampler.oracle_recovery", worst < 1e-6,
        f"max signal reconstruction error {worst:.3g} at steps 1/8/25 (limit 1e-6)",
    )


# ---------------------------------------------------------------------------
# Metrics vs brute-force references
# ---------------------------------------------------------------------------

def _ref_accuracy(pred, gt):
    hits = sum(1 for p, g in zip(pred, gt) if p == g)
    return 100.0 * hits / len(pred)


def _ref_runs(seq):
    return [v for i, v in enumerate(seq) if i == 0 or v != seq[i - 1]]


def _ref_edits(pairs):
    """Edit score of every (pred, gt) pair from one Levenshtein table per pair
    over the label runs. All tables advance a row at a time together: a row
    takes the diagonal and the deletion from the row above, then the
    insertions by a running minimum of D[i, k] + (j - k) over k <= j."""
    a_runs = [_ref_runs(pred) for pred, _ in pairs]
    b_runs = [_ref_runs(gt) for _, gt in pairs]
    a_len = np.array([len(a) for a in a_runs])
    b_len = np.array([len(b) for b in b_runs])
    a = np.full((len(pairs), a_len.max()), -1)  # padding past a run's end is never read
    b = np.full((len(pairs), b_len.max()), -1)
    for k, (ra, rb) in enumerate(zip(a_runs, b_runs)):
        a[k, :len(ra)] = ra
        b[k, :len(rb)] = rb
    cols = np.arange(b.shape[1] + 1)
    row = np.tile(cols, (len(pairs), 1))  # D[0, j] = j
    dist = np.zeros(len(pairs), dtype=np.int64)
    for i in range(1, a.shape[1] + 1):
        step = np.empty_like(row)
        step[:, 0] = i
        step[:, 1:] = np.minimum(row[:, :-1] + (a[:, i - 1:i] != b), row[:, 1:] + 1)
        row = np.minimum.accumulate(step - cols, axis=1) + cols
        done = a_len == i
        dist[done] = row[done, b_len[done]]
    return [100.0 * (1.0 - d / max(la, lb))
            for d, la, lb in zip(dist.tolist(), a_len.tolist(), b_len.tolist())]


def _ref_match_counts(pred, gt, taus):
    """(TP, FP, FN) at each threshold, by the greedy rule over frame-index sets
    and one IoU table per pair."""
    def frame_segments(seq):
        segs, start = [], 0
        for i in range(1, len(seq)):
            if seq[i] != seq[start]:
                segs.append((seq[start], frozenset(range(start, i))))
                start = i
        segs.append((seq[start], frozenset(range(start, len(seq)))))
        return segs

    p_segs, g_segs = frame_segments(pred), frame_segments(gt)
    table = [[(idx, len(frames & g_frames) / len(frames | g_frames))
              for idx, (g_label, g_frames) in enumerate(g_segs) if g_label == label]
             for label, frames in p_segs]
    counts = []
    for tau in taus:
        taken, tp = set(), 0
        for row in table:
            best = None
            for idx, iou in row:
                if idx not in taken and (best is None or iou > best[0]):
                    best = (iou, idx)
            if best is not None and best[0] > tau:
                tp += 1
                taken.add(best[1])
        counts.append((tp, len(p_segs) - tp, len(g_segs) - tp))
    return counts


def _ref_f1(tp, fp, fn):
    if tp + fp == 0 or tp + fn == 0:
        return 0.0
    p, r = tp / (tp + fp), tp / (tp + fn)
    return 0.0 if p + r == 0 else 100.0 * 2 * p * r / (p + r)


# (pred, gt, report key, F1): IoU 0.5 is no match at tau = 0.5; and the
# prediction 0:2-4 ties at IoU 1/5 with ground truth 0:0-2 and 0:4-6, so the
# earliest wins and leaves 0:4-6 to the prediction 0:6 (57.14, where the
# latest would give 28.57).
WORKED_F1 = (
    ([0, 1, 1, 1], [0, 0, 1, 1], "F1@50", 50.0),
    ([1, 1, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0, 0], "F1@10", 400.0 / 7.0),
)


def metrics_reference_agreement(seed: int = 6) -> CheckResult:
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(DRAWS):
        n = int(rng.integers(1, 31))
        drawn.append((rng.integers(0, 5, size=n), rng.integers(0, 5, size=n)))
    lists = [(pred.tolist(), gt.tolist()) for pred, gt in drawn]
    ref_edits = _ref_edits(lists)
    taus = (0.10, 0.25, 0.50)
    for k, ((pred, gt), (p_list, g_list)) in enumerate(zip(drawn, lists)):
        report = evaluate_videos([(pred, gt)])
        if report["Acc"] != _ref_accuracy(p_list, g_list):
            return CheckResult("metrics.reference_agreement", False, f"accuracy mismatch on pair {k}")
        if abs(report["Edit"] - ref_edits[k]) > 1e-12:
            return CheckResult("metrics.reference_agreement", False, f"edit mismatch on pair {k}")
        for tau, counts in zip(taus, _ref_match_counts(p_list, g_list, taus)):
            if abs(report[f"F1@{round(tau * 100)}"] - _ref_f1(*counts)) > 1e-12:
                return CheckResult(
                    "metrics.reference_agreement", False, f"F1@{tau} mismatch on pair {k}"
                )
    for pred, gt, key, expected in WORKED_F1:
        got = evaluate_videos([(pred, gt)])[key]
        if abs(got - expected) > 1e-9:
            return CheckResult(
                "metrics.reference_agreement", False,
                f"worked pair {pred} / {gt} gave {key} {got:.2f}, expected {expected:.2f}",
            )
    return CheckResult(
        "metrics.reference_agreement", True,
        f"accuracy/edit/F1 match brute-force references on {DRAWS} random pairs "
        f"and {len(WORKED_F1)} worked pairs",
    )


def run_all(seed: int = 0) -> list[CheckResult]:
    t0 = time.perf_counter()
    results = [
        geometry_roundtrip(seed=seed),
        geometry_metric_axioms(seed=seed + 1),
        geometry_radial_additivity(seed=seed + 2),
        geometry_cone_axis(seed=seed + 3),
        gradient_composites(seed=seed + 4),
        sampler_oracle_recovery(seed=seed + 5),
        metrics_reference_agreement(seed=seed + 6),
    ]
    elapsed = time.perf_counter() - t0
    results.append(CheckResult("runtime", elapsed < 60.0, f"{elapsed:.1f}s (limit 60s)"))
    return results
