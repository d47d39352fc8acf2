"""Self-contained property suites behind the `check` subcommand.

Each suite re-derives expected behavior through an independent route —
closed forms, central finite differences, a perfect-predictor sampler run,
and brute-force metric references over frame sets — and reports pass/fail
with a one-line detail. The geometry suites run the `ballops` formulas:
the loss ops that training runs, forward on constants that no tape
records, and, for the round trip, the numpy kernels of the Riemannian Adam
retraction. The acceptance tests run the same suites at their full sizes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as td
from . import ballops as bo
from .autodiff import finite_diff_check
from .ballops import evaluate, exp_map_rows, log_map_rows
from .diffusion import label_decode, label_encode, make_schedule, sample
from .data import RunConfig
from .losses import cross_entropy, phase_loss
from .metrics import edit_score, f1_at_overlap, frame_accuracy


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

def geometry_roundtrip(pairs: int = 1000, seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for c in (0.5, 1.0, 2.0):
        scale = 0.9 / math.sqrt(c)
        X = _rows(rng, pairs, 4, 0.0, scale)
        Y = _rows(rng, pairs, 4, 0.0, scale)
        back = exp_map_rows(X, log_map_rows(X, Y, c), c)
        worst = max(worst, float(np.max(np.abs(back - Y))))
    return CheckResult(
        "geometry.exp_log_roundtrip", worst < 1e-9,
        f"max roundtrip error {worst:.3g} over {pairs} pairs x 3 curvatures (limit 1e-9)",
    )


def geometry_metric_axioms(triples: int = 1000, seed: int = 1) -> CheckResult:
    rng = np.random.default_rng(seed)
    X = _rows(rng, triples, 3, 0.0, 0.9)
    Y = _rows(rng, triples, 3, 0.0, 0.9)
    Z = _rows(rng, triples, 3, 0.0, 0.9)
    dxy, dyz, dxz = (evaluate(bo.distance_rows, a, b, 1.0) for a, b in ((X, Y), (Y, Z), (X, Z)))
    sym = float(np.max(np.abs(dxy - evaluate(bo.distance_rows, Y, X, 1.0))))
    slack = dxy + dyz - dxz
    tri = float(np.min(slack))
    ok = sym < 1e-12 and tri > -1e-9
    return CheckResult(
        "geometry.metric_axioms", ok,
        f"symmetry gap {sym:.3g} (limit 1e-12), worst triangle slack {tri:.3g} (limit -1e-9)",
    )


def geometry_radial_additivity(count: int = 1000, seed: int = 2) -> CheckResult:
    rng = np.random.default_rng(seed)
    Z = _rows(rng, count, 3, 0.05, 0.95)
    s = rng.uniform(0.05, 0.95, size=(count, 1))
    X = s * Z
    gap = (evaluate(bo.origin_distance_rows, X, 1.0) + evaluate(bo.distance_rows, X, Z, 1.0)
           - evaluate(bo.origin_distance_rows, Z, 1.0))
    worst = float(np.max(np.abs(gap)))
    return CheckResult(
        "geometry.radial_additivity", worst < 1e-9,
        f"max additivity defect {worst:.3g} over {count} rays (limit 1e-9)",
    )


def geometry_cone_axis(count: int = 1000, seed: int = 3) -> CheckResult:
    rng = np.random.default_rng(seed)
    X = _rows(rng, count, 3, 0.05, 0.6)
    s = rng.uniform(1.01, 1.6, size=(count, 1))
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
        logits = rng.normal(size=(frames, classes))
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
            e, p, lg = leaves
            ball_t = bo.exp_map_origin_rows(e, 1.0)
            protos_t = bo.exp_map_origin_rows(p, 1.0)
            rows = (frames,)
            ce = cross_entropy(td.softmax(lg), y, rows)
            total, _ = phase_loss(phase, config, ce, ball_t, protos_t, labels, [300], True, rows)
            return td.total(total)

        return f

    return [surface("stabilization"), surface("guidance")], [emb, proto_tan, logits]


def gradient_composites(configs: int = 10, seed: int = 4) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(configs):
        surfaces, leaves = _composite_surfaces(rng)
        for f in surfaces:
            worst = max(worst, finite_diff_check(f, leaves))
    return CheckResult(
        "gradients.phase_composites", worst < 1e-4,
        f"max relative error vs central differences {worst:.3g} "
        f"over {configs} configurations (limit 1e-4)",
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


def _ref_edit(pred, gt):
    def runs(seq):
        out = []
        for v in seq:
            if not out or out[-1] != v:
                out.append(v)
        return tuple(out)

    a, b = runs(pred), runs(gt)

    @lru_cache(maxsize=None)
    def lev(i, j):
        if i == 0 or j == 0:
            return i + j
        return min(
            lev(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
            lev(i - 1, j) + 1,
            lev(i, j - 1) + 1,
        )

    score = 100.0 * (1.0 - lev(len(a), len(b)) / max(len(a), len(b)))
    lev.cache_clear()
    return score


def _ref_f1(pred, gt, tau):
    def frame_segments(seq):
        segs, start = [], 0
        for i in range(1, len(seq)):
            if seq[i] != seq[start]:
                segs.append((seq[start], frozenset(range(start, i))))
                start = i
        segs.append((seq[start], frozenset(range(start, len(seq)))))
        return segs

    p_segs, g_segs = frame_segments(list(pred)), frame_segments(list(gt))
    taken, tp = set(), 0
    for label, frames in p_segs:
        best = None
        for idx, (g_label, g_frames) in enumerate(g_segs):
            if idx in taken or g_label != label:
                continue
            iou = len(frames & g_frames) / len(frames | g_frames)
            if best is None or iou > best[0]:
                best = (iou, idx)
        if best is not None and best[0] > tau:
            tp += 1
            taken.add(best[1])
    fp, fn = len(p_segs) - tp, len(g_segs) - tp
    if tp + fp == 0 or tp + fn == 0:
        return 0.0
    p, r = tp / (tp + fp), tp / (tp + fn)
    return 0.0 if p + r == 0 else 100.0 * 2 * p * r / (p + r)


def metrics_reference_agreement(pairs: int = 1000, seed: int = 6) -> CheckResult:
    rng = np.random.default_rng(seed)
    for k in range(pairs):
        n = int(rng.integers(1, 31))
        pred = rng.integers(0, 5, size=n)
        gt = rng.integers(0, 5, size=n)
        if frame_accuracy(pred, gt) != _ref_accuracy(list(pred), list(gt)):
            return CheckResult("metrics.reference_agreement", False, f"accuracy mismatch on pair {k}")
        if abs(edit_score(pred, gt) - _ref_edit(list(pred), list(gt))) > 1e-12:
            return CheckResult("metrics.reference_agreement", False, f"edit mismatch on pair {k}")
        for tau in (0.10, 0.25, 0.50):
            if abs(f1_at_overlap(pred, gt, tau) - _ref_f1(pred, gt, tau)) > 1e-12:
                return CheckResult(
                    "metrics.reference_agreement", False, f"F1@{tau} mismatch on pair {k}"
                )
    worked = f1_at_overlap([0, 1, 1, 1], [0, 0, 1, 1], 0.50)
    if worked != 50.0:
        return CheckResult(
            "metrics.reference_agreement", False, f"worked example gave {worked}, expected 50.0"
        )
    return CheckResult(
        "metrics.reference_agreement", True,
        f"accuracy/edit/F1 match brute-force references on {pairs} random pairs",
    )


def run_all(seed: int = 0) -> list[CheckResult]:
    t0 = time.time()
    results = [
        geometry_roundtrip(seed=seed),
        geometry_metric_axioms(seed=seed + 1),
        geometry_radial_additivity(seed=seed + 2),
        geometry_cone_axis(seed=seed + 3),
        gradient_composites(seed=seed + 4),
        sampler_oracle_recovery(seed=seed + 5),
        metrics_reference_agreement(seed=seed + 6),
    ]
    elapsed = time.time() - t0
    results.append(CheckResult("runtime", elapsed < 60.0, f"{elapsed:.1f}s (limit 60s)"))
    return results
