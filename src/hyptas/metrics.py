"""Segmentation evaluation: frame accuracy, segmental edit score, and
F1 at IoU overlap thresholds.

Matching rule for F1 (pinned for bit-reproducibility): predicted segments
are scanned left to right; each becomes a true positive if its best frame
IoU against a not-yet-matched ground-truth segment of the same label is
strictly greater than the threshold, ties on IoU broken by the earliest
ground-truth segment. Dataset-level reporting pools frames for accuracy,
pools TP/FP/FN for F1, and averages edit scores per video.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ShapeError

OVERLAP_THRESHOLDS = (0.10, 0.25, 0.50)


class Segment(NamedTuple):
    """A maximal run of one label over inclusive frame indices [start, end]."""

    label: int
    start: int
    end: int


def segments_from_labels(labels: Sequence[int]) -> list[Segment]:
    """Maximal runs of equal labels; concatenating them reproduces the input."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ShapeError("need a nonempty 1-D label sequence")
    values = labels.tolist()
    starts = [0, *((labels[1:] != labels[:-1]).nonzero()[0] + 1).tolist()]
    ends = [s - 1 for s in starts[1:]] + [labels.size - 1]
    return [Segment(values[s], s, e) for s, e in zip(starts, ends)]


def _check_pair(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape or pred.ndim != 1 or pred.size == 0:
        raise ShapeError(f"prediction {pred.shape} and ground truth {gt.shape} must match")
    return pred, gt


def _levenshtein(a: list[int], b: list[int]) -> int:
    """Edit distance by Myers' bit-parallel column update (J. ACM 1999), in
    Hyyro's global form: bit i of `pv` / `mv` says the DP column steps up /
    down by one from row i to row i + 1. Python ints make it exact at any
    length of `a`."""
    if not a:
        return len(b)
    full = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    peq: dict[int, int] = {}
    for i, x in enumerate(a):
        peq[x] = peq.get(x, 0) | (1 << i)
    pv, mv, score = full, 0, len(a)
    for y in b:
        eq = peq.get(y, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & full)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1  # row 0 of the table steps up by one per column
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return score


def _edit(p_segs: list[Segment], g_segs: list[Segment]) -> float:
    p_labels = [s.label for s in p_segs]
    g_labels = [s.label for s in g_segs]
    return 100.0 * (1.0 - _levenshtein(p_labels, g_labels) / max(len(p_labels), len(g_labels)))


def _segment_iou(a: Segment, b: Segment) -> float:
    inter = min(a.end, b.end) - max(a.start, b.start) + 1
    if inter <= 0:
        return 0.0
    union = max(a.end, b.end) - min(a.start, b.start) + 1
    return inter / union


def _match(p_segs: list[Segment], g_segs: list[Segment],
           taus: Sequence[float]) -> list[tuple[int, int, int]]:
    """(TP, FP, FN) at each threshold of `taus`, from one pass that lists each
    predicted segment's candidates: the same-label ground-truth segments it
    overlaps, in index order. Segments tile the frames, so one forward sweep
    finds them; a segment it skips has IoU 0, which never wins the strict
    comparison."""
    candidates = []
    first = 0
    for p in p_segs:
        while g_segs[first].end < p.start:
            first += 1
        row = []
        j = first
        while j < len(g_segs) and g_segs[j].start <= p.end:
            if g_segs[j].label == p.label:
                row.append((j, _segment_iou(p, g_segs[j])))
            j += 1
        candidates.append(row)
    counts = []
    for tau in taus:
        used = set()
        tp = 0
        for row in candidates:
            best_iou, best_j = 0.0, -1
            for j, iou in row:
                if iou > best_iou and j not in used:  # strict: ties keep the earliest
                    best_iou, best_j = iou, j
            if best_j >= 0 and best_iou > tau:
                tp += 1
                used.add(best_j)
        counts.append((tp, len(p_segs) - tp, len(g_segs) - tp))
    return counts


def _f1_from_counts(tp: int, fp: int, fn: int) -> float:
    if tp + fp == 0 or tp + fn == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    if precision + recall == 0.0:
        return 0.0
    return 100.0 * 2.0 * precision * recall / (precision + recall)


def evaluate_videos(pairs: Iterable[tuple[Sequence[int], Sequence[int]]]) -> dict[str, float]:
    """Dataset-level report over (pred, gt) pairs.

    Accuracy is frame-pooled, F1@tau for each tau of OVERLAP_THRESHOLDS
    comes from pooled TP/FP/FN, edit is averaged per video. Returns the five
    metrics plus their unweighted mean under the key "Avg".
    """
    correct = 0
    frames = 0
    edit_sum = 0.0
    count = 0
    pooled = [[0, 0, 0] for _ in OVERLAP_THRESHOLDS]
    for pred, gt in pairs:
        pred, gt = _check_pair(pred, gt)
        correct += np.count_nonzero(pred == gt)
        frames += pred.size
        p_segs, g_segs = segments_from_labels(pred), segments_from_labels(gt)
        edit_sum += _edit(p_segs, g_segs)
        count += 1
        for sums, (tp, fp, fn) in zip(pooled, _match(p_segs, g_segs, OVERLAP_THRESHOLDS)):
            sums[0] += tp
            sums[1] += fp
            sums[2] += fn
    if count == 0:
        raise ShapeError("no videos to evaluate")
    report = {f"F1@{int(round(tau * 100))}": _f1_from_counts(*counts)
              for tau, counts in zip(OVERLAP_THRESHOLDS, pooled)}
    report["Edit"] = edit_sum / count
    report["Acc"] = 100.0 * correct / frames
    report["Avg"] = sum(report.values()) / len(report)
    return report
