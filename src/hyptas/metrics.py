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

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeError

OVERLAP_THRESHOLDS = (0.10, 0.25, 0.50)


@dataclass(frozen=True)
class Segment:
    """A maximal run of one label over inclusive frame indices [start, end]."""

    label: int
    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ShapeError(f"segment start {self.start} after end {self.end}")


def segments_from_labels(labels: Sequence[int]) -> list[Segment]:
    """Maximal runs of equal labels; concatenating them reproduces the input."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ShapeError("need a nonempty 1-D label sequence")
    starts = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()]
    ends = [s - 1 for s in starts[1:]] + [labels.size - 1]
    return [Segment(int(labels[s]), s, e) for s, e in zip(starts, ends)]


def _check_pair(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape or pred.ndim != 1 or pred.size == 0:
        raise ShapeError(f"prediction {pred.shape} and ground truth {gt.shape} must match")
    return pred, gt


def frame_accuracy(pred: Sequence[int], gt: Sequence[int]) -> float:
    pred, gt = _check_pair(pred, gt)
    return 100.0 * float(np.sum(pred == gt)) / pred.size


def _levenshtein(a: list[int], b: list[int]) -> int:
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        row = [i]
        for j, y in enumerate(b, start=1):
            row.append(min(prev[j - 1] + (x != y), prev[j] + 1, row[j - 1] + 1))
        prev = row
    return prev[-1]


def _edit(p_segs: list[Segment], g_segs: list[Segment]) -> float:
    p_labels = [s.label for s in p_segs]
    g_labels = [s.label for s in g_segs]
    return 100.0 * (1.0 - _levenshtein(p_labels, g_labels) / max(len(p_labels), len(g_labels)))


def edit_score(pred: Sequence[int], gt: Sequence[int]) -> float:
    """100 * (1 - Levenshtein(segment labels) / max(segment counts))."""
    pred, gt = _check_pair(pred, gt)
    return _edit(segments_from_labels(pred), segments_from_labels(gt))


def _segment_iou(a: Segment, b: Segment) -> float:
    inter = min(a.end, b.end) - max(a.start, b.start) + 1
    if inter <= 0:
        return 0.0
    union = max(a.end, b.end) - min(a.start, b.start) + 1
    return inter / union


def _match(p_segs: list[Segment], g_segs: list[Segment], tau: float) -> tuple[int, int, int]:
    if not 0.0 < tau < 1.0:
        raise ShapeError(f"overlap threshold must lie in (0, 1), got {tau}")
    used = [False] * len(g_segs)
    tp = 0
    for p in p_segs:
        best_iou, best_j = 0.0, -1
        for j, g in enumerate(g_segs):
            if used[j] or g.label != p.label:
                continue
            iou = _segment_iou(p, g)
            if iou > best_iou:  # strict: ties keep the earliest candidate
                best_iou, best_j = iou, j
        if best_j >= 0 and best_iou > tau:
            tp += 1
            used[best_j] = True
    fp = len(p_segs) - tp
    fn = len(g_segs) - tp
    return tp, fp, fn


def match_counts(pred: Sequence[int], gt: Sequence[int], tau: float) -> tuple[int, int, int]:
    """Greedy (TP, FP, FN) under the pinned rule described in the module docstring."""
    pred, gt = _check_pair(pred, gt)
    return _match(segments_from_labels(pred), segments_from_labels(gt), tau)


def _f1_from_counts(tp: int, fp: int, fn: int) -> float:
    if tp + fp == 0 or tp + fn == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    if precision + recall == 0.0:
        return 0.0
    return 100.0 * 2.0 * precision * recall / (precision + recall)


def f1_at_overlap(pred: Sequence[int], gt: Sequence[int], tau: float) -> float:
    return _f1_from_counts(*match_counts(pred, gt, tau))


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
    pooled = {tau: [0, 0, 0] for tau in OVERLAP_THRESHOLDS}
    for pred, gt in pairs:
        pred, gt = _check_pair(pred, gt)
        correct += int(np.sum(pred == gt))
        frames += pred.size
        p_segs, g_segs = segments_from_labels(pred), segments_from_labels(gt)
        edit_sum += _edit(p_segs, g_segs)
        count += 1
        for tau in OVERLAP_THRESHOLDS:
            tp, fp, fn = _match(p_segs, g_segs, tau)
            pooled[tau][0] += tp
            pooled[tau][1] += fp
            pooled[tau][2] += fn
    if count == 0:
        raise ShapeError("no videos to evaluate")
    report = {f"F1@{int(round(tau * 100))}": _f1_from_counts(*counts)
              for tau, counts in pooled.items()}
    report["Edit"] = edit_sum / count
    report["Acc"] = 100.0 * correct / frames
    report["Avg"] = sum(report.values()) / len(report)
    return report
