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
    out = []
    start = 0
    for i in range(1, labels.size):
        if labels[i] != labels[start]:
            out.append(Segment(int(labels[start]), start, i - 1))
            start = i
    out.append(Segment(int(labels[start]), start, labels.size - 1))
    return out


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
    m, n = len(a), len(b)
    dist = np.zeros((m + 1, n + 1), dtype=np.int64)
    dist[:, 0] = np.arange(m + 1)
    dist[0, :] = np.arange(n + 1)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            sub = dist[i - 1, j - 1] + (a[i - 1] != b[j - 1])
            dist[i, j] = min(sub, dist[i - 1, j] + 1, dist[i, j - 1] + 1)
    return int(dist[m, n])


def edit_score(pred: Sequence[int], gt: Sequence[int]) -> float:
    """100 * (1 - Levenshtein(segment labels) / max(segment counts))."""
    pred, gt = _check_pair(pred, gt)
    p_labels = [s.label for s in segments_from_labels(pred)]
    g_labels = [s.label for s in segments_from_labels(gt)]
    return 100.0 * (1.0 - _levenshtein(p_labels, g_labels) / max(len(p_labels), len(g_labels)))


def _segment_iou(a: Segment, b: Segment) -> float:
    inter = min(a.end, b.end) - max(a.start, b.start) + 1
    if inter <= 0:
        return 0.0
    union = max(a.end, b.end) - min(a.start, b.start) + 1
    return inter / union


def match_counts(pred: Sequence[int], gt: Sequence[int], tau: float) -> tuple[int, int, int]:
    """Greedy (TP, FP, FN) under the pinned rule described in the module docstring."""
    pred, gt = _check_pair(pred, gt)
    if not 0.0 < tau < 1.0:
        raise ShapeError(f"overlap threshold must lie in (0, 1), got {tau}")
    p_segs = segments_from_labels(pred)
    g_segs = segments_from_labels(gt)
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


def evaluate_videos(
    pairs: Iterable[tuple[Sequence[int], Sequence[int]]],
    thresholds: Sequence[float] = OVERLAP_THRESHOLDS,
) -> dict[str, float]:
    """Dataset-level report over (pred, gt) pairs.

    Accuracy is frame-pooled, F1@tau comes from pooled TP/FP/FN, edit is
    averaged per video. Returns the five metrics plus their unweighted mean
    under the key "Avg".
    """
    correct = 0
    frames = 0
    edit_sum = 0.0
    count = 0
    pooled = {tau: [0, 0, 0] for tau in thresholds}
    for pred, gt in pairs:
        pred, gt = _check_pair(pred, gt)
        correct += int(np.sum(pred == gt))
        frames += pred.size
        edit_sum += edit_score(pred, gt)
        count += 1
        for tau in thresholds:
            tp, fp, fn = match_counts(pred, gt, tau)
            pooled[tau][0] += tp
            pooled[tau][1] += fp
            pooled[tau][2] += fn
    if count == 0:
        raise ShapeError("no videos to evaluate")
    report = {f"F1@{int(round(tau * 100))}": _f1_from_counts(*pooled[tau]) for tau in thresholds}
    report["Edit"] = edit_sum / count
    report["Acc"] = 100.0 * correct / frames
    report["Avg"] = sum(report.values()) / len(report)
    return report
