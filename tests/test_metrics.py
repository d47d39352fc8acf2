"""Metric implementations checked against independent brute-force references.

The references here share no code with `hyptas.metrics`: accuracy counts in
a Python loop, the edit reference is a memoized recursion, and the F1
reference works on explicit frame-index sets under the same pinned tie rule.
Two oracles pin the library's kernels to their plain forms: the two-row
Levenshtein table for the bit-parallel edit distance, and the per-threshold
scan over every ground-truth segment, on the library's own IoU, for the
one-pass match at all thresholds.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyptas.errors import ShapeError
from hyptas.metrics import (
    OVERLAP_THRESHOLDS,
    Segment,
    _levenshtein,
    _match,
    _segment_iou,
    evaluate_videos,
    segments_from_labels,
)


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def ref_accuracy(pred, gt):
    hits = 0
    for p, g in zip(pred, gt):
        if p == g:
            hits += 1
    return 100.0 * hits / len(pred)


def ref_edit(pred, gt):
    def runs(seq):
        out = []
        for v in seq:
            if not out or out[-1] != v:
                out.append(v)
        return tuple(out)

    a, b = runs(pred), runs(gt)

    @lru_cache(maxsize=None)
    def lev(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            lev(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
            lev(i - 1, j) + 1,
            lev(i, j - 1) + 1,
        )

    return 100.0 * (1.0 - lev(len(a), len(b)) / max(len(a), len(b)))


def ref_segments(seq):
    """Segments as (label, frozenset of frame indices), in temporal order."""
    segs = []
    start = 0
    for i in range(1, len(seq)):
        if seq[i] != seq[start]:
            segs.append((seq[start], frozenset(range(start, i))))
            start = i
    segs.append((seq[start], frozenset(range(start, len(seq)))))
    return segs


def ref_match_counts(pred, gt, tau):
    """Greedy matching on frame sets: strict IoU > tau, earliest-GT ties."""
    p_segs = ref_segments(list(pred))
    g_segs = ref_segments(list(gt))
    taken = set()
    tp = 0
    for label, frames in p_segs:
        best = None
        for j, (g_label, g_frames) in enumerate(g_segs):
            if j in taken or g_label != label:
                continue
            iou = len(frames & g_frames) / len(frames | g_frames)
            if best is None or iou > best[0]:
                best = (iou, j)
        if best is not None and best[0] > tau:
            tp += 1
            taken.add(best[1])
    return tp, len(p_segs) - tp, len(g_segs) - tp


def ref_f1(pred, gt, tau):
    tp, fp, fn = ref_match_counts(pred, gt, tau)
    if tp + fp == 0 or tp + fn == 0:
        return 0.0
    p = tp / (tp + fp)
    r = tp / (tp + fn)
    return 0.0 if p + r == 0 else 100.0 * 2 * p * r / (p + r)


def enumerate_maximal_matchings(pred, gt, tau):
    """Sizes of every maximal matching in the same-label IoU > tau graph."""
    p_segs = ref_segments(list(pred))
    g_segs = ref_segments(list(gt))
    edges = [
        {
            j
            for j, (gl, gf) in enumerate(g_segs)
            if gl == pl and len(pf & gf) / len(pf | gf) > tau
        }
        for pl, pf in p_segs
    ]

    all_sizes = set()

    def walk(i, taken, size, skipped):
        if i == len(edges):
            if all(not (edges[k] - taken) for k in skipped):  # cannot extend
                all_sizes.add(size)
            return
        walk(i + 1, taken, size, skipped + [i])
        for j in sorted(edges[i] - taken):
            walk(i + 1, taken | {j}, size + 1, skipped)

    walk(0, frozenset(), 0, [])
    return all_sizes


def dp_levenshtein(a, b):
    """The textbook two-row Levenshtein table."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        row = [i]
        for j, y in enumerate(b, start=1):
            row.append(min(prev[j - 1] + (x != y), prev[j] + 1, row[j - 1] + 1))
        prev = row
    return prev[-1]


def scan_match(p_segs, g_segs, tau):
    """One threshold at a time, scanning every ground-truth segment for each
    prediction (the rule before candidates were listed once per pair)."""
    used = [False] * len(g_segs)
    tp = 0
    for p in p_segs:
        best_iou, best_j = 0.0, -1
        for j, g in enumerate(g_segs):
            if used[j] or g.label != p.label:
                continue
            iou = _segment_iou(p, g)
            if iou > best_iou:
                best_iou, best_j = iou, j
        if best_j >= 0 and best_iou > tau:
            tp += 1
            used[best_j] = True
    return tp, len(p_segs) - tp, len(g_segs) - tp


def accuracy(pred, gt):
    return evaluate_videos([(pred, gt)])["Acc"]


def edit(pred, gt):
    return evaluate_videos([(pred, gt)])["Edit"]


F1_KEYS = {0.10: "F1@10", 0.25: "F1@25", 0.50: "F1@50"}


def f1(pred, gt, tau):
    """The one-pair report's F1 at a threshold of OVERLAP_THRESHOLDS."""
    return evaluate_videos([(pred, gt)])[F1_KEYS[tau]]


def true_positives(pred, gt, tau):
    """TP from the one-pair report's F1 = 200 TP / (predicted + ground-truth segments)."""
    segments = len(segments_from_labels(pred)) + len(segments_from_labels(gt))
    return round(f1(pred, gt, tau) * segments / 200.0)


def random_pair(rng, max_len=30, classes=5):
    n = int(rng.integers(1, max_len + 1))
    pred = rng.integers(0, classes, size=n)
    gt = rng.integers(0, classes, size=n)
    return pred, gt


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestSegments:
    def test_two_runs(self):
        segs = segments_from_labels([0, 0, 1, 1])
        assert segs == [Segment(0, 0, 1), Segment(1, 2, 3)]

    def test_single_frame(self):
        assert segments_from_labels([3]) == [Segment(3, 0, 0)]

    def test_alternating(self):
        assert len(segments_from_labels([0, 1, 0])) == 3

    def test_tiles_input(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            labels = rng.integers(0, 4, size=rng.integers(1, 50))
            segs = segments_from_labels(labels)
            rebuilt = np.concatenate([[s.label] * (s.end - s.start + 1) for s in segs])
            assert np.array_equal(rebuilt, labels)
            for a, b in zip(segs, segs[1:]):
                assert a.label != b.label and b.start == a.end + 1

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            segments_from_labels([])


class TestFrameAccuracy:
    def test_identical(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 100.0

    def test_three_quarters(self):
        assert accuracy([0, 1, 1, 1], [0, 0, 1, 1]) == 75.0

    def test_disjoint(self):
        assert accuracy([0, 0], [1, 1]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            accuracy([0], [0, 1])


class TestEditScore:
    def test_identical_sequences(self):
        assert edit([0, 0, 1, 2, 2], [0, 1, 1, 2, 2]) == 100.0

    def test_worked_example(self):
        # gt segments [A, B, A] vs pred segments [A, B]: one deletion of three
        assert edit([0, 0, 1, 1, 1, 1], [0, 0, 1, 1, 0, 0]) == pytest.approx(100 * (1 - 1 / 3))

    def test_fully_disjoint(self):
        assert edit([0, 1, 2], [3, 4, 5]) == 0.0

    def test_against_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            pred, gt = random_pair(rng)
            assert edit(pred, gt) == pytest.approx(ref_edit(list(pred), list(gt)), abs=1e-12)


class TestF1:
    def test_identical_inputs_all_thresholds(self):
        seq = [0, 0, 1, 1, 2]
        for tau in (0.10, 0.25, 0.50):
            assert f1(seq, seq, tau) == 100.0

    def test_worked_example_strict_threshold(self):
        # pred [A:0, B:1-3] vs gt [A:0-1, B:2-3] at tau = 0.5:
        # IoU(A) = 0.5 misses on the strict rule, IoU(B) = 2/3 hits -> F1 = 50;
        # at tau = 0.25 both hit.
        pred = [0, 1, 1, 1]
        gt = [0, 0, 1, 1]
        assert f1(pred, gt, 0.50) == pytest.approx(50.0)
        assert f1(pred, gt, 0.25) == 100.0

    def test_unmatched_predictions_are_false_positives(self):
        # TP = 1 (pred 0:3), FP = 1 (pred 2:0-2), FN = 0: P = 1/2, R = 1
        assert f1([2, 2, 2, 0], [0, 0, 0, 0], 0.10) == pytest.approx(200.0 / 3.0)

    def test_equal_iou_goes_to_the_earliest_ground_truth(self):
        # pred 0:3-6 overlaps gt 0:0-3 and gt 0:6-9 each by one frame of a
        # 7-frame union. Taking the earliest leaves gt 0:6-9 for pred 0:8-9
        # (IoU 2/4); taking the later one would leave pred 0:8-9 unmatched.
        pred = [2, 2, 2, 0, 0, 0, 0, 2, 0, 0]
        gt = [0, 0, 0, 0, 1, 1, 0, 0, 0, 0]
        assert ref_match_counts(pred, gt, 0.10) == (2, 2, 1)
        assert f1(pred, gt, 0.10) == pytest.approx(400.0 / 7.0)  # P = 2/4, R = 2/3

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            pred, gt = random_pair(rng)
            scores = [f1(pred, gt, tau) for tau in (0.10, 0.25, 0.50)]
            assert scores[0] >= scores[1] >= scores[2]

    def test_against_frame_set_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            pred, gt = random_pair(rng)
            for tau in (0.10, 0.25, 0.50):
                assert f1(pred, gt, tau) == pytest.approx(ref_f1(pred, gt, tau), abs=1e-12)

    def test_greedy_agrees_with_maximal_matching_enumeration(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            pred, gt = random_pair(rng, max_len=18, classes=3)
            for tau in (0.10, 0.50):
                sizes = enumerate_maximal_matchings(pred, gt, tau)
                tp = true_positives(pred, gt, tau)
                assert tp in sizes
                assert tp == max(sizes)


class TestBoundsAndPooling:
    def test_all_metrics_within_range(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            pred, gt = random_pair(rng)
            values = [
                accuracy(pred, gt),
                edit(pred, gt),
                f1(pred, gt, 0.25),
            ]
            assert all(0.0 <= v <= 100.0 for v in values)

    def test_perfect_on_identical(self):
        rng = np.random.default_rng(29)
        gt = rng.integers(0, 4, size=40)
        report = evaluate_videos([(gt, gt)])
        for key in ("F1@10", "F1@25", "F1@50", "Edit", "Acc", "Avg"):
            assert report[key] == 100.0

    def test_pooling_conventions(self):
        a_pred, a_gt = np.array([0, 0, 1, 1]), np.array([0, 0, 1, 1])
        b_pred, b_gt = np.array([2, 2, 2, 2, 2, 2]), np.array([2, 2, 2, 3, 3, 3])
        report = evaluate_videos([(a_pred, a_gt), (b_pred, b_gt)])
        # accuracy pools frames: (4 + 3) / 10
        assert report["Acc"] == pytest.approx(70.0)
        # edit averages per video: (100 + 50) / 2
        assert report["Edit"] == pytest.approx(75.0)
        # F1@50 pools counts: video a gives TP=2; video b's lone pred segment
        # covers gt segment 2 with IoU 3/6 = 0.5, not > 0.5, so video b gives
        # TP=0, FP=1, FN=2. Pooled: P = 2/3, R = 2/4.
        assert report["F1@50"] == pytest.approx(100 * 2 * (2 / 3) * (1 / 2) / ((2 / 3) + (1 / 2)))

    def test_avg_is_unweighted_mean(self):
        rng = np.random.default_rng(31)
        pairs = [random_pair(rng) for _ in range(5)]
        report = evaluate_videos(pairs)
        manual = (
            report["F1@10"] + report["F1@25"] + report["F1@50"] + report["Edit"] + report["Acc"]
        ) / 5.0
        assert report["Avg"] == pytest.approx(manual, abs=1e-12)

    def test_report_pools_the_per_pair_functions_exactly(self):
        rng = np.random.default_rng(37)
        pairs = [random_pair(rng) for _ in range(20)]
        report = evaluate_videos(pairs)
        assert report["Edit"] == sum(edit(p, g) for p, g in pairs) / len(pairs)
        for tau in (0.10, 0.25, 0.50):
            tp, fp, fn = (sum(c) for c in zip(*(ref_match_counts(p, g, tau) for p, g in pairs)))
            precision, recall = tp / (tp + fp), tp / (tp + fn)
            f1 = 100.0 * 2.0 * precision * recall / (precision + recall)
            assert report[f"F1@{int(round(tau * 100))}"] == f1


PROPERTY = settings(derandomize=True, deadline=None, max_examples=200, database=None)


@st.composite
def label_lists(draw, max_size):
    symbols, size = draw(st.integers(1, 6)), draw(st.integers(0, max_size))
    return draw(st.lists(st.integers(0, symbols - 1), min_size=size, max_size=size))


@st.composite
def tied_pairs(draw):
    """Equal-length label sequences built from short runs of few labels, so
    that a prediction often overlaps two ground-truth segments equally."""
    labels = st.integers(0, draw(st.integers(1, 3)) - 1)
    runs = st.lists(st.tuples(labels, st.integers(1, 4)), min_size=1, max_size=20)
    pred, gt = ([v for v, n in draw(runs) for _ in range(n)] for _ in range(2))
    n = min(len(pred), len(gt))
    return pred[:n], gt[:n]


class TestKernelProperties:
    @PROPERTY
    @given(label_lists(100), label_lists(100))
    def test_levenshtein_equals_the_dp_table(self, a, b):
        # Up to 100 labels: masks wider than 64 bits, and empty sides.
        assert _levenshtein(a, b) == dp_levenshtein(a, b)

    @PROPERTY
    @given(tied_pairs(), st.lists(st.sampled_from([0.1, 0.2, 0.25, 1 / 3, 0.5, 2 / 3, 0.75]),
                                  min_size=1, max_size=4))
    def test_match_equals_the_per_threshold_scan(self, pair, taus):
        p_segs, g_segs = (segments_from_labels(seq) for seq in pair)
        taus = [*OVERLAP_THRESHOLDS, *taus]
        assert _match(p_segs, g_segs, taus) == [scan_match(p_segs, g_segs, t) for t in taus]
