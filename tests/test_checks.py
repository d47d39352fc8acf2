"""The `hyptas check` suites: the stacked gradient check equals the serial
oracle bit for bit, the bitmask F1 reference equals its frozenset form and
the library, the printed lines hold, and the gradient and metric suites
fail on a planted fault."""

import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ball_oracles as oracle
import hyptas.autodiff as td
import hyptas.ballops as bo
import hyptas.metrics as metrics
from hyptas import checks
from hyptas.autodiff import finite_diff_check, stacked_finite_diff_check
from hyptas.cli import run
from hyptas.errors import AutodiffError


def _serial(f):
    """The one-copy scalar form of a stackable surface."""
    return lambda tape, leaves: td.total(f(tape, leaves))


def _configurations(seed):
    """The ten configurations that `gradient_composites(seed)` draws: their
    frame labels (10, frames) and their leaves."""
    rng = np.random.default_rng(seed)
    drawn = [checks._composite_configuration(rng) for _ in range(10)]
    return np.array([labels for labels, _ in drawn]), [leaves for _, leaves in drawn]


def _perturbed_by_loop(point):
    """The 2N perturbed points of `point`, one coordinate at a time: the
    reference for `autodiff._perturbed`."""
    for pi, p in enumerate(point):
        flat = p.reshape(-1)
        for ci in range(flat.size):
            for delta in (td.FD_STEP, -td.FD_STEP):
                moved = p.copy()
                moved.reshape(-1)[ci] = flat[ci] + delta
                yield point[:pi] + [moved] + point[pi + 1:]


PHASES = ("stabilization", "guidance")


class TestStackedCentralDifferences:
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_equals_finite_diff_check_on_every_configuration(self, seed):
        # `run_all(seed)` runs `gradient_composites(seed=seed + 4)`.
        labels, points = _configurations(seed + 4)
        for phase in PHASES:
            serial = []
            for k, leaves in enumerate(points):
                f = checks._phase_surface(phase, labels[k:k + 1])
                serial.append(finite_diff_check(_serial(f), leaves))
                assert stacked_finite_diff_check(f, [leaves]) == serial[-1], (seed, k, phase)
            assert stacked_finite_diff_check(checks._phase_surface(phase, labels), points) == max(serial)

    def test_each_copy_keeps_the_bits_of_its_own_pass(self):
        # Bit-equal values, not only an equal maximum: a leak from a
        # neighbouring copy that is too small to move the difference
        # quotients still shows here. The copies are those of the check's
        # one pass per phase: every configuration's 2N copies, in order.
        labels, points = _configurations(4)
        stacks = [td._perturbed([np.asarray(p) for p in leaves]) for leaves in points]
        copies = [np.concatenate(s).reshape((-1,) + s[0].shape[2:]) for s in zip(*stacks)]
        for phase in PHASES:
            f = checks._phase_surface(phase, labels)
            tape = td.Tape()
            stacked = f(tape, [tape.const(c) for c in copies]).value
            alone = []
            for k, own in enumerate(stacks):
                g = checks._phase_surface(phase, labels[k:k + 1])
                for i in range(own[0].shape[0]):
                    tape = td.Tape()
                    alone.append(g(tape, [tape.const(s[i]) for s in own]).value[0])
            assert stacked.tolist() == alone

    def test_each_copy_keeps_the_gradient_of_its_own_tape(self):
        labels, points = _configurations(4)
        base = [np.concatenate(inputs) for inputs in zip(*points)]
        for phase in PHASES:
            stacked = td._analytic(_serial(checks._phase_surface(phase, labels)), base, len(points))
            for k, leaves in enumerate(points):
                f = checks._phase_surface(phase, labels[k:k + 1])
                alone = td._analytic(_serial(f), leaves, 1)
                assert stacked[k].tobytes() == alone[0].tobytes(), (phase, k)

    def test_perturbed_copies_equal_the_coordinate_loop(self):
        rng = np.random.default_rng(2)
        point = [rng.normal(size=(3, 2)), rng.normal(size=(4,)), np.array(0.7)]
        stacks = td._perturbed(point)
        looped = list(_perturbed_by_loop(point))
        assert [s.shape[0] for s in stacks] == [len(looped)] * 3
        for k, arrays in enumerate(looped):
            for s, a in zip(stacks, arrays):
                assert s[k].shape == a.shape and s[k].tobytes() == a.tobytes(), k

    def test_copy_order_is_plus_then_minus_per_coordinate(self):
        # f(x) = sum(x^3) per copy: swapping or shifting copies moves the
        # central differences far from 3 x^2.
        points = [[np.array([[0.3, -0.7], [1.1, 0.2]])], [np.array([[-0.4, 0.9], [0.6, -1.2]])]]

        def cube(tape, leaves):
            x = leaves[0]
            copies = x.value.shape[0] // 2
            return td.sums(oracle.mul(td.square(x), x), (2,) * copies)

        err = stacked_finite_diff_check(cube, points)
        assert err < 1e-9
        assert err == max(finite_diff_check(_serial(cube), point) for point in points)

    def test_refuses_values_that_are_not_one_per_copy(self):
        def one_value(tape, leaves):  # sums all copies into one value
            return td.sums(leaves[0], (leaves[0].value.shape[0],))

        with pytest.raises(AutodiffError, match="4 perturbed points"):
            stacked_finite_diff_check(one_value, [[np.ones((2, 1))]])


def _frozenset_match_counts(pred, gt, taus):
    """`checks._ref_match_counts` over frozensets of frame indices: the
    reference for its bitmasks."""
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


@st.composite
def _run_sequences(draw, length):
    """A label sequence of `length` frames built from runs, with run lengths
    from a short list so that equal IoUs recur."""
    seq = []
    while len(seq) < length:
        seq += [draw(st.integers(0, 3))] * draw(st.sampled_from([1, 2, 3, 5, 10, 25, 70]))
    return seq[:length]


@st.composite
def _video_pairs(draw):
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        length = draw(st.integers(1, 200))
        pairs.append((draw(_run_sequences(length)), draw(_run_sequences(length))))
    return pairs


# The worked tie of `checks.WORKED_F1` with every frame repeated 25 times:
# 175 frames, so the bitmasks pass 64 bits, with the same two equal IoUs.
_LONG_TIE = ([v for v in (1, 1, 0, 0, 0, 1, 0) for _ in range(25)],
             [v for v in (0, 0, 0, 1, 0, 0, 0) for _ in range(25)])


class TestF1Reference:
    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(_video_pairs())
    @example([_LONG_TIE])
    def test_bitmask_counts_equal_frozensets_and_the_library(self, pairs):
        taus = metrics.OVERLAP_THRESHOLDS
        pooled = np.zeros((len(taus), 3), dtype=np.int64)
        for pred, gt in pairs:
            counts = checks._ref_match_counts(pred, gt, taus)
            assert counts == _frozenset_match_counts(pred, gt, taus)
            p_segs, g_segs = metrics.segments_from_labels(pred), metrics.segments_from_labels(gt)
            assert counts == metrics._match(p_segs, g_segs, taus)
            pooled += counts
        report = metrics.evaluate_videos(pairs)
        for tau, counts in zip(taus, pooled.tolist()):
            assert report[f"F1@{round(tau * 100)}"] == checks._ref_f1(*counts)


# `hyptas check --seed 0` and `--seed 1`, every line but the runtime.
GOLDEN = {
    0: """\
ok   geometry.exp_log_roundtrip: max roundtrip error 3.26e-14 over 1000 pairs x 3 curvatures (limit 1e-9)
ok   geometry.metric_axioms: symmetry gap 1.69e-14 (limit 1e-12), worst triangle slack 7.4e-05 (limit -1e-9)
ok   geometry.radial_additivity: max additivity defect 9.77e-15 over 1000 rays (limit 1e-9)
ok   geometry.radial_cone_axis: max exterior angle on outward rays 0 rad (limit 1e-9)
ok   gradients.phase_composites: max relative error vs central differences 1.12e-06 over 10 configurations (limit 1e-4)
ok   sampler.oracle_recovery: max signal reconstruction error 0 at steps 1/8/25 (limit 1e-6)
ok   metrics.reference_agreement: accuracy/edit/F1 match brute-force references on 1000 random pairs and 2 worked pairs
8/8 suites passed
""",
    1: """\
ok   geometry.exp_log_roundtrip: max roundtrip error 3.38e-14 over 1000 pairs x 3 curvatures (limit 1e-9)
ok   geometry.metric_axioms: symmetry gap 2.84e-14 (limit 1e-12), worst triangle slack 0.000194 (limit -1e-9)
ok   geometry.radial_additivity: max additivity defect 1.24e-14 over 1000 rays (limit 1e-9)
ok   geometry.radial_cone_axis: max exterior angle on outward rays 0 rad (limit 1e-9)
ok   gradients.phase_composites: max relative error vs central differences 8.18e-08 over 10 configurations (limit 1e-4)
ok   sampler.oracle_recovery: max signal reconstruction error 0 at steps 1/8/25 (limit 1e-6)
ok   metrics.reference_agreement: accuracy/edit/F1 match brute-force references on 1000 random pairs and 2 worked pairs
8/8 suites passed
""",
}


class TestGoldenOutput:
    """A change that moves a printed line updates GOLDEN and says why."""

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_prints_the_pinned_lines(self, seed, capsys):
        assert run(["check", "--seed", str(seed)]) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert [line for line in lines if " runtime: " not in line] == GOLDEN[seed].splitlines(keepends=True)
        assert sum(" runtime: " in line for line in lines) == 1


class TestSuitesCanFail:
    def test_gradient_composites_catches_a_skewed_backward(self, monkeypatch):
        real = bo.origin_distance_rows

        def skewed(x, c):
            out = real(x, c)
            if out._push is not None:
                push = out._push
                out._push = lambda g: push(1.01 * g)
            return out

        assert checks.gradient_composites().passed
        monkeypatch.setattr(bo, "origin_distance_rows", skewed)
        result = checks.gradient_composites()
        assert not result.passed, result.detail

    def test_metrics_reference_agreement_catches_an_off_by_one_union(self, monkeypatch):
        def wide_union(a, b):
            inter = min(a.end, b.end) - max(a.start, b.start) + 1
            if inter <= 0:
                return 0.0
            return inter / (max(a.end, b.end) - min(a.start, b.start) + 2)

        assert checks.metrics_reference_agreement().passed
        monkeypatch.setattr(metrics, "_segment_iou", wide_union)
        result = checks.metrics_reference_agreement()
        assert not result.passed
        assert "F1@" in result.detail

    def test_metrics_reference_agreement_catches_an_edit_distance_one_too_many(self, monkeypatch):
        real = metrics._levenshtein

        def one_too_many(a, b):
            return real(a, b) + (a != b)

        monkeypatch.setattr(metrics, "_levenshtein", one_too_many)
        result = checks.metrics_reference_agreement()
        assert not result.passed
        assert "edit mismatch" in result.detail

    def test_metrics_reference_agreement_catches_an_intersection_one_too_short(self, monkeypatch):
        def short_intersection(a, b):
            inter = min(a.end, b.end) - max(a.start, b.start)
            if inter <= 0:
                return 0.0
            return inter / (max(a.end, b.end) - min(a.start, b.start) + 1)

        monkeypatch.setattr(metrics, "_segment_iou", short_intersection)
        result = checks.metrics_reference_agreement()
        assert not result.passed
        assert "F1@" in result.detail

    def test_metrics_reference_agreement_catches_ties_to_the_latest(self, monkeypatch):
        # `_match` with `>=` for `>`: an equal IoU moves the match to the later
        # ground-truth segment. No random pair of the suite decides such a tie.
        source = inspect.getsource(metrics._match)
        assert source.count("iou > best_iou") == 1
        namespace = dict(vars(metrics))
        exec(textwrap.dedent(source).replace("iou > best_iou", "iou >= best_iou"), namespace)
        monkeypatch.setattr(metrics, "_match", namespace["_match"])
        result = checks.metrics_reference_agreement()
        assert not result.passed
        assert "worked pair" in result.detail and "F1@10 28.57" in result.detail
