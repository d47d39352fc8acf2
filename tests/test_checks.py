"""The `hyptas check` suites: the stacked gradient check equals the serial
oracle bit for bit, and the gradient and metric suites fail on a planted
fault."""

import numpy as np
import pytest

import hyptas.autodiff as td
import hyptas.ballops as bo
import hyptas.metrics as metrics
from hyptas import checks
from hyptas.autodiff import finite_diff_check, stacked_finite_diff_check
from hyptas.errors import AutodiffError


def _serial(f):
    """The one-copy scalar form of a stackable surface."""
    return lambda tape, leaves: td.total(f(tape, leaves))


class TestStackedCentralDifferences:
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_equals_finite_diff_check_on_every_surface(self, seed):
        # `run_all(seed)` runs `gradient_composites(seed=seed + 4)`.
        rng = np.random.default_rng(seed + 4)
        for config in range(10):
            surfaces, leaves = checks._composite_surfaces(rng)
            for phase, f in zip(("stabilization", "guidance"), surfaces):
                stacked = stacked_finite_diff_check(f, leaves)
                serial = finite_diff_check(_serial(f), leaves)
                assert stacked == serial, (seed, config, phase)

    def test_each_copy_keeps_the_bits_of_its_own_pass(self):
        # Bit-equal values, not only an equal maximum: a leak from a
        # neighbouring copy that is too small to move the difference
        # quotients still shows here.
        surfaces, leaves = checks._composite_surfaces(np.random.default_rng(4))
        points = list(td._perturbed([np.asarray(p) for p in leaves], 1e-5))
        for f in surfaces:
            tape = td.Tape()
            stacked = f(tape, [tape.const(np.concatenate(c)) for c in zip(*points)]).value
            alone = []
            for arrays in points:
                tape = td.Tape()
                alone.append(f(tape, [tape.const(a) for a in arrays]).value[0])
            assert stacked.tolist() == alone

    def test_copy_order_is_plus_then_minus_per_coordinate(self):
        # f(x) = sum(x^3) per copy: swapping or shifting copies moves the
        # central differences far from 3 x^2.
        point = [np.array([[0.3, -0.7], [1.1, 0.2]])]

        def cube(tape, leaves):
            x = leaves[0]
            copies = x.value.shape[0] // 2
            return td.sums(td.mul(td.square(x), x), (2,) * copies)

        err = stacked_finite_diff_check(cube, point)
        assert err < 1e-9
        assert err == finite_diff_check(_serial(cube), point)

    def test_refuses_values_that_are_not_one_per_copy(self):
        def one_value(tape, leaves):  # sums all copies into one value
            return td.sums(leaves[0], (leaves[0].value.shape[0],))

        with pytest.raises(AutodiffError, match="4 perturbed points"):
            stacked_finite_diff_check(one_value, [np.ones((2, 1))])


class TestSuitesCanFail:
    def test_gradient_composites_catches_a_skewed_backward(self, monkeypatch):
        real = bo.origin_distance_rows

        def skewed(x, c):
            out = real(x, c)
            if out._push is not None:
                push = out._push
                out._push = lambda g: push(1.01 * g)
            return out

        assert checks.gradient_composites(configs=2).passed
        monkeypatch.setattr(bo, "origin_distance_rows", skewed)
        result = checks.gradient_composites(configs=2)
        assert not result.passed, result.detail

    def test_metrics_reference_agreement_catches_an_off_by_one_union(self, monkeypatch):
        def wide_union(a, b):
            inter = min(a.end, b.end) - max(a.start, b.start) + 1
            if inter <= 0:
                return 0.0
            return inter / (max(a.end, b.end) - min(a.start, b.start) + 2)

        assert checks.metrics_reference_agreement(pairs=200).passed
        monkeypatch.setattr(metrics, "_segment_iou", wide_union)
        result = checks.metrics_reference_agreement(pairs=200)
        assert not result.passed
        assert "F1@" in result.detail
