import logging
import math
import warnings

import numpy as np
import pytest

import hyptas.autodiff as td
import hyptas.ballops as bo
from hyptas.autodiff import Tape, finite_diff_check
from hyptas.data import RunConfig
from hyptas.errors import ContractViolation, GeometryError, ShapeError
from hyptas.losses import (
    PHASES,
    Prototypes,
    cross_entropy,
    decay_factor,
    geodesic_guidance,
    phase_for_epoch,
    phase_loss,
    prototype_margin,
    push_pull,
    temporal_entailment,
)

from layer_oracles import softmax
from loss_surfaces import all_surfaces, draw_safe_config, entail_surface

LN3 = math.log(3.0)


def ball(tape, rows, c=1.0):
    return bo.exp_map_origin_rows(tape.leaf(np.asarray(rows, dtype=float)), c)


def const_ball(tape, rows):
    """Rows that are already ball coordinates, bound as constants."""
    return tape.const(np.asarray(rows, dtype=float))


class TestCrossEntropy:
    def test_one_hot_target_is_zero(self):
        tape = Tape()
        y = np.eye(3)[[0, 2, 1]]
        out = cross_entropy(tape.const(y), y, (3,))
        assert out.value.item() == pytest.approx(0.0, abs=1e-15)

    def test_uniform_four_classes(self):
        tape = Tape()
        p = tape.const(np.full((5, 4), 0.25))
        y = np.eye(4)[[0, 1, 2, 3, 0]]
        out = cross_entropy(p, y, (5,))
        assert out.value.item() == pytest.approx(math.log(4.0) / 4.0, abs=1e-12)
        assert out.value.item() == pytest.approx(0.346574, abs=1e-6)

    def test_single_frame_two_classes(self):
        tape = Tape()
        out = cross_entropy(tape.const(np.array([[0.5, 0.5]])), np.array([[1.0, 0.0]]), (1,))
        assert out.value.item() == pytest.approx(math.log(2.0) / 2.0, abs=1e-12)

    def test_shape_mismatch(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            cross_entropy(tape.const(np.ones((2, 3))), np.ones((3, 2)), (2,))

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            tape = Tape()
            logits = tape.const(rng.normal(size=(6, 4)))
            y = np.eye(4)[rng.integers(0, 4, size=6)]
            assert cross_entropy(softmax(logits), y, (6,)).value.item() >= 0.0


class TestTemporalEntailment:
    def test_constant_sequence_is_zero(self):
        tape = Tape()
        x = const_ball(tape, [[0.3, 0.1]] * 5)
        assert temporal_entailment(x, 0.1, 1.0, (5,)).value.item() == 0.0

    def test_radial_pair_is_zero(self):
        tape = Tape()
        x = const_ball(tape, [[0.2, 0.0], [0.6, 0.0]])
        assert temporal_entailment(x, 0.1, 1.0, (2,)).value.item() == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pair_frozen_value(self):
        # theta = acos(-0.8574929257125441) = 2.601173153319209,
        # alpha = asin(0.15) = 0.150568272776686 -> hinge 2.450604880542523
        tape = Tape()
        x = const_ball(tape, [[0.5, 0.0], [0.0, 0.5]])
        out = temporal_entailment(x, 0.1, 1.0, (2,)).value.item()
        assert out == pytest.approx(2.450604880542523, abs=1e-12)
        assert out == pytest.approx(2.450, abs=1e-3)

    def test_short_sequence_returns_zero_and_logs(self, caplog):
        tape = Tape()
        x = const_ball(tape, [[0.3, 0.0]])
        with caplog.at_level(logging.WARNING):
            out = temporal_entailment(x, 0.1, 1.0, (1,))
        assert out.value.item() == 0.0
        assert any(">= 2 frames" in r.message for r in caplog.records)

    def test_averages_over_pairs(self):
        tape = Tape()
        # one violating pair plus one satisfied pair; mean over L-1 = 2
        x = const_ball(tape, [[0.5, 0.0], [0.0, 0.5], [0.0, 0.7]])
        tape2 = Tape()
        first = temporal_entailment(
            const_ball(tape2, [[0.5, 0.0], [0.0, 0.5]]), 0.1, 1.0, (2,)).value.item()
        tape3 = Tape()
        second = temporal_entailment(
            const_ball(tape3, [[0.0, 0.5], [0.0, 0.7]]), 0.1, 1.0, (2,)).value.item()
        whole = temporal_entailment(x, 0.1, 1.0, (3,)).value.item()
        assert whole == pytest.approx((first + second) / 2.0, abs=1e-12)


CURVATURES = (0.25, 0.5, 2.0, 4.0)


class TestEntailmentCurvature:
    """The cone term of the ball of curvature c is the unit ball's term on
    sqrt(c) x, the isometry between the two balls."""

    @pytest.mark.parametrize("c", CURVATURES)
    def test_outward_pair_is_zero(self, c):
        # radii 0.45 and 0.9 of the ball's radius: at c = 0.25 the pair sits
        # at 0.9 and 1.8, outside the unit ball
        radius = 1.0 / math.sqrt(c)
        u = np.array([0.6, 0.8])
        tape = Tape()
        x = const_ball(tape, [0.45 * radius * u, 0.9 * radius * u])
        assert temporal_entailment(x, 0.1, c, (2,)).value.item() == 0.0

    @pytest.mark.parametrize("c", CURVATURES)
    def test_equals_the_unit_ball_term_on_scaled_rows(self, c):
        rng = np.random.default_rng(int(4 * c))
        rows = rng.normal(size=(10, 3))
        rows *= rng.uniform(0.05, 0.95, size=(10, 1)) / np.linalg.norm(rows, axis=1, keepdims=True)
        rows /= math.sqrt(c)
        tape = Tape()
        term = temporal_entailment(tape.const(rows), 0.1, c, (6, 4)).value
        unit = temporal_entailment(tape.const(rows * math.sqrt(c)), 0.1, 1.0, (6, 4)).value
        assert np.all(term > 0.0)
        assert term.tobytes() == unit.tobytes()

    @pytest.mark.parametrize("c", CURVATURES)
    def test_gradient_against_central_differences(self, c):
        rng = np.random.default_rng(int(8 * c))
        for _ in range(3):
            emb = draw_safe_config(rng, c=c)[0]
            assert finite_diff_check(entail_surface(c), [emb]) < 1e-4


class TestPrototypeMargin:
    def test_separated_pair_is_zero(self):
        tape = Tape()
        z = const_ball(tape, [[0.9, 0.0], [-0.9, 0.0]])  # distance ~5.9 > 2
        assert prototype_margin(z, 2.0, 1.0, 1).value.item() == 0.0

    def test_coincident_pair_costs_half_margin(self):
        tape = Tape()
        z = const_ball(tape, [[0.2, 0.1], [0.2, 0.1]])
        assert prototype_margin(z, 2.0, 1.0, 1).value.item() == pytest.approx(1.0, abs=1e-12)

    def test_three_coincident(self):
        tape = Tape()
        z = const_ball(tape, [[0.1, 0.0]] * 3)
        # 3 pairs, each costs m; / C(C-1) = 6 -> m/2
        assert prototype_margin(z, 2.0, 1.0, 1).value.item() == pytest.approx(1.0, abs=1e-12)

    def test_single_prototype_rejected(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            prototype_margin(const_ball(tape, [[0.1, 0.0]]), 2.0, 1.0, 1)


class TestPushPull:
    def test_on_prototype_at_t_zero(self):
        tape = Tape()
        x = const_ball(tape, [[0.5, 0.0]])
        z = const_ball(tape, [[0.5, 0.0]])
        out = push_pull(x, z, [0], 1000, "exp", 1.0, (1,)).value.item()
        assert out == pytest.approx(-LN3, abs=1e-12)

    def test_final_step_scales_push_by_inv_e(self):
        tape = Tape()
        x = const_ball(tape, [[0.5, 0.0]])
        z = const_ball(tape, [[0.5, 0.0]])
        out = push_pull(x, z, [1000], 1000, "exp", 1.0, (1,)).value.item()
        assert out == pytest.approx(-LN3 * math.exp(-1.0), abs=1e-12)

    def test_origin_embedding_is_floored_finite(self):
        tape = Tape()
        x = const_ball(tape, [[0.0, 0.0]])
        z = const_ball(tape, [[0.4, 0.0]])
        out = push_pull(x, z, [0], 1000, "exp", 1.0, (1,)).value.item()
        assert math.isfinite(out)
        # pull term ~ d(O, z) / floor
        assert out == pytest.approx(2.0 * math.atanh(0.4) / 1e-6, rel=1e-6)

    def test_lower_bound_minus_max_radius(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            tape = Tape()
            emb = rng.normal(size=(5, 3))
            x = bo.exp_map_origin_rows(tape.const(emb), 1.0)
            z = const_ball(tape, [[0.3, 0.0, 0.0]] * 5)
            t = int(rng.integers(0, 1001))
            kind = ("exp", "linear", "cosine")[int(rng.integers(0, 3))]
            out = push_pull(x, z, [t], 1000, kind, 1.0, (5,)).value.item()
            max_radius = float(np.max(np.atleast_1d(
                2.0 * np.arctanh(np.minimum(np.linalg.norm(x.value, axis=1), 1 - 1e-12))
            )))
            assert out >= -max_radius - 1e-9

    def test_unknown_decay_rejected(self):
        tape = Tape()
        x = const_ball(tape, [[0.2, 0.0]])
        with pytest.raises(ShapeError):
            push_pull(x, x, [0], 100, "quadratic", 1.0, (1,))


class TestGeodesicGuidance:
    def test_radial_alignment_is_zero(self):
        tape = Tape()
        direction = np.array([0.6, 0.8])
        x = const_ball(tape, [0.3 * direction])
        z = const_ball(tape, [0.4 * direction])
        assert geodesic_guidance(x, z, 1.0, (1,)).value.item() == pytest.approx(
            0.0, abs=1e-12
        )

    def test_embedding_on_prototype_is_zero(self):
        tape = Tape()
        z = const_ball(tape, [[0.4, 0.0]])
        assert geodesic_guidance(z, z, 1.0, (1,)).value.item() == pytest.approx(
            0.0, abs=1e-12
        )

    def test_antipodal_frozen_value(self):
        # defect = d(O,x) + d(x,z) - d(O,z) = 2 d(O,z) on the diameter
        tape = Tape()
        x = const_ball(tape, [[-0.4, 0.0]])
        z = const_ball(tape, [[0.4, 0.0]])
        expect = (2.0 * 2.0 * math.atanh(0.4)) ** 2
        out = geodesic_guidance(x, z, 1.0, (1,)).value.item()
        assert out == pytest.approx(expect, abs=1e-9)
        assert out == pytest.approx(2.8717, abs=1e-3)


def _terms(tape, emb, proto_tan, logits, labels, config):
    """Ball rows, prototypes, CE and every term value, evaluated directly."""
    rows = (len(labels),)
    x = bo.exp_map_origin_rows(tape.const(emb), 1.0)
    z = bo.exp_map_origin_rows(tape.const(proto_tan), 1.0)
    assigned = td.gather_rows(z, labels)
    ce = cross_entropy(softmax(tape.const(logits)), np.eye(4)[labels], rows)
    values = {
        "ce": ce.value.item(),
        "entail": temporal_entailment(x, config.cone_k, config.curvature, rows).value.item(),
        "margin": prototype_margin(z, config.margin, 1.0, 1).value.item(),
        "pp": push_pull(x, assigned, [100], config.timesteps, config.decay, 1.0, rows).value.item(),
        "gg": geodesic_guidance(x, assigned, 1.0, rows).value.item(),
    }
    return x, z, ce, values


class TestComposites:
    def test_all_weights_zero(self):
        rng = np.random.default_rng(5)
        emb, proto_tan, logits, labels = draw_safe_config(rng)
        config = RunConfig(lambda_ce=0.0, lambda_entail=0.0, lambda_margin=0.0,
                           lambda_pp=0.0, lambda_gg=0.0)
        for phase in PHASES:
            tape = Tape()
            x, z, ce, _ = _terms(tape, emb, proto_tan, logits, labels, config)
            total, components = phase_loss(phase, config, ce, x, z, labels, [100], True,
                                           (len(labels),))
            assert total.value.item() == 0.0
            assert list(components) == ["ce"]  # no term with lambda = 0 is computed

    def test_default_weights_match_documented_values(self):
        c = RunConfig()
        assert (c.lambda_ce, c.lambda_entail, c.lambda_margin, c.lambda_pp, c.lambda_gg) == (
            0.5, 0.05, 0.1, 0.1, 0.1,
        )
        assert (c.margin, c.cone_k, c.decay) == (2.0, 0.1, "exp")

    def test_phase_table(self):
        assert PHASES["stabilization"].terms == ("entail", "margin", "pp")
        assert PHASES["guidance"].terms == ("entail", "gg")
        assert PHASES["single"].terms == ("entail", "margin", "pp", "gg")
        assert [PHASES[p].trains_prototypes for p in ("stabilization", "guidance", "single")] == [
            True, False, True,
        ]

    def test_recomposition_matches_hand_sum(self):
        rng = np.random.default_rng(9)
        emb, proto_tan, logits, labels = draw_safe_config(rng)
        config = RunConfig()
        weight = {"ce": 0.5, "entail": 0.05, "margin": 0.1, "pp": 0.1, "gg": 0.1}
        for phase, names in [("stabilization", ["ce", "entail", "margin", "pp"]),
                             ("guidance", ["ce", "entail", "gg"]),
                             ("single", ["ce", "entail", "margin", "pp", "gg"])]:
            tape = Tape()
            x, z, ce, values = _terms(tape, emb, proto_tan, logits, labels, config)
            total, components = phase_loss(phase, config, ce, x, z, labels, [100], True,
                                           (len(labels),))
            assert {k: c.item() for k, c in components.items()} == {k: values[k] for k in names}
            hand = 0.0
            for k in names:
                hand += weight[k] * values[k]
            assert total.value.item() == hand  # same sums in the same order

    def test_zero_weight_skips_only_that_term(self):
        rng = np.random.default_rng(11)
        emb, proto_tan, logits, labels = draw_safe_config(rng)
        config = RunConfig(lambda_gg=0.0, lambda_margin=0.0)
        tape = Tape()
        x, z, ce, values = _terms(tape, emb, proto_tan, logits, labels, config)
        total, components = phase_loss("single", config, ce, x, z, labels, [100], False,
                                       (len(labels),))
        assert list(components) == ["ce", "entail", "pp"]
        assert total.value.item() == 0.5 * values["ce"] + 0.05 * values["entail"] + 0.1 * values["pp"]

    def test_guidance_keeps_frozen_contract(self):
        rng = np.random.default_rng(12)
        emb, proto_tan, logits, labels = draw_safe_config(rng)
        tape = Tape()
        x, z, ce, _ = _terms(tape, emb, proto_tan, logits, labels, RunConfig())
        with pytest.raises(ContractViolation, match="frozen prototypes"):
            phase_loss("guidance", RunConfig(), ce, x, z, labels, [100], False, (len(labels),))

    def test_single_phase_guides_toward_unfrozen_prototypes(self):
        rng = np.random.default_rng(12)
        emb, proto_tan, logits, labels = draw_safe_config(rng)
        tape = Tape()
        x, z, ce, values = _terms(tape, emb, proto_tan, logits, labels, RunConfig())
        _, components = phase_loss("single", RunConfig(), ce, x, z, labels, [100], False,
                                   (len(labels),))
        assert components["gg"].item() == values["gg"]

    def test_gradients_reach_prototypes_only_via_margin_and_pp(self):
        rng = np.random.default_rng(13)
        emb, proto_tan, logits, labels = draw_safe_config(rng)
        y = np.eye(4)[labels]
        config = RunConfig()

        tape = Tape()
        proto_leaf = tape.leaf(proto_tan)
        x = bo.exp_map_origin_rows(tape.const(emb), 1.0)
        z = bo.exp_map_origin_rows(proto_leaf, 1.0)
        rows = (len(labels),)
        ce = cross_entropy(softmax(tape.const(logits)), y, rows)
        total, _ = phase_loss("stabilization", config, ce, x, z, labels, [100], False, rows)
        grads = tape.backward(td.total(total))
        assert np.any(grads[proto_leaf] != 0.0)

        tape2 = Tape()
        proto_const = tape2.const(proto_tan)
        x2 = bo.exp_map_origin_rows(tape2.leaf(emb), 1.0)
        z2 = bo.exp_map_origin_rows(proto_const, 1.0)
        ce2 = cross_entropy(softmax(tape2.const(logits)), y, rows)
        total2, _ = phase_loss("guidance", config, ce2, x2, z2, labels, [100], True, rows)
        grads2 = tape2.backward(td.total(total2))
        assert proto_const not in grads2


class TestPhaseSelector:
    def test_before_boundary(self):
        assert phase_for_epoch(0, 10) == "stabilization"
        assert phase_for_epoch(9, 10) == "stabilization"

    def test_boundary_inclusive_guidance(self):
        assert phase_for_epoch(10, 10) == "guidance"

    def test_zero_e1_is_guidance_only(self):
        assert phase_for_epoch(0, 0) == "guidance"


class TestDecay:
    def test_all_kinds_start_at_one(self):
        for kind in ("exp", "linear", "cosine"):
            assert decay_factor(kind, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_monotone_nonincreasing(self):
        grid = np.linspace(0.0, 1.0, 101)
        for kind in ("exp", "linear", "cosine"):
            vals = [decay_factor(kind, float(u)) for u in grid]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_exp_at_one(self):
        assert decay_factor("exp", 1.0) == pytest.approx(0.3679, abs=1e-4)


class TestPrototypesType:
    def test_validation(self):
        with pytest.raises(ShapeError):
            Prototypes(np.zeros((1, 4)), 1.0)
        with pytest.raises(GeometryError):
            Prototypes(np.array([[1.5, 0.0], [0.0, 0.0]]), 1.0)
        with pytest.raises(GeometryError):
            Prototypes(np.array([[np.nan, 0.0], [0.0, 0.0]]), 1.0)

    def test_huge_coordinate_refused_before_squaring(self):
        # Squaring 1.7e308 overflows; the refusal comes first, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="strictly inside the ball"):
                Prototypes(np.array([[1.7e308, 0.0], [0.1, 0.2]]), 1.0)

    def test_freeze_makes_points_immutable(self):
        p = Prototypes(np.array([[0.1, 0.0], [0.0, 0.1]]), 1.0)
        p.freeze()
        assert p.frozen
        with pytest.raises(ValueError):
            p.points[0, 0] = 0.5

    def test_min_pairwise_distance(self):
        p = Prototypes(np.array([[0.3, 0.0], [0.4, 0.0], [0.0, 0.9]]), 1.0)
        expect = 2.0 * (math.atanh(0.4) - math.atanh(0.3))
        assert p.min_pairwise_distance() == pytest.approx(expect, abs=1e-12)


class TestGradientInvariant:
    def test_every_loss_passes_finite_differences(self):
        rng = np.random.default_rng(101)
        for trial in range(8):
            for name, f, leaves in all_surfaces(rng):
                err = finite_diff_check(f, leaves)
                assert err < 1e-4, f"{name} rel err {err:.3g} on trial {trial}"


class TestPackedPhaseLoss:
    """Over several stacked videos, every term is reduced per video, each with
    its own step and its own copy of the prototypes: every value and every
    gradient is the one that video gets alone."""

    ROWS = (5, 2, 7)
    STEPS = [40, 700, 333]

    def _run(self, phase, videos, proto_tan, steps):
        """Total, components and the gradients of (embeddings, logits,
        prototypes) of the videos stacked, `steps` one step per video."""
        emb, logits, labels = (np.concatenate([v[i] for v in videos]) for i in (0, 2, 3))
        rows = tuple(len(v[3]) for v in videos)
        tape = Tape()
        e, lg = tape.leaf(emb), tape.leaf(logits)
        p = tape.leaf(np.tile(proto_tan, (len(videos), 1)))
        x, z = bo.exp_map_origin_rows(e, 1.0), bo.exp_map_origin_rows(p, 1.0)
        ce = cross_entropy(softmax(lg), np.eye(4)[labels], rows)
        total, components = phase_loss(phase, RunConfig(), ce, x, z, labels, steps, True, rows)
        grads = tape.backward(td.total(total))
        return total.value, components, [grads[leaf] for leaf in (e, lg, p)]

    @pytest.mark.parametrize("phase", sorted(PHASES))
    def test_each_video_gets_the_bytes_it_gets_alone(self, phase):
        rng = np.random.default_rng(31)
        videos = [draw_safe_config(rng, frames=n) for n in self.ROWS]
        proto_tan = videos[0][1]
        total, components, grads = self._run(phase, videos, proto_tan, self.STEPS)
        assert total.shape == (3,)
        cuts = np.cumsum((0,) + self.ROWS)
        for v, video in enumerate(videos):
            alone_total, alone_components, alone_grads = self._run(
                phase, [video], proto_tan, self.STEPS[v : v + 1])
            assert total[v].tobytes() == alone_total.tobytes()
            assert {k: c[v] for k, c in components.items()} == {
                k: c[0] for k, c in alone_components.items()}
            lo, hi = cuts[v], cuts[v + 1]
            assert grads[0][lo:hi].tobytes() == alone_grads[0].tobytes()
            assert grads[1][lo:hi].tobytes() == alone_grads[1].tobytes()
            assert grads[2][4 * v : 4 * v + 4].tobytes() == alone_grads[2].tobytes()

    @pytest.mark.parametrize("phase", sorted(PHASES))
    def test_packed_total_against_central_differences(self, phase):
        rng = np.random.default_rng(32)
        videos = [draw_safe_config(rng, frames=n) for n in self.ROWS]
        labels = np.concatenate([v[3] for v in videos])

        def f(tape, leaves):
            e, lg, p = leaves
            x, z = bo.exp_map_origin_rows(e, 1.0), bo.exp_map_origin_rows(p, 1.0)
            ce = cross_entropy(softmax(lg), np.eye(4)[labels], self.ROWS)
            total, _ = phase_loss(phase, RunConfig(), ce, x, z, labels, self.STEPS, True, self.ROWS)
            return td.total(total)

        point = [np.concatenate([v[0] for v in videos]), np.concatenate([v[2] for v in videos]),
                 np.tile(videos[0][1], (3, 1))]
        assert finite_diff_check(f, point) < 1e-4

    def test_entailment_refuses_a_short_video_among_others(self):
        tape = Tape()
        x = const_ball(tape, np.full((4, 2), 0.1))
        with pytest.raises(ShapeError, match="packs only videos of >= 2 frames"):
            temporal_entailment(x, 0.1, 1.0, (3, 1))
