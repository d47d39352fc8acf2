"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Every test here carries
the `acceptance` marker, so `pytest -m "not acceptance"` runs the rest of
the suite. The desk-scale experiments (criteria 5-8) share three fully
trained models per configuration through session fixtures; everything is
deterministic given the pinned seeds, so reported numbers are
bit-reproducible on one platform.
"""

import time

import numpy as np
import pytest

from hyptas import checks
from hyptas.autodiff import finite_diff_check
from hyptas.data import (
    RunConfig,
    SyntheticSpec,
    generate_synthetic,
    read_features,
    write_features,
)
from hyptas.diffusion import label_decode, label_encode, make_schedule, sample
from hyptas.metrics import evaluate_videos
from hyptas.trainer import infer_video, load_checkpoint, save_checkpoint, train

from loss_surfaces import all_surfaces

pytestmark = pytest.mark.acceptance

# Frozen desk-scale setup: C = 6, 40 train / 10 test, L ~= 100, moderate noise.
ACC_SPEC = SyntheticSpec(
    num_tasks=2, actions_per_task=2, shared_actions=2, videos=50,
    feature_dim=32, feature_noise=0.8, smoothing_halfwidth=1, seed=42,
)
EPOCHS = 180
SEEDS = (0, 1, 2)

CE_ONLY = dict(lambda_entail=0.0, lambda_margin=0.0, lambda_pp=0.0, lambda_gg=0.0)


@pytest.fixture(scope="session")
def desk_data():
    data = generate_synthetic(ACC_SPEC)
    assert len(data.train) == 40 and len(data.test) == 10 and data.num_classes == 6
    return data


def _evaluate(state, data, steps, seed_base):
    pairs = []
    for i, record in enumerate(data.test):
        pred, _, _ = infer_video(state, record.features, steps, seed=seed_base + i)
        pairs.append((pred, record.labels))
    return evaluate_videos(pairs)


@pytest.fixture(scope="session")
def trained_full(desk_data):
    runs = []
    for seed in SEEDS:
        t0 = time.time()
        state, log = train(desk_data, RunConfig(epochs=EPOCHS, seed=seed))
        runs.append((state, log, time.time() - t0))
    return runs


@pytest.fixture(scope="session")
def trained_ce_only(desk_data):
    return [
        train(desk_data, RunConfig(epochs=EPOCHS, seed=seed, **CE_ONLY))[0] for seed in SEEDS
    ]


@pytest.fixture(scope="session")
def trained_one_phase(desk_data):
    return [
        train(desk_data, RunConfig(epochs=EPOCHS, seed=seed, single_phase=True))[0]
        for seed in SEEDS
    ]


class TestCriterion1Geometry:
    def test_geometry_suite(self):
        t0 = time.time()
        results = [
            checks.geometry_roundtrip(),
            checks.geometry_metric_axioms(),
            checks.geometry_radial_additivity(),
            checks.geometry_cone_axis(),
        ]
        elapsed = time.time() - t0
        for result in results:
            assert result.passed, f"{result.name}: {result.detail}"
        assert elapsed < 5.0, f"geometry suite took {elapsed:.2f}s"
        print(f"\nACCEPTANCE 1: PASS - geometry suite ({elapsed:.2f}s): "
              + "; ".join(r.detail for r in results))


class TestCriterion2Gradients:
    def test_fifty_configurations_per_loss(self):
        t0 = time.time()
        rng = np.random.default_rng(2024)
        worst = {}
        for _ in range(50):
            for name, f, leaves in all_surfaces(rng):
                err = finite_diff_check(f, leaves)
                worst[name] = max(worst.get(name, 0.0), err)
                assert err < 1e-4, f"{name}: rel err {err:.3g}"
        elapsed = time.time() - t0
        assert elapsed < 30.0, f"gradient suite took {elapsed:.2f}s"
        summary = ", ".join(f"{k}={v:.2g}" for k, v in worst.items())
        print(f"\nACCEPTANCE 2: PASS - gradient suite ({elapsed:.2f}s), "
              f"worst rel errs: {summary}")


class TestCriterion3SamplerOracle:
    def test_perfect_predictor_recovery(self):
        rng = np.random.default_rng(7)
        schedule = make_schedule(1000)
        worst = 0.0
        for steps in (1, 8, 25):
            labels = rng.integers(0, 6, size=60)
            clean = label_encode(labels, 6)
            target = (clean + 1.0) / 2.0
            noise = np.random.default_rng(11).standard_normal(clean.shape)
            probs = sample(lambda y, t: target.copy(), steps, schedule, noise)
            err = float(np.max(np.abs((2.0 * probs - 1.0) - clean)))
            worst = max(worst, err)
            assert err < 1e-6, f"steps={steps}: reconstruction error {err:.3g}"
            assert np.array_equal(label_decode(probs), labels)
        print(f"\nACCEPTANCE 3: PASS - oracle sampler recovery, max error {worst:.3g} "
              f"(limit 1e-6) at steps 1/8/25")


class TestCriterion4MetricsOracle:
    def test_brute_force_agreement(self):
        result = checks.metrics_reference_agreement()
        assert result.passed, result.detail
        assert evaluate_videos([([0, 1, 1, 1], [0, 0, 1, 1])])["F1@50"] == 50.0
        print(f"\nACCEPTANCE 4: PASS - {result.detail}; worked example F1@50 = 50.0")


class TestCriterion5DeskScale:
    def test_accuracy_and_edit_thresholds(self, trained_full, desk_data):
        reports = [_evaluate(state, desk_data, 25, 1000) for state, _, _ in trained_full]
        mean_acc = float(np.mean([r["Acc"] for r in reports]))
        mean_edit = float(np.mean([r["Edit"] for r in reports]))
        total_time = sum(elapsed for _, _, elapsed in trained_full)
        assert mean_acc >= 90.0, f"mean accuracy {mean_acc:.2f} < 90"
        assert mean_edit >= 80.0, f"mean edit {mean_edit:.2f} < 80"
        assert total_time < 900.0, f"training took {total_time:.0f}s"
        per_seed = ", ".join(
            f"seed {s}: acc {r['Acc']:.1f} edit {r['Edit']:.1f}" for s, r in zip(SEEDS, reports)
        )
        print(f"\nACCEPTANCE 5: PASS - mean acc {mean_acc:.2f} (>=90), mean edit "
              f"{mean_edit:.2f} (>=80), 3 runs in {total_time:.0f}s (<900s); {per_seed}")


class TestCriterion6PhaseDiscipline:
    def test_freeze_and_gradient_audit(self, trained_full):
        e1 = int(round(0.4 * EPOCHS))
        for state, log, _ in trained_full:
            phases = log.phases()
            assert phases[:e1] == ["stabilization"] * e1
            assert phases[e1:] == ["guidance"] * (EPOCHS - e1)
            frozen_checksums = {r.prototype_checksum for r in log.records if r.epoch >= e1}
            assert len(frozen_checksums) == 1, "prototypes moved after the freeze epoch"
            for record in log.records:
                if record.epoch < e1:
                    assert "gg" not in record.components
                    assert "margin" in record.components and "pp" in record.components
                else:
                    assert "margin" not in record.components
                    assert "pp" not in record.components
                    assert "gg" in record.components
            assert state.prototypes.frozen
        print(f"\nACCEPTANCE 6: PASS - prototype checksums constant for e >= E1 = {e1}; "
              f"margin/push-pull only in phase 1, geodesic guidance only in phase 2, "
              f"all {len(SEEDS)} seeds")


class TestCriterion7DirectionalAblation:
    def test_full_vs_ce_only_and_two_vs_one_phase(
        self, trained_full, trained_ce_only, trained_one_phase, desk_data
    ):
        full = [_evaluate(s, desk_data, 25, 1000)["Avg"] for s, _, _ in trained_full]
        ce = [_evaluate(s, desk_data, 25, 1000)["Avg"] for s in trained_ce_only]
        one = [_evaluate(s, desk_data, 25, 1000)["Avg"] for s in trained_one_phase]
        mean_full, mean_ce, mean_one = map(lambda v: float(np.mean(v)), (full, ce, one))
        assert mean_full >= mean_ce, f"full {mean_full:.2f} < CE-only {mean_ce:.2f}"
        assert mean_full >= mean_one, f"two-phase {mean_full:.2f} < one-phase {mean_one:.2f}"
        print(
            f"\nACCEPTANCE 7: PASS - mean Avg over seeds {SEEDS}: full {mean_full:.2f} >= "
            f"CE-only {mean_ce:.2f} (margin {mean_full - mean_ce:+.2f}); two-phase "
            f"{mean_full:.2f} >= one-phase {mean_one:.2f} (margin {mean_full - mean_one:+.2f}); "
            f"per-seed full {['%.2f' % v for v in full]}, CE {['%.2f' % v for v in ce]}, "
            f"one-phase {['%.2f' % v for v in one]}"
        )


class TestCriterion8InferenceSteps:
    def test_twenty_five_steps_vs_one(self, trained_full, desk_data):
        avg_1 = [_evaluate(s, desk_data, 1, 2000)["Avg"] for s, _, _ in trained_full]
        avg_25 = [_evaluate(s, desk_data, 25, 2000)["Avg"] for s, _, _ in trained_full]
        mean_1, mean_25 = float(np.mean(avg_1)), float(np.mean(avg_25))
        assert mean_25 >= mean_1, f"25 steps {mean_25:.2f} < 1 step {mean_1:.2f}"
        print(f"\nACCEPTANCE 8: PASS - mean Avg at 25 steps {mean_25:.2f} >= at 1 step "
              f"{mean_1:.2f} (margin {mean_25 - mean_1:+.2f}); per-seed 25 steps "
              f"{['%.2f' % v for v in avg_25]}, 1 step {['%.2f' % v for v in avg_1]}")


class TestCriterion9Determinism:
    SPEC = SyntheticSpec(
        num_tasks=2, actions_per_task=1, shared_actions=2, feature_dim=8,
        frames_per_segment=(8, 12), segments_per_video=(3, 4), feature_noise=0.3,
        videos=10, seed=5,
    )
    CONFIG = RunConfig(epochs=6, seed=17, timesteps=80, infer_steps=4)

    def test_bit_identical_checkpoints_and_predictions(self, tmp_path):
        data = generate_synthetic(self.SPEC)
        paths = []
        for name in ("a", "b"):
            state, _ = train(data, self.CONFIG)
            path = tmp_path / f"{name}.htck"
            save_checkpoint(state, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

        state = load_checkpoint(paths[0])
        video = data.test[0]
        direct, d_probs, d_ball = infer_video(state, video.features, 4, seed=3)
        reloaded = load_checkpoint(paths[0])
        again, a_probs, a_ball = infer_video(reloaded, video.features, 4, seed=3)
        assert np.array_equal(direct, again)
        assert d_probs.tobytes() == a_probs.tobytes()
        assert d_ball.tobytes() == a_ball.tobytes()

        feat_path = tmp_path / "roundtrip.htfe"
        write_features(feat_path, video.features)
        assert read_features(feat_path).tobytes() == video.features.tobytes()

        from hyptas.data import read_labels, read_mapping, write_labels, write_mapping

        names = data.class_names
        write_mapping(tmp_path / "mapping.txt", names)
        assert read_mapping(tmp_path / "mapping.txt") == names
        write_labels(tmp_path / "labels.txt", video.labels, names)
        assert np.array_equal(read_labels(tmp_path / "labels.txt", names), video.labels)
        print("\nACCEPTANCE 9: PASS - identical config+seed give bit-identical checkpoints; "
              "save/load gives bit-identical predictions, probabilities, and embeddings; "
              "feature/label/mapping/checkpoint files roundtrip bit-exactly")
