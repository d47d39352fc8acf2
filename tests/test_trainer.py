import gc
import math
import weakref

import numpy as np
import pytest

import ball_oracles
import hyptas.ballops as bo
import hyptas.optim
import hyptas.model
import hyptas.trainer
import layer_oracles
import train_oracle
from hyptas.autodiff import Tape
from hyptas.data import Dataset, RunConfig, SyntheticSpec, VideoRecord, generate_synthetic
from hyptas.diffusion import label_decode, make_schedule, sample
from hyptas.errors import FormatError, ShapeError
from hyptas.metrics import evaluate_videos
from hyptas.model import Denoiser, DenoiserConfig
from hyptas.trainer import (
    TrainedState,
    infer_video,
    infer_videos,
    init_prototypes,
    load_checkpoint,
    save_checkpoint,
    train,
)

TINY_SPEC = SyntheticSpec(
    num_tasks=2, actions_per_task=1, shared_actions=2, feature_dim=8,
    frames_per_segment=(8, 12), segments_per_video=(3, 4), feature_noise=0.3,
    videos=10, seed=5,
)


@pytest.fixture(scope="module")
def tiny_data():
    return generate_synthetic(TINY_SPEC)


@pytest.fixture(scope="module")
def tiny_run(tiny_data):
    config = RunConfig(epochs=10, e1=4, seed=3, infer_steps=4, timesteps=100)
    state, log = train(tiny_data, config)
    return state, log, config


class TestInitPrototypes:
    def test_same_seed_identical(self):
        a = init_prototypes(6, 16, 1.0, seed=4)
        b = init_prototypes(6, 16, 1.0, seed=4)
        assert np.array_equal(a.points, b.points)

    def test_norms_small_and_distinct(self):
        p = init_prototypes(12, 8, 1.0, seed=9)
        norms = np.linalg.norm(p.points, axis=1)
        assert np.all(norms <= 0.1 + 1e-12)
        assert p.min_pairwise_distance() > 0.0
        assert not p.frozen

    def test_large_class_count(self):
        p = init_prototypes(48, 16, 1.0, seed=0)
        assert p.points.shape == (48, 16)

    def test_too_few_classes(self):
        with pytest.raises(ShapeError):
            init_prototypes(1, 8, 1.0, seed=0)


class TestTrainLoop:
    def test_smoke_run_cross_entropy_descends(self, tiny_data):
        config = RunConfig(epochs=30, seed=1, infer_steps=2, timesteps=100)
        state, log = train(tiny_data, config)
        first = log.records[0].components["ce"]
        last = log.records[-1].components["ce"]
        assert last < first

    def test_phase_flips_exactly_once(self, tiny_run):
        _, log, config = tiny_run
        phases = log.phases()
        assert phases[: config.e1] == ["stabilization"] * config.e1
        assert phases[config.e1 :] == ["guidance"] * (config.epochs - config.e1)

    def test_prototype_checksum_constant_after_freeze(self, tiny_run):
        state, log, config = tiny_run
        frozen_sums = {r.prototype_checksum for r in log.records if r.epoch >= config.e1}
        assert len(frozen_sums) == 1
        stab_sums = {r.prototype_checksum for r in log.records if r.epoch < config.e1}
        assert len(stab_sums) > 1  # prototypes actually moved during stabilization
        assert state.prototypes.frozen

    def test_phase_discipline_of_components(self, tiny_run):
        _, log, config = tiny_run
        for record in log.records:
            if record.phase == "stabilization":
                assert "margin" in record.components and "pp" in record.components
                assert "gg" not in record.components
            else:
                assert "gg" in record.components
                assert "margin" not in record.components
                assert "pp" not in record.components
            assert "ce" in record.components and "entail" in record.components

    def test_e1_equal_epochs_never_guides(self, tiny_data):
        config = RunConfig(epochs=4, e1=4, seed=2, infer_steps=2, timesteps=50)
        state, log = train(tiny_data, config)
        assert set(log.phases()) == {"stabilization"}
        assert all("gg" not in r.components for r in log.records)
        assert not state.prototypes.frozen

    def test_e1_zero_is_guidance_only(self, tiny_data):
        config = RunConfig(epochs=4, e1=0, seed=2, infer_steps=2, timesteps=50)
        state, log = train(tiny_data, config)
        assert set(log.phases()) == {"guidance"}
        assert all("margin" not in r.components for r in log.records)
        checksums = {r.prototype_checksum for r in log.records}
        assert len(checksums) == 1  # frozen from the start

    def test_single_phase_keeps_prototypes_trainable(self, tiny_data):
        config = RunConfig(epochs=6, seed=2, infer_steps=2, timesteps=50, single_phase=True)
        state, log = train(tiny_data, config)
        assert set(log.phases()) == {"single"}
        assert not state.prototypes.frozen
        for record in log.records:
            assert {"ce", "entail", "margin", "pp", "gg"} <= set(record.components)
        assert len({r.prototype_checksum for r in log.records}) > 1

    def test_ce_only_ablation_parity(self, tiny_data):
        config = RunConfig(
            epochs=4, seed=2, infer_steps=2, timesteps=50,
            lambda_entail=0.0, lambda_margin=0.0, lambda_pp=0.0, lambda_gg=0.0,
        )
        _, log = train(tiny_data, config)
        for record in log.records:
            assert record.total == pytest.approx(
                config.lambda_ce * record.components["ce"], abs=0.0
            )

    def test_aux_head_off_path(self, tiny_data):
        on = RunConfig(epochs=3, seed=6, infer_steps=2, timesteps=50, aux_head=True)
        off = RunConfig(epochs=3, seed=6, infer_steps=2, timesteps=50, aux_head=False)
        _, log_on = train(tiny_data, on)
        _, log_off = train(tiny_data, off)
        # the encoder head contributes a second cross-entropy term only when on
        assert log_on.records[0].components["ce"] > log_off.records[0].components["ce"]
        assert all(np.isfinite(r.total) for r in log_off.records)

    def test_deterministic_checkpoints(self, tiny_data, tmp_path):
        config = RunConfig(epochs=5, seed=11, infer_steps=2, timesteps=50)
        for name in ("a", "b"):
            state, _ = train(tiny_data, config)
            save_checkpoint(state, tmp_path / f"{name}.htck")
        assert (tmp_path / "a.htck").read_bytes() == (tmp_path / "b.htck").read_bytes()

    def test_eval_cadence_and_log_lines(self, tiny_run):
        _, log, config = tiny_run
        eval_epochs = [r.epoch for r in log.records if r.metrics is not None]
        assert eval_epochs  # at least the final epoch evaluates
        assert config.epochs - 1 in eval_epochs
        line = log.records[-1].format_line()
        assert line.startswith(f"epoch={config.epochs - 1} phase=")
        assert "acc=" in line and "avg=" in line

    def test_empty_training_split_rejected(self, tiny_data):
        from hyptas.data import Dataset

        empty = Dataset([], tiny_data.test, tiny_data.class_names, tiny_data.feature_dim)
        with pytest.raises(ShapeError):
            train(empty, RunConfig(epochs=1))


class TestInference:
    def test_output_length_matches_input(self, tiny_run, tiny_data):
        state, _, _ = tiny_run
        video = tiny_data.test[0]
        labels, probs, ball = infer_video(state, video.features, steps=3, seed=0)
        L = video.features.shape[0]
        assert labels.shape == (L,)
        assert probs.shape == (L, tiny_data.num_classes)
        assert ball.shape == (L, state.config.embed_dim)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_single_step_inference_works(self, tiny_run, tiny_data):
        state, _, _ = tiny_run
        labels, _, _ = infer_video(state, tiny_data.test[0].features, steps=1, seed=0)
        assert labels.shape[0] == tiny_data.test[0].features.shape[0]

    def test_same_seed_same_predictions(self, tiny_run, tiny_data):
        state, _, _ = tiny_run
        a = infer_video(state, tiny_data.test[0].features, steps=4, seed=9)
        b = infer_video(state, tiny_data.test[0].features, steps=4, seed=9)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_embeddings_inside_ball(self, tiny_run, tiny_data):
        state, _, _ = tiny_run
        _, _, ball = infer_video(state, tiny_data.test[0].features, steps=2, seed=0)
        c = state.config.curvature
        assert np.all(c * np.sum(ball * ball, axis=1) < 1.0)

    def test_feature_dim_mismatch(self, tiny_run):
        state, _, _ = tiny_run
        with pytest.raises(ShapeError):
            infer_video(state, np.zeros((5, 3)), steps=2, seed=0)

    @pytest.mark.parametrize("steps", [4, 1])
    def test_bytes_match_a_recording_tape_bound_per_step(self, tiny_run, tiny_data, steps):
        state, _, _ = tiny_run
        for i, video in enumerate(tiny_data.test):
            got = infer_video(state, video.features, steps=steps, seed=i)
            want = _infer_rebinding_every_step(state, video.features, steps, seed=i)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestPackedInference:
    @pytest.mark.parametrize("steps", [4, 1])
    def test_ten_videos_match_one_by_one(self, tiny_run, tiny_data, steps):
        state, _, _ = tiny_run
        videos = tiny_data.train + tiny_data.test
        assert len(videos) == 10
        assert len({v.features.shape[0] for v in videos}) > 1
        seeds = [31 * i + 5 for i in range(len(videos))]
        packed = infer_videos(state, [v.features for v in videos], steps, seeds)
        assert len(packed) == len(videos)
        for video, seed, (labels, probs, ball) in zip(videos, seeds, packed):
            want_labels, want_probs, want_ball = infer_video(state, video.features, steps, seed)
            assert np.array_equal(labels, want_labels)
            np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)
            np.testing.assert_allclose(ball, want_ball, rtol=0, atol=1e-12)

    def test_training_eval_metrics_equal_per_video_eval(self, tiny_run, tiny_data):
        state, log, config = tiny_run
        pairs = [
            (infer_video(state, rec.features, config.infer_steps,
                         seed=config.seed + 7919 * config.epochs + i)[0], rec.labels)
            for i, rec in enumerate(tiny_data.test)
        ]
        assert log.records[-1].metrics == evaluate_videos(pairs)

    def test_curvature_comes_from_the_prototypes(self, tiny_run, tiny_data):
        state, _, _ = tiny_run
        other = TrainedState(state.model, state.prototypes, state.schedule,
                             RunConfig(timesteps=100, infer_steps=4, curvature=3.0))
        video = tiny_data.test[0]
        a = infer_video(state, video.features, 2, seed=1)
        b = infer_video(other, video.features, 2, seed=1)
        assert a[2].tobytes() == b[2].tobytes()

    def test_no_tape_and_no_bind(self, tiny_run, tiny_data, monkeypatch):
        """The denoiser runs without a tape: inference creates none and binds
        no parameters (the ball map evaluates its op through `ballops`)."""
        state, _, _ = tiny_run
        made = []

        class CountedTape(Tape):
            def __init__(self):
                super().__init__()
                made.append(self)

        for module in (hyptas.trainer, hyptas.model, hyptas.autodiff):
            monkeypatch.setattr(module, "Tape", CountedTape)
        monkeypatch.setattr(Denoiser, "bind", lambda *args, **kwargs: made.append("bind"))
        packed = infer_videos(state, [v.features for v in tiny_data.test], 4, [0, 1])
        assert len(packed) == 2 and made == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, tiny_run, tiny_data, bad):
        state, _, _ = tiny_run
        features = [v.features.copy() for v in tiny_data.test]
        features[1][3, 2] = bad
        with pytest.raises(ShapeError, match="non-finite"):
            infer_videos(state, features, 2, [0, 1])

    @pytest.mark.parametrize("features,seeds", [
        ([], []),
        ([np.zeros((5, 8))], [0, 1]),
        ([np.zeros((5, 8)), np.zeros((0, 8))], [0, 1]),
    ])
    def test_bad_batches_rejected(self, tiny_run, features, seeds):
        state, _, _ = tiny_run
        with pytest.raises(ShapeError):
            infer_videos(state, features, 2, seeds)


def _infer_rebinding_every_step(state, features, steps, seed):
    """Reference inference: the condition on a tape of its own, then a new
    recording tape and a new bind for every sampler step."""
    rows = (features.shape[0],)
    cond_tape = Tape()
    condition = state.model.bind(cond_tape, trainable=False).encode(features, rows)[0].value
    last = {}

    def denoiser(y_t, t):
        tape = Tape()
        bound = state.model.bind(tape, trainable=False)
        emb, probs = bound.decode(tape.const(y_t), tape.const(condition), [t], rows)
        last["emb"] = emb.value
        return probs.value

    noise = np.random.default_rng(seed).standard_normal(
        (features.shape[0], state.model.config.classes)
    )
    probs = sample(denoiser, steps, state.schedule, noise)
    ball = bo.evaluate(bo.exp_map_origin_rows, last["emb"], state.config.curvature)
    return label_decode(probs), probs, ball


def _infer_packed_oracle(state, videos, steps, seeds):
    """Reference packed inference: `infer_videos` with the forward-only
    arithmetic of `layer_oracles.packed_denoiser`."""
    decode = layer_oracles.packed_denoiser(state.model, videos)
    last = {}

    def denoiser(y_t, t):
        last["emb"], probs = decode(y_t, t)
        return probs

    rows = [v.shape[0] for v in videos]
    noise = np.concatenate([
        np.random.default_rng(seed).standard_normal((n, state.model.config.classes))
        for seed, n in zip(seeds, rows)
    ])
    probs = sample(denoiser, steps, state.schedule, noise)
    ball = bo.evaluate(bo.exp_map_origin_rows, last["emb"], state.prototypes.curvature)
    cuts = np.cumsum(rows)[:-1]
    return list(zip(*(np.split(a, cuts) for a in (label_decode(probs), probs, ball))))


# A 1-frame video, and videos shorter than the widest pad (8, at dilation 8).
ODD_ROWS = (3, 1, 7, 2, 5, 1, 6, 4)


@pytest.fixture(scope="module")
def odd_state():
    """3 classes, embed_dim 11 and encoder_channels 9: output widths 1-3 mod 8,
    where a matmul row's bits can depend on the row count. The weights are
    drawn at random, with the biases spread so that relus die."""
    config = RunConfig(timesteps=100, infer_steps=4, embed_dim=11, encoder_channels=9)
    model = Denoiser(DenoiserConfig(feature_dim=5, classes=3, embed_dim=11, encoder_channels=9),
                     seed=6)
    rng = np.random.default_rng(6)
    model.flat += rng.normal(scale=0.3, size=model.flat.shape)
    state = TrainedState(model, init_prototypes(3, 11, 1.0, seed=7), make_schedule(100), config)
    return state, [rng.normal(size=(n, 5)) for n in ODD_ROWS]


class TestForwardRunner:
    """`infer_videos` runs the denoiser in a `model.ForwardRunner`, with the
    bytes of a bound pass for one video and of the forward-only arithmetic
    over the stacked videos of a split: labels, probabilities and ball
    coordinates."""

    @pytest.mark.parametrize("steps", [4, 1])
    def test_one_video_matches_a_tape_bound_per_step(self, odd_state, steps):
        state, videos = odd_state
        for i, features in enumerate(videos):
            got = infer_video(state, features, steps, seed=i)
            want = _infer_rebinding_every_step(state, features, steps, seed=i)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("steps", [4, 1])
    def test_packed_matches_the_forward_only_oracle(self, odd_state, steps):
        state, videos = odd_state
        seeds = [13 * i + 2 for i in range(len(videos))]
        got = infer_videos(state, videos, steps, seeds)
        want = _infer_packed_oracle(state, videos, steps, seeds)
        assert len(got) == len(want) == len(videos)
        for g, w in zip(got, want):
            assert [a.tobytes() for a in g] == [a.tobytes() for a in w]
        # relu keeps -0.0 for a negative input, and the ball map keeps its sign
        ball = np.concatenate([w[2] for w in want])
        assert np.any((ball == 0.0) & np.signbit(ball)) and np.any(ball > 0.0)


def packed_groups(dataset, config):
    """Tapes per training run when every chunk packs into one group (each of
    its videos has at least 2 frames, and it holds at most PACK_ROWS)."""
    lengths = [video.labels.shape[0] for video in dataset.train]
    assert min(lengths) >= 2 and max(lengths) * config.batch_size <= hyptas.trainer.PACK_ROWS
    return config.epochs * math.ceil(len(lengths) / config.batch_size)


class TestStepGraphLifetime:
    def test_step_graph_freed_without_the_cycle_collector(self, tiny_data, monkeypatch):
        """Each training group's graph is freed by reference counting alone:
        by the next group's backward, the previous group's loss node is gone,
        and only the previous tape is still held (by the gradient dict's
        leaves). A tape that kept its record after backward would keep every
        graph alive here, since the cycle collector is off."""
        tapes, outputs = [], []
        live_tapes, live_outputs = [], []
        backward = Tape.backward

        def tracking_backward(tape, output):
            live_tapes.append(sum(ref() is not None for ref in tapes))
            live_outputs.append(sum(ref() is not None for ref in outputs))
            tapes.append(weakref.ref(tape))
            outputs.append(weakref.ref(output._push))  # lives exactly as long as the node
            return backward(tape, output)

        monkeypatch.setattr(Tape, "backward", tracking_backward)
        config = RunConfig(epochs=2, e1=1, seed=3, infer_steps=2, timesteps=50)
        gc.collect()
        gc.disable()
        try:
            train(tiny_data, config)
            alive_after = sum(ref() is not None for ref in tapes + outputs)
        finally:
            gc.enable()
        assert len(tapes) == packed_groups(tiny_data, config)
        assert max(live_outputs) == 0
        assert max(live_tapes) <= 1
        assert alive_after == 0


class TestRecordedNodes:
    def test_training_steps_record_only_nodes_backward_visits(self, tiny_data, monkeypatch):
        """Every node a training group's tape records is a leaf or an op that
        needs a gradient, in the stabilization (epoch 0) and guidance (epoch
        1) phases alike: constants, and ops over constants only, stay off the
        tape."""
        config = RunConfig(epochs=2, e1=1, seed=3, infer_steps=2, timesteps=50)
        backward, steps = Tape.backward, []

        def inspect(tape, output):
            steps.append([(node.needs_grad, node._push is None) for node in tape.nodes])
            return backward(tape, output)

        monkeypatch.setattr(Tape, "backward", inspect)
        train(tiny_data, config)
        assert len(steps) == packed_groups(tiny_data, config)
        for nodes in steps:
            assert all(needs_grad for needs_grad, _ in nodes)
            assert any(is_leaf for _, is_leaf in nodes) and not all(is_leaf for _, is_leaf in nodes)


class TestSkippedGradients:
    def test_step_gradients_keep_the_bytes_of_computing_every_branch(self, tiny_data, monkeypatch):
        """The gradient rules of the two-operand primitives and `scale_rows`
        skip operands that need no gradient, as the denoiser's stack nodes
        skip their first layer's input gradient; the fused ball ops and the
        heads compute every operand's gradient, and `_accumulate` keeps
        constants clean by dropping it. Making every constant a leaf runs every branch
        again, as all of them once ran; the gradients of each training
        group's own leaves (parameters, prototype copies) must not change by
        a bit."""
        config = RunConfig(epochs=2, e1=1, seed=3, infer_steps=2, timesteps=50)
        leaf, backward = Tape.leaf, Tape.backward

        def step_gradients(every_branch):
            own, steps = {}, []

            def own_leaf(tape, value, name=None):
                node = leaf(tape, value, name)
                own[id(node)] = node  # held, so the id stays unique
                return node

            def capture(tape, output):
                grads = backward(tape, output)
                steps.append([g.tobytes() for node, g in grads.items() if id(node) in own])
                return grads

            with monkeypatch.context() as m:
                m.setattr(Tape, "leaf", own_leaf)
                m.setattr(Tape, "backward", capture)
                if every_branch:
                    m.setattr(Tape, "const", lambda tape, value, name=None: leaf(tape, value, name))
                train(tiny_data, config)
            return steps

        skipped = step_gradients(False)
        assert len(skipped) == packed_groups(tiny_data, config)
        assert skipped == step_gradients(True)


class TestFusedBallOps:
    def test_oracles_train_to_the_same_bytes(self, tiny_data, monkeypatch, tmp_path):
        """Training with the tape-primitive compositions of `ball_oracles` in
        place of the fused ops writes the same checkpoint and log bytes. Two
        epochs with e1 = 1 run both phases, so every formula is used."""
        config = RunConfig(epochs=2, e1=1, seed=3, infer_steps=2, timesteps=50)

        def run(name):
            state, log = train(tiny_data, config)
            save_checkpoint(state, tmp_path / name)
            return (tmp_path / name).read_bytes(), "\n".join(log.format_lines())

        fused = run("fused.htck")
        with monkeypatch.context() as m:
            for name in ball_oracles.FORMULAS:
                m.setattr(bo, name, getattr(ball_oracles, name))
            composed = run("composed.htck")
        assert fused == composed


def assert_params_tile_flat(model):
    """Every `model.params` entry is a view of `model.flat`, and in order the
    views cover it exactly, with no gap or overlap. A rebound entry would
    silently stop that weight from training."""
    base = model.flat.__array_interface__["data"][0]
    offset = 0
    for name, p in model.params.items():
        assert p.base is model.flat and p.flags.c_contiguous, name
        assert p.__array_interface__["data"][0] == base + offset * p.itemsize, name
        offset += p.size
    assert offset == model.flat.size and model.flat.flags.owndata


class TestFlatParameterStore:
    def test_params_are_views_after_init(self):
        assert_params_tile_flat(Denoiser(DenoiserConfig(feature_dim=8, classes=4)))

    def test_params_are_views_after_train(self, tiny_run):
        assert_params_tile_flat(tiny_run[0].model)

    def test_params_are_views_after_load(self, tiny_run, tmp_path):
        state, _, _ = tiny_run
        path = tmp_path / "model.htck"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert_params_tile_flat(loaded.model)
        assert loaded.model.flat.tobytes() == state.model.flat.tobytes()


class TestBatchAccumulation:
    def test_each_adam_step_takes_its_chunks_mean_gradient(self, tiny_data, monkeypatch):
        """Every Adam step gets the mean of its chunk's per-video weight
        gradients in the flat layout, the short last chunk included; the
        per-video gradients are those of one tape per video (the oracle)."""
        per_video, steps = [], []
        adam_step = hyptas.optim.Adam.step

        def recording_video_step(*args):
            params, proto_grad, total, components = train_oracle.video_step(*args)
            per_video.append({name: g.copy() for name, g in params.items()})
            return params, proto_grad, total, components

        def recording_step(opt, params, grad):
            steps.append(grad.copy())
            return adam_step(opt, params, grad)

        config = RunConfig(epochs=2, batch_size=3, seed=4, timesteps=50, infer_steps=2)
        train_oracle.train(tiny_data, config, step=recording_video_step)
        monkeypatch.setattr(hyptas.optim.Adam, "step", recording_step)
        state, _ = train(tiny_data, config)
        n = len(tiny_data.train)
        sizes = [min(3, n - start) for start in range(0, n, 3)] * config.epochs
        assert n % 3 and len(steps) == len(sizes) and len(per_video) == n * config.epochs
        videos = iter(per_video)
        for grad, size in zip(steps, sizes):
            expected = np.zeros_like(state.model.flat)
            views = state.model.views(expected)
            for video_grads in [next(videos) for _ in range(size)]:
                assert video_grads.keys() == views.keys()
                for name, g in video_grads.items():
                    views[name] += g
            assert np.array_equal(grad, expected / size)


class TestCheckpointRoundtrip:
    def test_loaded_state_reproduces_predictions(self, tiny_run, tiny_data, tmp_path):
        state, _, _ = tiny_run
        path = tmp_path / "model.htck"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        video = tiny_data.test[0]
        a = infer_video(state, video.features, steps=4, seed=3)
        b = infer_video(loaded, video.features, steps=4, seed=3)
        assert np.array_equal(a[0], b[0])
        assert a[1].tobytes() == b[1].tobytes()
        assert a[2].tobytes() == b[2].tobytes()

    def test_sections_are_config_prototypes_and_params(self, tiny_run, tmp_path):
        """Every other fact (widths, curvature, schedule) is derived on load."""
        from hyptas.data import read_checkpoint

        state, _, _ = tiny_run
        path = tmp_path / "model.htck"
        save_checkpoint(state, path)
        params = [f"param/{name}" for name in sorted(state.model.params)]
        assert list(read_checkpoint(path)) == [
            "config_text", "prototypes/points", "prototypes/frozen", *params
        ]

    def test_frozen_flag_survives(self, tiny_run, tmp_path):
        state, _, _ = tiny_run
        path = tmp_path / "model.htck"
        save_checkpoint(state, path)
        assert load_checkpoint(path).prototypes.frozen == state.prototypes.frozen

    def test_config_survives(self, tiny_run, tmp_path):
        state, _, config = tiny_run
        path = tmp_path / "model.htck"
        save_checkpoint(state, path)
        assert load_checkpoint(path).config == config

    def test_missing_tensor_is_error(self, tiny_run, tmp_path):
        state, _, _ = tiny_run
        from hyptas.data import read_checkpoint, write_checkpoint

        path = tmp_path / "model.htck"
        save_checkpoint(state, path)
        sections = read_checkpoint(path)
        first_param = next(k for k in sections if k.startswith("param/"))
        del sections[first_param]
        write_checkpoint(path, list(sections.items()))
        with pytest.raises(FormatError, match="missing tensor"):
            load_checkpoint(path)

    def test_huge_parameter_is_error(self, tiny_run, tmp_path):
        state, _, _ = tiny_run
        from hyptas.data import read_checkpoint, write_checkpoint

        path = tmp_path / "model.htck"
        save_checkpoint(state, path)
        sections = read_checkpoint(path)
        sections["param/dec.head.b"] = sections["param/dec.head.b"].copy()
        sections["param/dec.head.b"][0, 1] = -2e4
        write_checkpoint(path, list(sections.items()))
        with pytest.raises(FormatError, match=r"'param/dec.head.b' holds a value above"):
            load_checkpoint(path)

    def test_shape_mismatch_is_error(self, tiny_run, tmp_path):
        state, _, _ = tiny_run
        from hyptas.data import read_checkpoint, write_checkpoint

        path = tmp_path / "model.htck"
        save_checkpoint(state, path)
        sections = read_checkpoint(path)
        first_param = next(k for k in sections if k.startswith("param/"))
        sections[first_param] = np.zeros((2, 2))
        write_checkpoint(path, list(sections.items()))
        with pytest.raises(FormatError, match="shape"):
            load_checkpoint(path)


def _mixed_lengths(dataset):
    """The tiny data with train videos cut to 1, 2 and 7 frames, so that some
    chunks pack and the ones holding the 1-frame video train per video."""
    train = list(dataset.train)
    for i, frames in ((0, 1), (3, 2), (5, 7)):
        video = train[i]
        train[i] = VideoRecord(video.id, video.features[:frames], video.labels[:frames])
    return Dataset(train, dataset.test, dataset.class_names, dataset.feature_dim)


ORACLE_CONFIGS = {
    "default": {},
    "single_phase": {"single_phase": True},
    "ce_only": {"lambda_entail": 0.0, "lambda_margin": 0.0, "lambda_pp": 0.0, "lambda_gg": 0.0},
    "no_aux_head": {"aux_head": False},
}


def _run_recorded(run, dataset, config, path, monkeypatch):
    """Checkpoint bytes, log lines, and every optimizer step's gradient."""
    steps = []
    with monkeypatch.context() as m:
        for cls in (hyptas.optim.Adam, hyptas.optim.RiemannianAdam):
            def recording(opt, params, grad, step=cls.step, kind=cls.__name__):
                steps.append((kind, grad.tobytes()))
                return step(opt, params, grad)

            m.setattr(cls, "step", recording)
        state, log = run(dataset, config)
    save_checkpoint(state, path)
    return path.read_bytes(), log.format_lines(), steps


class TestPackedTrainingOracle:
    """`train` packs each chunk onto one tape; `train_oracle.train` runs one
    tape per video. Checkpoints, log lines and the gradient of every Adam
    and Riemannian Adam step must be byte-equal. Three epochs with e1 = 1
    run both phases."""

    @pytest.mark.parametrize("batch_size", [1, 3, 4])
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_packed_training_matches_one_tape_per_video(
        self, tiny_data, tmp_path, monkeypatch, name, batch_size
    ):
        dataset = _mixed_lengths(tiny_data)
        config = RunConfig(epochs=3, e1=1, seed=7, infer_steps=2, timesteps=50,
                           batch_size=batch_size, **ORACLE_CONFIGS[name])
        packed = _run_recorded(train, dataset, config, tmp_path / "packed.htck", monkeypatch)
        oracle = _run_recorded(train_oracle.train, dataset, config, tmp_path / "oracle.htck",
                               monkeypatch)
        assert packed[0] == oracle[0]
        assert packed[1] == oracle[1]
        assert packed[2] == oracle[2]
        kinds = {kind for kind, _ in packed[2]}
        assert kinds == {"Adam", "RiemannianAdam"}

    def test_chunks_over_pack_rows_train_per_video(self, tiny_data, tmp_path, monkeypatch):
        """With PACK_ROWS at 100 frames, chunks of four tiny videos hold more
        and train one tape per video, while the smaller chunks still pack."""
        dataset = _mixed_lengths(tiny_data)
        monkeypatch.setattr(hyptas.trainer, "PACK_ROWS", 100)
        grouping, chunks = hyptas.trainer._groups, []

        def recording_groups(chunk, lengths):
            groups = grouping(chunk, lengths)
            frames = [lengths[i] for i in chunk]
            chunks.append((sum(frames), min(frames), [len(g) for g in groups]))
            return groups

        monkeypatch.setattr(hyptas.trainer, "_groups", recording_groups)
        config = RunConfig(epochs=3, e1=1, seed=8, infer_steps=2, timesteps=50)
        packed = _run_recorded(train, dataset, config, tmp_path / "packed.htck", monkeypatch)
        oracle = _run_recorded(train_oracle.train, dataset, config, tmp_path / "oracle.htck",
                               monkeypatch)
        assert packed == oracle
        assert any(frames > 100 and shortest >= 2 for frames, shortest, _ in chunks)
        assert any(sizes == [4] for _, _, sizes in chunks)
        for frames, shortest, sizes in chunks:
            packs = frames <= 100 and shortest >= 2
            assert sizes == ([4] if packs else [1] * 4)
