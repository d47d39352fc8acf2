import logging

import numpy as np
import pytest

import hyptas.autodiff as td
import layer_oracles
import hyptas.ballops as bo
from hyptas.autodiff import Tape
from hyptas.errors import ShapeError
from hyptas.data import RunConfig
from hyptas.losses import cross_entropy, phase_loss
from hyptas.metrics import segments_from_labels
from hyptas.model import (
    DILATIONS,
    KERNEL,
    BoundDenoiser,
    Denoiser,
    DenoiserConfig,
    apply_masking,
    mask_vector,
    sample_mask_kind,
    sinusoidal_step_embedding,
)

CFG = DenoiserConfig(feature_dim=10, classes=4)


def make_model(seed=0, **overrides):
    cfg = DenoiserConfig(**{**CFG.__dict__, **overrides})
    return Denoiser(cfg, seed=seed)


class TestEncode:
    def test_zero_features_finite_and_normalized(self):
        model = make_model()
        tape = Tape()
        cond, p_enc = model.bind(tape, trainable=False).encode(np.zeros((20, 10)), (20,))
        assert np.all(np.isfinite(cond.value))
        assert np.allclose(p_enc.value.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic_given_seed_and_input(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(30, 10))

        def run():
            model = make_model(seed=7)
            tape = Tape()
            cond, p_enc = model.bind(tape, trainable=False).encode(features, (30,))
            return cond.value.tobytes(), p_enc.value.tobytes()

        assert run() == run()

    def test_receptive_field_is_dilation_window(self):
        model = make_model()
        rng = np.random.default_rng(3)
        features = rng.normal(size=(64, 10))
        tape = Tape()
        base = model.bind(tape, trainable=False).encode(features, (64,))[0].value

        probe = 32
        perturbed = features.copy()
        perturbed[probe] += 1.0
        tape2 = Tape()
        moved = model.bind(tape2, trainable=False).encode(perturbed, (64,))[0].value

        changed = np.where(np.any(moved != base, axis=1))[0]
        half = sum(d * (KERNEL // 2) for d in DILATIONS)
        assert half == 15
        assert changed.size > 0
        assert changed.min() >= probe - half
        assert changed.max() <= probe + half

    def test_feature_dim_mismatch(self):
        model = make_model()
        tape = Tape()
        with pytest.raises(ShapeError):
            model.bind(tape).encode(np.zeros((5, 11)), (5,))

    def test_non_finite_features_rejected(self):
        model = make_model()
        tape = Tape()
        bad = np.zeros((5, 10))
        bad[0, 0] = np.nan
        with pytest.raises(ShapeError):
            model.bind(tape).encode(bad, (5,))


class TestDecode:
    def _forward(self, model, t, L=25, seed=5):
        rng = np.random.default_rng(seed)
        tape = Tape()
        bound = model.bind(tape, trainable=False)
        cond, _ = bound.encode(rng.normal(size=(L, 10)), (L,))
        y_t = tape.const(rng.normal(size=(L, 4)))
        return bound.decode(y_t, cond, [t], (L,))

    def test_probabilities_normalized(self):
        emb, probs = self._forward(make_model(), t=100)
        assert np.allclose(probs.value.sum(axis=1), 1.0, atol=1e-9)

    def test_step_embedding_changes_output(self):
        model = make_model()
        emb_a, _ = self._forward(model, t=10)
        emb_b, _ = self._forward(model, t=900)
        assert not np.allclose(emb_a.value, emb_b.value)

    def test_embeddings_land_in_ball_after_projection(self):
        emb, _ = self._forward(make_model(), t=50)
        for c in (0.5, 1.0, 2.0):
            tape = Tape()
            ball = bo.exp_map_origin_rows(tape.const(emb.value), c)
            assert np.all(c * np.sum(ball.value**2, axis=1) < 1.0)

    def test_signal_shape_checked(self):
        model = make_model()
        tape = Tape()
        bound = model.bind(tape, trainable=False)
        cond, _ = bound.encode(np.zeros((10, 10)), (10,))
        with pytest.raises(ShapeError):
            bound.decode(tape.const(np.zeros((10, 5))), cond, [1], (10,))
        with pytest.raises(ShapeError):
            bound.decode(tape.const(np.zeros((9, 4))), cond, [1], (9,))

    def test_step_embedding_shape(self):
        emb = sinusoidal_step_embedding(123, 64)
        assert emb.shape == (1, 64)
        assert np.all(np.isfinite(emb))
        assert not np.array_equal(emb, sinusoidal_step_embedding(124, 64))

    @pytest.mark.parametrize("t,dim", [(1, 64), (500, 64), (37, 7)])
    def test_step_embedding_cached_read_only_and_exact(self, t, dim):
        emb = sinusoidal_step_embedding(t, dim)
        assert sinusoidal_step_embedding(t, dim) is emb
        assert not emb.flags.writeable
        with pytest.raises(ValueError):
            emb[0, 0] = 1.0
        half = dim // 2
        freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
        fresh = np.concatenate([np.sin(t * freqs), np.cos(t * freqs)])
        fresh = np.concatenate([fresh, np.zeros(dim - fresh.shape[0])])[None, :]
        assert emb.tobytes() == fresh.tobytes()

    def test_packed_videos_do_not_see_each_other(self):
        """Encode and decode over stacked videos: changing one video's
        features and signal leaves every other video's rows byte-identical."""
        model = make_model(seed=4)
        rows = (30, 5, 18)
        rng = np.random.default_rng(8)
        features, y_t = rng.normal(size=(53, 10)), rng.normal(size=(53, 4))

        def run(feats, signal):
            tape = Tape()
            bound = model.bind(tape, trainable=False)
            cond, p_enc = bound.encode(feats, rows)
            emb, probs = bound.decode(tape.const(signal), cond, [40] * len(rows), rows)
            return [a.value for a in (cond, p_enc, emb, probs)]

        base = run(features, y_t)
        features[30:35] += 1.0
        y_t[30:35] -= 1.0
        moved = run(features, y_t)
        others = np.r_[0:30, 35:53]
        for a, b in zip(base, moved):
            assert a[others].tobytes() == b[others].tobytes()
            assert not np.array_equal(a[30:35], b[30:35])


class TestMasking:
    SEGMENTS = segments_from_labels([0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2])

    def test_none_is_identity(self):
        tape = Tape()
        cond = tape.const(np.ones((12, 3)))
        out = apply_masking(cond, None)
        assert out is cond

    def test_position_zeroes_everything(self):
        tape = Tape()
        cond = tape.const(np.ones((12, 3)))
        keep = mask_vector("position", self.SEGMENTS, 12, np.random.default_rng(0))
        out = apply_masking(cond, keep)
        assert np.array_equal(out.value, np.zeros((12, 3)))

    def test_boundary_windows(self):
        keep = mask_vector("boundary", self.SEGMENTS, 12, np.random.default_rng(0))
        # boundaries at first frames of later segments: 3 and 7
        expect = np.ones(12)
        for b in (3, 7):
            expect[max(b - 2, 0) : b + 3] = 0.0
        assert np.array_equal(keep[:, 0], expect)

    def test_relation_zeroes_exactly_one_ground_truth_segment(self):
        rng = np.random.default_rng(11)
        keep = mask_vector("relation", self.SEGMENTS, 12, rng)
        zero_rows = np.where(keep[:, 0] == 0.0)[0]
        spans = [(s.start, s.end) for s in self.SEGMENTS]
        assert (zero_rows.min(), zero_rows.max()) in spans
        assert np.all(np.diff(zero_rows) == 1)

    def test_relation_seeded_choice_deterministic(self):
        a = mask_vector("relation", self.SEGMENTS, 12, np.random.default_rng(42))
        b = mask_vector("relation", self.SEGMENTS, 12, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_relation_without_segments_falls_back(self, caplog):
        tape = Tape()
        cond = tape.const(np.ones((4, 2)))
        with caplog.at_level(logging.WARNING):
            out = apply_masking(cond, mask_vector("relation", [], 4, np.random.default_rng(0)))
        assert np.array_equal(out.value, np.ones((4, 2)))
        assert any("falling back" in r.message for r in caplog.records)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ShapeError):
            mask_vector("temporal", self.SEGMENTS, 12, np.random.default_rng(0))

    def test_kind_sampling_uniform_and_seeded(self):
        rng = np.random.default_rng(9)
        kinds = [sample_mask_kind(rng) for _ in range(400)]
        for kind in ("none", "position", "boundary", "relation"):
            assert 60 < kinds.count(kind) < 140

    def test_masking_only_affects_condition_gradient(self):
        model = make_model()
        rng = np.random.default_rng(13)
        tape = Tape()
        bound = model.bind(tape, trainable=False)
        cond, _ = bound.encode(rng.normal(size=(12, 10)), (12,))
        masked = apply_masking(cond, mask_vector("position", self.SEGMENTS, 12, rng))
        y_t = tape.const(rng.normal(size=(12, 4)))
        emb, probs = bound.decode(y_t, masked, [3], (12,))
        assert np.array_equal(y_t.value, y_t.value)  # signal untouched by masking
        assert np.all(np.isfinite(probs.value))


class TestGradientFlow:
    def test_every_parameter_receives_gradient_from_phase_one_loss(self):
        model = make_model(seed=3)
        rng = np.random.default_rng(17)
        L, C = 40, 4
        features = rng.normal(size=(L, 10))
        labels = rng.integers(0, C, size=L)
        y_onehot = np.eye(C)[labels]

        tape = Tape()
        bound = model.bind(tape, trainable=True)
        cond, p_enc = bound.encode(features, (L,))
        y_t = tape.const(rng.normal(size=(L, C)))
        emb, probs = bound.decode(y_t, cond, [120], (L,))

        ball = bo.exp_map_origin_rows(emb, 1.0)
        proto_leaf = tape.leaf(0.05 * rng.normal(size=(C, model.config.embed_dim)))
        protos = bo.exp_map_origin_rows(proto_leaf, 1.0)
        ce = td.add(cross_entropy(probs, y_onehot, (L,)), cross_entropy(p_enc, y_onehot, (L,)))
        total, _ = phase_loss("stabilization", RunConfig(), ce, ball, protos, labels, [250],
                              False, (L,))
        grads = tape.backward(td.total(total))
        for name, tensor in bound.bound.items():
            g = grads[tensor]
            assert np.any(g != 0.0), f"dead parameter {name}"
        assert np.any(grads[proto_leaf] != 0.0)

    def _step(self, model, features, y_t, t):
        """Outputs and every parameter gradient of one trainable pass, with
        the loss reading both heads and the embeddings."""
        tape = Tape()
        bound = model.bind(tape, trainable=True)
        rows = (features.shape[0],)
        cond, p_enc = bound.encode(features, rows)
        emb, probs = bound.decode(tape.const(y_t), cond, [t], rows)
        ops = sum(node._push is not None for node in tape.nodes)
        loss = td.total(td.add(td.add(td.mean(td.square(probs), rows),
                                      td.mean(td.square(p_enc), rows)),
                               td.mean(td.square(emb), rows)))
        grads = tape.backward(loss)
        outs = [a.value.tobytes() for a in (cond, p_enc, emb, probs)]
        return outs, {name: grads[t].tobytes() for name, t in bound.bound.items()}, ops

    def test_fused_layers_keep_the_composition_bits(self, monkeypatch):
        model = make_model(seed=4)
        rng = np.random.default_rng(19)
        args = (rng.normal(size=(33, 10)), rng.normal(size=(33, 4)), 417)
        fused = self._step(model, *args)
        # the layers built node by node, as the model once did
        monkeypatch.setattr(td, "conv_layer", layer_oracles.conv_layer)
        monkeypatch.setattr(td, "softmax_head", layer_oracles.softmax_head)
        composed = self._step(model, *args)
        assert fused[:2] == composed[:2]
        # one node per layer: 4 encoder layers, 2 heads, concat, 4 decoder
        # layers; the composition took 3 + 3 * 4 encoder nodes, 2 * 3 head
        # nodes, concat, and 6 + 3 * 7 decoder nodes
        assert fused[2] == 11
        assert composed[2] == 49

    def test_parameter_count_in_expected_band(self):
        model = Denoiser(DenoiserConfig(feature_dim=32, classes=6))
        assert 15_000 < sum(p.size for p in model.params.values()) < 60_000
