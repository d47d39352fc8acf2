import functools
import logging
import operator

import numpy as np
import pytest

import hyptas.autodiff as td
import layer_oracles
import hyptas.ballops as bo
from hyptas.autodiff import Tape, finite_diff_check
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
    ForwardRunner,
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

    def test_none_keeps_values_and_gradients(self):
        rng = np.random.default_rng(3)
        tape = Tape()
        cond = tape.leaf(rng.normal(size=(12, 3)))
        out = apply_masking(cond, mask_vector("none", self.SEGMENTS, 12, rng))
        assert np.array_equal(out.value, cond.value)
        g = rng.normal(size=(12, 3))
        grads = tape.backward(td.total(td.mul(out, g)))
        assert np.array_equal(grads[cond], g)

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

    def _step(self, model, features, y_t, t, composed=False):
        """Outputs and every parameter gradient of one trainable pass, with
        the loss reading both heads and the embeddings; `composed` builds
        the pass node by node from `layer_oracles`, as the model once did."""
        tape = Tape()
        bound = model.bind(tape, trainable=True)
        rows = (features.shape[0],)
        if composed:
            cond = layer_oracles.encode(bound.bound, features)
            p_enc = layer_oracles.softmax_head(cond, bound.bound["enc.head.w"],
                                               bound.bound["enc.head.b"])
            emb = layer_oracles.decode(bound.bound, tape.const(y_t), cond, t)
            probs = layer_oracles.softmax_head(emb, bound.bound["dec.head.w"],
                                               bound.bound["dec.head.b"])
        else:
            cond, p_enc = bound.encode(features, rows)
            emb, probs = bound.decode(tape.const(y_t), cond, [t], rows)
        ops = sum(node._push is not None for node in tape.nodes)
        loss = td.total(td.add(td.add(td.mean(td.square(probs), rows),
                                      td.mean(td.square(p_enc), rows)),
                               td.mean(td.square(emb), rows)))
        grads = tape.backward(loss)
        outs = [a.value.tobytes() for a in (cond, p_enc, emb, probs)]
        return outs, {name: grads[t].tobytes() for name, t in bound.bound.items()}, ops

    def test_stack_nodes_keep_the_composition_bits(self):
        model = make_model(seed=4)
        rng = np.random.default_rng(19)
        args = (rng.normal(size=(33, 10)), rng.normal(size=(33, 4)), 417)
        fused = self._step(model, *args)
        composed = self._step(model, *args, composed=True)
        assert fused[:2] == composed[:2]
        # one node per stack and per head; the composition took 3 + 3 * 4
        # encoder nodes, 2 * 3 head nodes, concat, and 6 + 3 * 7 decoder nodes
        assert fused[2] == 4
        assert composed[2] == 49

    def test_parameter_count_in_expected_band(self):
        model = Denoiser(DenoiserConfig(feature_dim=32, classes=6))
        assert 15_000 < sum(p.size for p in model.params.values()) < 60_000


# (feature_dim, encoder_channels, embed_dim) with 3 classes: the widths of
# `odd_state` in test_trainer.py, whose outputs are 1-3 mod 8, wider ones,
# where OpenBLAS 0.3.31 gives some rows of a matmul with 16 or more inner
# columns other bits over a different row count, and narrow ones, where
# every matmul is a few columns wide.
ODD_WIDTHS = {"odd": (5, 9, 11), "odd_wide": (16, 17, 19), "narrow": (3, 3, 2)}

# Frame counts of the stacked videos: one video; videos all shorter than
# the widest pad (8, at dilation 8); a 1-frame video among them; and
# videos longer than every pad.
ROWS = {"one": (19,), "packed": (3, 7, 2, 5, 6, 4), "packed_with_one_frame": (7, 1, 3, 12),
        "packed_long": (31, 26, 17)}

# Which of the decoder's inputs, the signal y and the condition c, are leaves.
INPUTS = {"consts": (False, False), "cond": (False, True), "signal": (True, False),
          "both": (True, True)}


def odd_model(feature_dim, channels, embed):
    """A 3-class model of these widths, its weights spread at random so
    that relus die."""
    model = Denoiser(DenoiserConfig(feature_dim=feature_dim, classes=3, embed_dim=embed,
                                    encoder_channels=channels), seed=6)
    model.flat += np.random.default_rng(6).normal(scale=0.3, size=model.flat.shape)
    return model


OUTPUTS = ("cond", "p_enc", "emb", "probs", "y", "c")


def _pass_inputs(model, rows, seed):
    """Features, signal, one step per video and an upstream gradient per
    output in `OUTPUTS`, for a pass of `odd_model` over `rows`."""
    rng = np.random.default_rng(seed)
    cfg, length = model.config, sum(rows)
    widths = {"cond": cfg.encoder_channels, "p_enc": 3, "emb": cfg.embed_dim, "probs": 3,
              "y": 3, "c": cfg.encoder_channels}
    features, y_t = rng.normal(size=(length, cfg.feature_dim)), rng.normal(size=(length, 3))
    ts = [int(t) for t in rng.integers(1, 100, size=len(rows))]
    return features, y_t, ts, {k: rng.normal(size=(length, widths[k])) for k in OUTPUTS}


def _denoiser_pass(model, features, y_t, ts, rows, g, leaves=(False, True), composed=False):
    """Encode, then decode the signal y over a copy c of the condition, on
    one trainable tape, with y and c leaves as `leaves` says; `composed`
    builds one video node by node from `layer_oracles` instead. The loss
    sums total(x * g[x]) over the outputs in `OUTPUTS` order, built after
    both passes, so the condition and the embeddings hold a gradient before
    their heads push theirs, and y and c before the decoder's stack node
    pushes its own. Returns the outputs (the gradients for y and c, zero
    for a constant), the gradient of every parameter, and the number of op
    nodes the passes recorded."""
    tape = Tape()
    bound = model.bind(tape, trainable=True)
    p = bound.bound
    y_leaf, c_leaf = leaves
    y = tape.leaf(y_t) if y_leaf else tape.const(y_t)
    if composed:
        cond = layer_oracles.encode(p, features)
        p_enc = layer_oracles.softmax_head(cond, p["enc.head.w"], p["enc.head.b"])
        c = tape.leaf(cond.value) if c_leaf else tape.const(cond.value)
        emb = layer_oracles.decode(p, y, c, ts[0])
        probs = layer_oracles.softmax_head(emb, p["dec.head.w"], p["dec.head.b"])
    else:
        cond, p_enc = bound.encode(features, rows)
        c = tape.leaf(cond.value) if c_leaf else tape.const(cond.value)
        emb, probs = bound.decode(y, c, ts, rows)
    ops = sum(node._push is not None for node in tape.nodes)
    outs = dict(zip(OUTPUTS, (cond, p_enc, emb, probs, y, c)))
    loss = functools.reduce(td.add, [td.total(td.mul(outs[k], g[k])) for k in OUTPUTS])
    grads = tape.backward(loss)
    values = {k: t.value for k, t in outs.items()}
    values.update({k: grads.get(outs[k], np.zeros_like(outs[k].value)) for k in ("y", "c")})
    return values, {name: grads[t] for name, t in p.items()}, ops


class TestStackNodes:
    """Each conv stack and each head is one tape node; the stacks run over
    `model._Stack`'s buffers. On odd widths, the values and the gradient of
    every parameter and of the decoder's inputs have the bytes of the
    node-by-node composition in `layer_oracles`: for one video, and over
    packed videos, where the reference is the composition on each video
    alone, with the videos' values and input gradients stacked and their
    parameter gradients summed left to right."""

    @pytest.mark.parametrize("leaves", INPUTS.values(), ids=INPUTS.keys())
    @pytest.mark.parametrize("widths", ODD_WIDTHS.values(), ids=ODD_WIDTHS.keys())
    @pytest.mark.parametrize("rows", ROWS.values(), ids=ROWS.keys())
    def test_bit_identical_to_the_composition(self, rows, widths, leaves):
        model = odd_model(*widths)
        features, y_t, ts, g = _pass_inputs(model, rows, len(rows))
        fused, fused_grads, ops = _denoiser_pass(model, features, y_t, ts, rows, g, leaves)
        alone = []
        for v, (lo, hi) in enumerate(zip(np.cumsum((0,) + rows[:-1]), np.cumsum(rows))):
            own = {k: a[lo:hi] for k, a in g.items()}
            alone.append(_denoiser_pass(model, features[lo:hi], y_t[lo:hi], [ts[v]],
                                        (hi - lo,), own, leaves, composed=True))
        assert ops == 4  # two stacks and two heads
        for key in OUTPUTS:
            assert fused[key].tobytes() == np.concatenate([a[0][key] for a in alone]).tobytes(), key
        for key, leaf in zip(("y", "c"), leaves):  # a leaf gets g and the decoder's gradient
            assert np.any(fused[key] != 0.0) == leaf and np.any(fused[key] != g[key]), key
        assert fused_grads.keys() == alone[0][1].keys() == set(model.params)
        for name, grad in fused_grads.items():
            want = functools.reduce(operator.add, [a[1][name] for a in alone])
            assert grad.tobytes() == want.tobytes(), name
        # relus die: every stack's output holds zeros, and some of them are -0.0
        for key in ("cond", "emb"):
            assert np.any(fused[key] == 0.0) and np.any(fused[key] > 0.0)
        assert np.any((fused["emb"] == 0.0) & np.signbit(fused["emb"]))

    @pytest.mark.parametrize("video", [0, 1, -1], ids=["first", "second", "last"])
    @pytest.mark.parametrize("change", ["features", "signal", "step"])
    @pytest.mark.parametrize("rows", [ROWS[k] for k in ROWS if k != "one"],
                             ids=[k for k in ROWS if k != "one"])
    def test_changing_one_video_leaves_the_others_alone(self, rows, change, video):
        """Over packed videos, changing one video's features, signal or step
        leaves every other video's values and input gradients byte-identical,
        and changes that video's own rows of what depends on it."""
        model = odd_model(*ODD_WIDTHS["odd"])
        features, y_t, ts, g = _pass_inputs(model, rows, 5)
        base = _denoiser_pass(model, features, y_t, ts, rows, g, INPUTS["both"])[0]
        cuts = np.cumsum((0,) + rows)
        lo, hi = (cuts[-2], cuts[-1]) if video == -1 else (cuts[video], cuts[video + 1])
        rng = np.random.default_rng(9)
        if change == "features":
            features = features.copy()
            features[lo:hi] = rng.normal(size=(hi - lo, features.shape[1]))
        elif change == "signal":
            y_t = y_t.copy()
            y_t[lo:hi] = rng.normal(size=(hi - lo, y_t.shape[1]))
        else:
            ts = list(ts)
            ts[video] += 500
        moved = _denoiser_pass(model, features, y_t, ts, rows, g, INPUTS["both"])[0]
        others = np.r_[0:lo, hi : cuts[-1]]
        decoder_only = change != "features"
        for key in OUTPUTS:
            assert base[key][others].tobytes() == moved[key][others].tobytes(), key
            unchanged = decoder_only and key in ("cond", "p_enc")
            assert np.array_equal(base[key][lo:hi], moved[key][lo:hi]) == unchanged, key

    @pytest.mark.parametrize("leaves", [INPUTS["cond"], INPUTS["both"]], ids=["cond", "both"])
    @pytest.mark.parametrize("rows", [(9,), (4, 2, 3), (4, 1, 4)],
                             ids=["one", "packed", "packed_with_one_frame"])
    def test_against_central_differences(self, rows, leaves):
        """Every parameter and the decoder's leaf inputs."""
        model = Denoiser(DenoiserConfig(feature_dim=3, classes=2, embed_dim=3,
                                        encoder_channels=3), seed=8)
        rng = np.random.default_rng(23 + len(rows))
        features, y_t = rng.normal(size=(9, 3)), rng.normal(size=(9, 2))
        ts = [40, 7, 93][: len(rows)]
        y_leaf = leaves[0]

        def f(tape, leaves):
            net = BoundDenoiser(model.config, tape, dict(zip(model.params, leaves)))
            cond, p_enc = net.encode(features, rows)
            y = leaves[-2] if y_leaf else tape.const(y_t)
            emb, probs = net.decode(y, leaves[-1], ts, rows)
            return functools.reduce(td.add, [td.total(td.mean(td.square(x), rows))
                                             for x in (cond, p_enc, emb, probs)])

        point = list(model.params.values()) + [y_t] * y_leaf + [rng.uniform(0.0, 1.0, size=(9, 3))]
        assert finite_diff_check(f, point) < 1e-6

    @pytest.mark.parametrize("trainable", [True, False], ids=["leaves", "consts"])
    @pytest.mark.parametrize("rows", [(6,), (2, 1, 3)], ids=["one", "packed"])
    @pytest.mark.parametrize("stack", ["enc", "dec"])
    def test_a_pass_records_its_stack_and_its_head(self, stack, rows, trainable):
        """A pass records one node for its conv stack and one for its head,
        or none when nothing it reads needs a gradient (an encode over
        constant parameters). From a loss on the stack's output alone, the
        stack's own parameters and leaf inputs get gradients, and the head's
        and the other stack's parameters get none."""
        rng = np.random.default_rng(3)
        tape = Tape()
        bound = make_model(seed=2).bind(tape, trainable)
        inputs = []
        if stack == "dec":
            inputs.append(tape.leaf(rng.normal(size=(6, 32))))
        before = len(tape.nodes)
        if stack == "enc":
            h, probs = bound.encode(rng.normal(size=(6, 10)), rows)
        else:
            h, probs = bound.decode(tape.const(rng.normal(size=(6, 4))), inputs[0],
                                    [3] * len(rows), rows)
        if not (trainable or inputs):
            assert tape.nodes[before:] == [] and not (h.needs_grad or probs.needs_grad)
            return
        assert tape.nodes[before:] == [h, probs]
        grads = tape.backward(td.total(td.mean(td.square(h), rows)))
        for name, t in bound.bound.items():
            if trainable:
                own = name.startswith(stack) and ".head." not in name
                assert np.any(grads[t] != 0.0) == own, name
        for x in inputs:
            assert np.any(grads[x] != 0.0)


class TestForwardRunner:
    """A `ForwardRunner` has the bytes of the forward-only arithmetic over
    the stacked videos, `layer_oracles.packed_denoiser`: the embeddings and
    the probabilities of every decode, over buffers reused from step to
    step."""

    @pytest.mark.parametrize("widths", ODD_WIDTHS.values(), ids=ODD_WIDTHS.keys())
    @pytest.mark.parametrize("rows", ROWS.values(), ids=ROWS.keys())
    def test_decodes_match_the_forward_only_oracle(self, rows, widths):
        model = odd_model(*widths)
        rng = np.random.default_rng(len(rows) + 40)
        videos = [rng.normal(size=(n, widths[0])) for n in rows]
        runner = ForwardRunner(model, videos)
        decode = layer_oracles.packed_denoiser(model, videos)
        for t in (99, 40, 1):
            y_t = rng.normal(size=(sum(rows), 3))
            probs = runner.decode(y_t, t)
            emb, want = decode(y_t, t)
            assert runner.embeddings.tobytes() == emb.tobytes()
            assert probs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad,match", [
        (np.zeros((4, 9)), "do not match feature_dim 10"),
        (np.zeros((0, 10)), "at least one frame"),
        (np.full((4, 10), np.nan), "non-finite"),
    ], ids=["feature_dim", "empty", "non_finite"])
    def test_videos_are_checked(self, bad, match):
        with pytest.raises(ShapeError, match=match):
            ForwardRunner(make_model(), [np.zeros((3, 10)), bad])

    def test_signal_shape_is_checked(self):
        runner = ForwardRunner(make_model(), [np.zeros((3, 10)), np.zeros((2, 10))])
        with pytest.raises(ShapeError, match="signal .* for 5 frames of 4 classes"):
            runner.decode(np.zeros((5, 3)), 1)

    @pytest.mark.parametrize("rows", [(4, 4), (10, 0), (12,)])
    def test_row_counts_must_split_the_input(self, rows):
        tape = Tape()
        bound = make_model().bind(tape)
        with pytest.raises(ShapeError, match="row counts"):
            bound.encode(np.zeros((10, 10)), rows)
        cond = tape.const(np.zeros((10, 32)))
        with pytest.raises(ShapeError, match="row counts"):
            bound.decode(tape.const(np.zeros((10, 4))), cond, [1] * len(rows), rows)

    def test_decode_inputs_are_checked(self):
        tape = Tape()
        bound = make_model().bind(tape)
        y_t = tape.const(np.zeros((6, 4)))
        with pytest.raises(ShapeError, match="3 steps for 2 videos"):
            bound.decode(y_t, tape.const(np.zeros((6, 32))), [1, 2, 3], (3, 3))
        with pytest.raises(ShapeError, match="31.* do not match 4 classes and 32 channels"):
            bound.decode(y_t, tape.const(np.zeros((6, 31))), [1], (6,))
