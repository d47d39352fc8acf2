import math
import zlib

import numpy as np
import pytest

import ball_oracles as oracle
import layer_oracles as layers
import hyptas.autodiff as td
import hyptas.ballops as bo
from hyptas.autodiff import Tape, finite_diff_check
from hyptas.errors import AutodiffError, ShapeError


def mean_all(a):
    """Mean of every entry (0-d): the mean of one video of all of a's rows."""
    return td.total(td.mean(a, (a.value.shape[0],)))


def rand_rows(rng, n, d, lo=0.05, hi=0.9):
    """Rows with norms in [lo, hi], away from every singular set."""
    v = rng.normal(size=(n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.uniform(lo, hi, size=(n, 1))


class TestBackwardBasics:
    def test_identity_gradient(self):
        tape = Tape()
        x = tape.leaf(np.array(3.0))
        grads = tape.backward(x)
        assert grads[x] == pytest.approx(1.0)

    def test_squared_norm_hand_gradient(self):
        tape = Tape()
        x = tape.leaf(np.array([[1.0, 2.0]]))
        out = td.total(oracle.rows_dot(x, x))
        grads = tape.backward(out)
        assert np.allclose(grads[x], [[2.0, 4.0]])

    def test_output_must_be_scalar(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)))
        with pytest.raises(AutodiffError):
            tape.backward(td.relu(x))

    def test_foreign_tape_rejected(self):
        t1, t2 = Tape(), Tape()
        x = t1.leaf(np.array(1.0))
        with pytest.raises(AutodiffError):
            t2.backward(x)

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        with pytest.raises(AutodiffError):
            td.add(t1.leaf(np.array(1.0)), t2.leaf(np.array(1.0)))

    def test_constant_receives_no_gradient(self):
        tape = Tape()
        x = tape.leaf(np.array(2.0))
        c = tape.const(np.array(5.0))
        grads = tape.backward(oracle.mul(x, c))
        assert c not in grads
        assert grads[x] == pytest.approx(5.0)

    def test_unused_leaf_gets_zeros(self):
        tape = Tape()
        x = tape.leaf(np.array([[1.0, 1.0]]))
        y = tape.leaf(np.array(4.0))
        grads = tape.backward(td.square(y))
        assert np.array_equal(grads[x], np.zeros((1, 2)))

    def test_deterministic_bit_identical(self):
        def run():
            rng = np.random.default_rng(5)
            tape = Tape()
            x = tape.leaf(rng.normal(size=(7, 4)))
            w = tape.leaf(rng.normal(size=(4, 3)))
            out = mean_all(td.square(oracle.tanh(layers.matmul(x, w))))
            g = tape.backward(out)
            return [g[t].tobytes() for t in g]

        assert run() == run()

    def test_shape_discipline(self):
        tape = Tape()
        a = tape.leaf(np.ones((3, 2)))
        b = tape.leaf(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            td.add(a, b)
        with pytest.raises(ShapeError):
            td.div(a, b)

    def test_row_bias_add(self):
        tape = Tape()
        a = tape.leaf(np.zeros((4, 3)))
        b = tape.leaf(np.array([[1.0, 2.0, 3.0]]))
        with pytest.raises(ShapeError):
            td.add(a, b)  # a row bias has its own rule, inside the denoiser's nodes
        out = td.total(layers.add_row(a, b))
        grads = tape.backward(out)
        assert np.allclose(grads[b], [[4.0, 4.0, 4.0]])


class TestFiniteDiffOracle:
    def test_linear_function_machine_precision(self):
        w = np.array([[2.0], [-3.0], [0.5]])

        def f(tape, leaves):
            return td.total(layers.matmul(leaves[0], tape.const(w)))

        err = finite_diff_check(f, [np.array([[0.3, -0.2, 0.7]])])
        assert err < 1e-9

    def test_distance_to_origin_matches_radial_derivative(self):
        # d(O, x) = 2 artanh(|x|) for c=1; gradient is 2/(1-r^2) * x/r.
        x0 = np.array([[0.3, 0.0]])

        def f(tape, leaves):
            return td.total(bo.origin_distance_rows(leaves[0], 1.0))

        tape = Tape()
        leaf = tape.leaf(x0)
        out = td.total(bo.origin_distance_rows(leaf, 1.0))
        grads = tape.backward(out)
        r = 0.3
        expected = (2.0 / (1.0 - r * r)) * np.array([[1.0, 0.0]])
        assert np.allclose(grads[leaf], expected, rtol=1e-12)
        assert finite_diff_check(f, [x0]) < 1e-6

    def test_rejects_non_finite_evaluation(self):
        def f(tape, leaves):
            return td.total(td.log(leaves[0]))

        with np.errstate(invalid="ignore"), pytest.raises(AutodiffError):
            finite_diff_check(f, [np.array([[-1.0]])])


def _op_cases():
    """One scalar-valued composite per registered primitive, on safe domains."""
    rng = np.random.default_rng(17)
    w3 = rng.normal(size=(3, 4, 2))
    w52 = rng.normal(size=(5, 2))

    return {
        "add_mul_sub": lambda t, l: mean_all(td.sub(oracle.mul(l[0], l[1]), td.add(l[0], l[1]))),
        "div": lambda t, l: mean_all(td.div(l[0], td.add(td.square(l[1]), 0.5))),
        "matmul": lambda t, l: mean_all(layers.matmul(l[0], layers.matmul(l[1], t.const(w52)))),
        "relu": lambda t, l: mean_all(td.relu(td.sub(l[0], 0.01))),
        "tanh": lambda t, l: mean_all(oracle.tanh(l[0])),
        "log": lambda t, l: mean_all(td.log(td.add(td.square(l[0]), 1.0))),
        "sqrt": lambda t, l: mean_all(oracle.sqrt(td.add(td.square(l[0]), 0.3))),
        "artanh": lambda t, l: mean_all(oracle.artanh(td.mul(oracle.tanh(l[0]), 0.9))),
        "asin_acos": lambda t, l: mean_all(td.add(oracle.asin(td.mul(oracle.tanh(l[0]), 0.8)),
                                                 oracle.acos(td.mul(oracle.tanh(l[1]), 0.8)))),
        "clamp": lambda t, l: mean_all(td.clamp(l[0], lo=-0.5, hi=0.5)),
        "softmax": lambda t, l: mean_all(td.square(layers.softmax(l[0]))),
        "sum_mean": lambda t, l: td.add(td.total(td.square(l[0])), mean_all(l[1])),
        "rows_dot": lambda t, l: mean_all(oracle.rows_dot(l[0], l[1])),
        "row_norm": lambda t, l: mean_all(oracle.row_norm(l[0])),
        "scale_div_rows": lambda t, l: mean_all(oracle.scale_rows(l[0], td.add(oracle.row_norm(l[1]), 0.2))),
        "gather_rows": lambda t, l: mean_all(td.gather_rows(l[0], np.array([0, 2, 1, 2]))),
        "slice_concat": lambda t, l: mean_all(layers.concat_cols(td.pick_rows(l[0], np.arange(0, 2)),
                                                                td.pick_rows(l[1], np.array([2, 0])))),
        "video_sum_mean": lambda t, l: td.total(td.mul(td.add(
            td.sums(td.square(l[0]), (2, 1)), td.mean(l[1], (1, 2))), np.array([0.7, -1.3]))),
        "conv1d": lambda t, l: mean_all(layers.conv1d(l[0], t.const(w3), 2)),
    }


class TestPrimitiveGradients:
    @pytest.mark.parametrize("name", sorted(_op_cases()))
    def test_primitive_against_central_differences(self, name):
        f = _op_cases()[name]
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        worst = 0.0
        for _ in range(5):
            a = rand_rows(rng, 3, 4 if name != "matmul" else 5)
            b = rand_rows(rng, 3, 4 if name != "matmul" else 5)
            if name == "matmul":
                a, b = rand_rows(rng, 2, 3), rand_rows(rng, 3, 5)
            worst = max(worst, finite_diff_check(f, [a, b][: f.__code__.co_argcount]))
        assert worst < 1e-4

    def test_hundred_random_points_all_ops(self):
        cases = _op_cases()
        rng = np.random.default_rng(99)
        checks = 0
        for name, f in cases.items():
            for _ in range(6):
                if name == "matmul":
                    pt = [rand_rows(rng, 2, 3), rand_rows(rng, 3, 5)]
                else:
                    pt = [rand_rows(rng, 3, 4), rand_rows(rng, 3, 4)]
                assert finite_diff_check(f, pt) < 1e-4, name
                checks += 1
        assert checks >= 95


class TestBallOps:
    def test_forward_agrees_with_geometry(self):
        # Mobius addition keeps two forms: numpy for the retraction, and the
        # tape composition inside the fused `ballops.distance_rows`, which the
        # oracle spells out.
        rng = np.random.default_rng(41)
        for c in (0.5, 1.0, 2.0):
            X = rand_rows(rng, 20, 3, 0.05, 0.9 / math.sqrt(c))
            Y = rand_rows(rng, 20, 3, 0.05, 0.9 / math.sqrt(c))
            tape = Tape()
            tx, ty = tape.const(X), tape.const(Y)
            assert np.allclose(
                oracle.mobius_add_rows(tx, ty, c).value, bo.mobius_add_rows(X, Y, c),
                atol=1e-12,
            )

    def test_distance_of_equal_rows_is_zero_with_zero_gradient(self):
        tape = Tape()
        x = tape.leaf(np.array([[0.3, -0.2], [0.1, 0.4]]))
        d = bo.distance_rows(x, tape.const(x.value.copy()), 1.0)
        assert np.array_equal(d.value, np.zeros((2, 1)))
        with np.errstate(all="raise"):
            grads = tape.backward(td.total(d))
        assert np.array_equal(grads[x], np.zeros((2, 2)))

    def test_gradients_against_central_differences(self):
        rng = np.random.default_rng(43)
        builders = {
            "distance": lambda t, l: mean_all(bo.distance_rows(l[0], l[1], 1.0)),
            "origin_distance": lambda t, l: mean_all(bo.origin_distance_rows(l[0], 1.0)),
            "exp_origin": lambda t, l: mean_all(td.square(bo.exp_map_origin_rows(l[0], 1.0))),
            "aperture": lambda t, l: mean_all(bo.aperture_rows(l[0], 0.1)),
        }
        for name, f in builders.items():
            for _ in range(5):
                pt = [rand_rows(rng, 4, 3, 0.15, 0.8), rand_rows(rng, 4, 3, 0.15, 0.8)]
                err = finite_diff_check(f, pt[: f.__code__.co_argcount if f.__code__.co_argcount else 2])
                assert err < 1e-4, name

    def test_exterior_angle_gradient_away_from_kinks(self):
        rng = np.random.default_rng(47)
        done = 0
        while done < 5:
            X = rand_rows(rng, 4, 3, 0.2, 0.7)
            Y = rand_rows(rng, 4, 3, 0.2, 0.7)
            tape = Tape()
            cos_vals = None
            theta = bo.exterior_angle_rows(tape.const(X), tape.const(Y)).value
            # Stay away from the acos clamp ends where the kink makes FD meaningless.
            if np.any(theta < 0.05) or np.any(theta > math.pi - 0.05):
                continue

            def f(t, l):
                return mean_all(bo.exterior_angle_rows(l[0], l[1]))

            assert finite_diff_check(f, [X, Y]) < 1e-4
            done += 1

    def test_ball_membership_after_projection(self):
        rng = np.random.default_rng(53)
        v = rng.normal(size=(50, 8)) * 10.0  # norms far beyond the ball
        for c in (0.5, 1.0, 2.0):
            tape = Tape()
            out = bo.exp_map_origin_rows(tape.const(v), c).value
            assert np.all(c * np.sum(out * out, axis=1) < 1.0)


def _shift(x, offset):
    """Rows moved by `offset` with zero fill: out[i] = x[i + offset]."""
    if offset == 0:
        return x
    out = np.zeros_like(x)
    if offset > 0:
        out[:-offset or None] = x[offset:]
    else:
        out[-offset:] = x[:offset]
    return out


def shifted_conv1d(xv, wv, g, dilation):
    """Oracle conv1d on zero-filled shifted copies of x, tap by tap: the
    output and, for upstream gradient g, the gradients of x and w."""
    k = wv.shape[0]
    offsets = [(j - k // 2) * dilation for j in range(k)]
    out = np.zeros((xv.shape[0], wv.shape[2]))
    for j, off in enumerate(offsets):
        out += _shift(xv, off) @ wv[j]
    gx = np.zeros_like(xv)
    gw = np.zeros_like(wv)
    for j, off in enumerate(offsets):
        gx += _shift(g @ wv[j].T, -off)
        gw[j] = _shift(xv, off).T @ g
    return out, gx, gw


class TestPaddedConv1d:
    @pytest.mark.parametrize("dilation", [1, 2, 4, 8])
    @pytest.mark.parametrize("length", [3, 7, 40])
    @pytest.mark.parametrize("kernel", [2, 3])
    def test_bit_identical_to_shifted_oracle(self, dilation, length, kernel):
        rng = np.random.default_rng(1000 * dilation + 10 * length + kernel)
        xv = rng.normal(size=(length, 5))
        wv = rng.normal(size=(kernel, 5, 4))
        g = rng.normal(size=(length, 4))
        tape = Tape()
        x, w = tape.leaf(xv), tape.leaf(wv)
        out = layers.conv1d(x, w, dilation)
        # total(out * g) hands conv1d's backward exactly g
        grads = tape.backward(td.total(td.mul(out, g)))
        ref_out, ref_gx, ref_gw = shifted_conv1d(xv, wv, g, dilation)
        assert out.value.tobytes() == ref_out.tobytes()
        assert grads[x].tobytes() == ref_gx.tobytes()
        assert grads[w].tobytes() == ref_gw.tobytes()

    @pytest.mark.parametrize("dilation,length", [(1, 6), (4, 9), (8, 3)])
    def test_against_central_differences(self, dilation, length):
        rng = np.random.default_rng(dilation * 31 + length)

        def f(tape, leaves):
            return mean_all(oracle.tanh(layers.conv1d(leaves[0], leaves[1], dilation)))

        pt = [rng.normal(size=(length, 3)), rng.normal(size=(3, 3, 2))]
        assert finite_diff_check(f, pt) < 1e-6


class TestNonRecordingTape:
    """A tape of constants computes the bytes a tape of leaves computes and
    records nothing."""

    @pytest.mark.parametrize("name", sorted(_op_cases()))
    def test_same_bytes_as_recording_and_no_record(self, name):
        f = _op_cases()[name]
        rng = np.random.default_rng(7)
        if name == "matmul":
            point = [rand_rows(rng, 2, 3), rand_rows(rng, 3, 5)]
        else:
            point = [rand_rows(rng, 3, 4), rand_rows(rng, 3, 4)]
        recording, bare = Tape(), Tape()
        expected = f(recording, [recording.leaf(p) for p in point])
        got = f(bare, [bare.const(p) for p in point])
        assert got.value.tobytes() == expected.value.tobytes()
        assert recording.nodes and bare.nodes == []
        assert got._push is None and not got.needs_grad

    def test_model_forward_matches_recording_tape(self):
        from hyptas.model import Denoiser, DenoiserConfig

        model = Denoiser(DenoiserConfig(feature_dim=6, classes=4, encoder_channels=8), seed=2)
        rng = np.random.default_rng(2)
        features, y_t = rng.normal(size=(30, 6)), rng.normal(size=(30, 4))
        outs, tapes = [], (Tape(), Tape())
        for tape, trainable in zip(tapes, (True, False)):
            bound = model.bind(tape, trainable=trainable)
            condition, p_enc = bound.encode(features, (30,))
            emb, probs = bound.decode(tape.const(y_t), condition, [17], (30,))
            outs.append([t.value.tobytes() for t in (condition, p_enc, emb, probs)])
        assert outs[0] == outs[1]
        assert tapes[0].nodes and tapes[1].nodes == []


class TestScalarOperands:
    """A Python float operand is no tape node: the op records one node, and
    its value and gradient are the float expressions."""

    @pytest.mark.parametrize("op,scalar,value,grad", [
        (td.mul, 2.0, lambda x: x * 2.0, lambda g: g * 2.0),
        (td.add, 1.0, lambda x: x + 1.0, lambda g: g),
        (td.sub, 0.5, lambda x: x + -0.5, lambda g: g),
    ], ids=["mul", "add", "sub"])
    def test_one_node_with_the_float_bytes(self, op, scalar, value, grad):
        rng = np.random.default_rng(3)
        xv, g = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        tape = Tape()
        x = tape.leaf(xv)
        out = op(x, scalar)
        assert tape.nodes == [x, out]
        assert out.value.tobytes() == value(xv).tobytes()
        # total(out * g) hands the op's backward exactly g
        grads = tape.backward(td.total(td.mul(out, g)))
        assert grads[x].tobytes() == grad(g).tobytes()


class TestTensorSubtraction:
    def test_one_node_with_the_bytes_of_adding_the_negation(self):
        # b * -1.0 is -b exactly, and its gradient g * -1.0 is -g.
        rng = np.random.default_rng(8)
        av, bv, g = (rng.normal(size=(4, 3)) for _ in range(3))
        results = []
        for form in (td.sub, lambda a, b: td.add(a, td.mul(b, -1.0))):
            tape = Tape()
            a, b = tape.leaf(av), tape.leaf(bv)
            out = form(a, b)
            nodes = len(tape.nodes)
            grads = tape.backward(td.total(td.mul(out, g)))
            results.append((nodes, out.value.tobytes(), grads[a].tobytes(), grads[b].tobytes()))
        assert results[0][0] == 3 and results[1][0] == 4
        assert results[0][1:] == results[1][1:]

    def test_a_constant_operand_gets_no_gradient(self):
        tape = Tape()
        a, b = tape.leaf(np.array([1.0, 2.0])), tape.const(np.array([0.5, 4.0]))
        out = td.sub(a, b)
        assert tape.nodes == [a, out]
        grads = tape.backward(td.total(out))
        assert grads[a].tolist() == [1.0, 1.0] and b.grad is None


class TestSingleUseTape:
    def test_backward_drops_the_record(self):
        tape = Tape()
        x = tape.leaf(np.array([[1.0, 2.0]]))
        grads = tape.backward(td.total(td.square(x)))
        assert tape.nodes == []
        assert np.array_equal(grads[x], [[2.0, 4.0]])

    def test_second_backward_raises(self):
        tape = Tape()
        x = tape.leaf(np.array(3.0))
        out = td.square(x)
        tape.backward(out)
        with pytest.raises(AutodiffError, match="single use"):
            tape.backward(out)
