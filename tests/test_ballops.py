"""Each fused ball op against its tape-primitive composition in `ball_oracles`.

The fused ops promise the composition's bits: the value and the gradient of
every input, for every choice of which inputs need a gradient, also inside
each clamp and when an input already holds gradient from ops created after
the ball op (so the order of the sums into it matters).
"""

import numpy as np
import pytest

import ball_oracles as oracle
import hyptas.autodiff as td
import hyptas.ballops as bo
from hyptas.autodiff import Tape
from hyptas.ballops import BALL_EPS, DENOM_EPS

FORMULAS = oracle.FORMULAS
TWO_INPUTS = ("distance_rows", "exterior_angle_rows")
# The curvature, or cone_k for the aperture; the rows reach every clamp at
# the first value, and the second rounds differently from it.
SCALARS = {"distance_rows": (1.0, 0.7), "origin_distance_rows": (1.0, 0.7),
           "exp_map_origin_rows": (1.0, 0.7), "exterior_angle_rows": (None,),
           "aperture_rows": (0.1, 0.3)}


def _call(module, name, inputs, scalar):
    return getattr(module, name)(*inputs, *([] if scalar is None else [scalar]))


def _rays(rng, n, d, lo, hi):
    v = rng.normal(size=(n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.uniform(lo, hi, size=(n, 1))


def _clamped_pairs(d=3):
    """(x, y) rows that reach every clamp of the five formulas, next to
    ordinary rows."""
    rng = np.random.default_rng(11)
    e = np.zeros(d)
    e[0] = 1.0
    base = _rays(rng, 4, d, 0.2, 0.7)
    xs, ys = [], []

    def pair(x, y):
        xs.append(np.asarray(x, dtype=float))
        ys.append(np.asarray(y, dtype=float))

    for x, y in zip(base, _rays(rng, 4, d, 0.2, 0.7)):
        pair(x, y)                                    # ordinary rows
    pair(np.zeros(d), np.zeros(d))                    # zero rows
    pair(np.zeros(d), base[0])                        # zero base
    pair(base[1], base[1])                            # coincident rows
    pair(base[2] * (0.5 * BALL_EPS / np.linalg.norm(base[2])), base[3])  # |x| <= BALL_EPS
    pair(base[0], 1.3 * base[0])                      # radially outward: cos = +1
    pair(base[1], 0.4 * base[1])                      # radially inward: cos = -1
    pair(base[2], -base[2])                           # through the origin
    pair(e, e)                                        # boundary: Mobius denominator 0
    pair((1.0 - 1e-13) * e, -(1.0 - 1e-13) * e)       # artanh argument past its cap
    pair(9.0 * base[3], -7.0 * base[0])               # past the tanh cap, outside the ball
    pair(30.0 * e, base[2])                           # aperture argument below -1
    return np.array(xs), np.array(ys)


def _run(module, name, needs, arrays, scalar):
    """Value of the formula and the gradients of the inputs that need one, for
    the scalar total(op * g) + total(<x, x> * h). The inner product is
    created after the op, so its gradient reaches x before the op's does."""
    tape = Tape()
    inputs = [tape.leaf(a) if n else tape.const(a) for a, n in zip(arrays, needs)]
    out = _call(module, name, inputs, scalar)
    rng = np.random.default_rng(5)
    g = rng.normal(size=out.value.shape)
    h = rng.normal(size=(arrays[0].shape[0], 1))
    x = inputs[0]
    loss = td.add(td.total(td.mul(out, g)), td.total(td.mul(oracle.rows_dot(x, x), h)))
    if not any(needs):
        return out.value, []
    grads = tape.backward(loss)
    return out.value, [grads[t] for t in inputs if t.needs_grad]


def _cases():
    for name in FORMULAS:
        if name in TWO_INPUTS:
            combos = [(True, True), (True, False), (False, True), (False, False)]
        else:
            combos = [(True,), (False,)]
        for needs in combos:
            for scalar in SCALARS[name]:
                yield name, needs, scalar


@pytest.mark.parametrize("name,needs,scalar", list(_cases()))
def test_fused_op_keeps_the_oracle_bits(name, needs, scalar):
    arrays = _clamped_pairs()[: len(needs)]
    fused_value, fused_grads = _run(bo, name, needs, arrays, scalar)
    oracle_value, oracle_grads = _run(oracle, name, needs, arrays, scalar)
    assert fused_value.tobytes() == oracle_value.tobytes()
    assert len(fused_grads) == len(oracle_grads) == sum(needs)
    for a, b in zip(fused_grads, oracle_grads):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", TWO_INPUTS)
def test_one_tensor_as_both_inputs(name):
    x, _ = _clamped_pairs()
    grads = []
    for module in (bo, oracle):
        tape = Tape()
        leaf = tape.leaf(x)
        out = _call(module, name, [leaf, leaf], SCALARS[name][-1])
        grads.append(tape.backward(td.total(out))[leaf].tobytes())
    assert grads[0] == grads[1]


@pytest.mark.parametrize("name", FORMULAS)
def test_one_tape_node(name):
    tape = Tape()
    arrays = _clamped_pairs()[: 2 if name in TWO_INPUTS else 1]
    inputs = [tape.leaf(a) for a in arrays]
    out = _call(bo, name, inputs, SCALARS[name][0])
    assert tape.nodes == inputs + [out]


@pytest.mark.parametrize("name", FORMULAS)
def test_forward_only_tape_gives_the_same_value(name, monkeypatch):
    """`evaluate` gives the bytes of the op on leaves, on one plain tape that
    records no node."""
    arrays = _clamped_pairs()[: 2 if name in TWO_INPUTS else 1]
    scalar = SCALARS[name][0]
    tape = Tape()
    recorded = _call(bo, name, [tape.leaf(a) for a in arrays], scalar)
    tapes = []

    class CountedTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(bo, "Tape", CountedTape)
    forward = bo.evaluate(getattr(bo, name), *arrays, *([] if scalar is None else [scalar]))
    assert forward.tobytes() == recorded.value.tobytes()
    assert len(tapes) == 1 and tapes[0].nodes == []


def test_the_rows_reach_every_clamp(monkeypatch):
    """Every bound of every clamp in the oracle compositions clips at least
    one row of `_clamped_pairs`, and every floored norm floors one."""
    reached = []
    clamp, row_norm = td.clamp, oracle.row_norm

    def recording_clamp(a, lo=None, hi=None):
        for bound, beyond in ((lo, np.less), (hi, np.greater)):
            if bound is not None:
                reached.append(bool(np.any(beyond(a.value, bound))))
        return clamp(a, lo=lo, hi=hi)

    def recording_row_norm(a, floor=DENOM_EPS):
        reached.append(bool(np.any(np.linalg.norm(a.value, axis=1) <= floor)))
        return row_norm(a, floor=floor)

    monkeypatch.setattr(td, "clamp", recording_clamp)
    monkeypatch.setattr(oracle, "row_norm", recording_row_norm)
    arrays = _clamped_pairs()
    for name in FORMULAS:
        reached.clear()
        _run(oracle, name, (False,) * (2 if name in TWO_INPUTS else 1), arrays, SCALARS[name][0])
        assert reached and all(reached), (name, reached)
