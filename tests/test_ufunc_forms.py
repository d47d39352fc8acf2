"""The per-step path calls numpy's ufuncs, not the Python wrappers around them.

`model`, `ballops` and the tape ops of `autodiff` run on every training and
sampler step, on arrays of about 100 x 32, where a wrapper such as `np.sum`
or `np.linalg.norm` costs microseconds around the ufunc loop it calls. They
call that loop directly instead. Two tests keep it so:

- a guard over the source, which names the ufunc form to use for each
  wrapper it finds;
- a derandomized property test that each fast form gives the bytes of the
  numpy call it replaces, on C- and F-ordered arrays and offset or strided
  views, 1-1,200 rows of 1, 6, 16 or 48 columns, with tied maxima, +-0.0,
  subnormals and magnitudes near 1e300.
"""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import hyptas
import hyptas.autodiff as td
import hyptas.ballops as bo
from hyptas.autodiff import Tape
from hyptas.model import _softmax_rows

SRC = Path(hyptas.__file__).parent

# wrapper -> the form the per-step path uses instead
FORMS = {
    "sum": "np.add.reduce(x, axis=..., keepdims=...)",
    "mean": "np.add.reduce(x, axis=None) / x.size",
    "max": "np.maximum.reduce (on np.asfortranarray(x) for short rows)",
    "min": "np.minimum.reduce (on np.asfortranarray(x) for short rows)",
    "clip": "autodiff._clamp (np.maximum, then np.minimum)",
    "linalg.norm": "ballops._norms (np.sqrt of np.add.reduce(a * a, axis=1, keepdims=True))",
    "zeros_like": "np.zeros(x.shape)",
    "split": "slices of the array",
    "tile": "np.concatenate([x] * n)",
    "triu_indices": "losses._pairs (cached read-only pair indices)",
}
FD_SECTION = "# Finite-difference oracle"


def _dotted(node):
    """'np.linalg.norm' for that attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def _step_path_sources():
    yield "ballops.py", (SRC / "ballops.py").read_text()
    yield "model.py", (SRC / "model.py").read_text()
    text = (SRC / "autodiff.py").read_text()
    assert FD_SECTION in text, f"autodiff.py lost its {FD_SECTION!r} section marker"
    yield "autodiff.py", text[: text.index(FD_SECTION)]  # the tape ops


def test_the_step_path_calls_no_numpy_wrapper():
    found = []
    for name, text in _step_path_sources():
        for node in ast.walk(ast.parse(text)):
            dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
            if dotted and dotted.startswith("np.") and dotted[3:] in FORMS:
                found.append((name, node.lineno, f"{dotted} -> use {FORMS[dotted[3:]]}"))
    assert not found, "numpy wrappers on the per-step path:\n" + "\n".join(
        f"{name}:{line}: {what}" for name, line, what in sorted(found))


# ---------------------------------------------------------------------------
# Byte equality of each fast form with the call it replaces
# ---------------------------------------------------------------------------

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)
# Squares and sums of values near 1e300 overflow to inf, on both sides alike.
QUIET = np.errstate(over="ignore", invalid="ignore")  # a decorator
LAYOUTS = ("C", "F", "offset", "strided")


def _values(rows: int, cols: int, seed: int) -> np.ndarray:
    """Normal draws at three scales, mixed with +-0.0, subnormals, values
    near 1e300 and rows of signed zeros only, with tied row maxima."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols)) * rng.choice([1e-3, 1.0, 30.0], size=(rows, 1))
    kind = rng.integers(0, 10, size=(rows, cols))
    sign = rng.choice([-1.0, 1.0], size=(rows, cols))
    x[kind == 5] = 0.0
    x[kind == 6] = -0.0
    x[kind == 7] = sign[kind == 7] * rng.integers(1, 2**40, size=int(np.sum(kind == 7))) * 5e-324
    x[kind == 8] = sign[kind == 8] * rng.uniform(0.5, 1.5, size=int(np.sum(kind == 8))) * 1e300
    zero_rows = rng.random(rows) < 0.1
    x[zero_rows] = np.where(rng.random((int(np.sum(zero_rows)), cols)) < 0.5, 0.0, -0.0)
    if cols > 1:
        tied = np.flatnonzero(rng.random(rows) < 0.3)
        x[tied, rng.integers(0, cols, size=tied.size)] = np.max(x[tied], axis=1)
    return x


def _laid_out(x: np.ndarray, layout: str) -> np.ndarray:
    """A fresh array of x's values in the given memory layout."""
    rows, cols = x.shape
    if layout == "C":
        return x.copy()
    if layout == "F":
        return x.copy(order="F")
    if layout == "offset":  # C-ordered rows one element into a buffer
        out = np.empty(rows * cols + 1)[1:].reshape(rows, cols)
    else:  # every other column of a wider buffer
        out = np.empty((rows, 2 * cols))[:, ::2]
    out[...] = x
    return out


@st.composite
def matrices(draw):
    rows = draw(st.integers(1, 1200))
    cols = draw(st.sampled_from([1, 6, 16, 48]))
    seed = draw(st.integers(0, 2**32 - 1))
    return _values(rows, cols, seed), draw(st.sampled_from(LAYOUTS))


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@PROPERTY
@given(matrices())
@QUIET
def test_softmax_rows_and_row_max_keep_the_bytes(case):
    x, layout = case
    val = _laid_out(x, layout)
    _same_bytes(np.maximum.reduce(np.asfortranarray(val), axis=1, keepdims=True),
                np.max(val, axis=1, keepdims=True))
    e = np.exp(val - np.max(val, axis=1, keepdims=True))
    _same_bytes(_softmax_rows(_laid_out(x, layout)), e / np.sum(e, axis=1, keepdims=True))


@PROPERTY
@given(matrices())
@QUIET
def test_row_norms_keep_the_bytes(case):
    x, layout = case
    a = _laid_out(x, layout)
    reference = np.linalg.norm(a, axis=1, keepdims=True)
    _same_bytes(bo._norms(a), reference)
    norm, active = bo._row_norm(a)
    _same_bytes(norm, np.maximum(reference, bo.DENOM_EPS))
    _same_bytes(active, reference > bo.DENOM_EPS)


@PROPERTY
@given(matrices(), st.sampled_from(["lo", "hi", "both"]), st.floats(1e-300, 2.0),
       st.floats(0.0, 1.0), st.booleans())
@QUIET
def test_the_shared_clamp_keeps_the_bytes(case, bounds, width, at, nan_rows):
    """No bound is 0.0: there np.clip keeps a -0.0 that np.maximum turns into
    +0.0 (no caller clamps at 0.0). A bound may equal a value of the rows."""
    x, layout = case
    if nan_rows:
        x[:: max(len(x) // 3, 1)] = np.nan
    finite = x[np.isfinite(x) & (x != 0.0)]
    lo = float(np.quantile(finite, at)) if finite.size else -width
    lo = lo if lo != 0.0 else -width
    hi = lo + width if lo + width != 0.0 else 2.0 * width
    lo, hi = {"lo": (lo, None), "hi": (None, hi), "both": (lo, hi)}[bounds]
    a = _laid_out(x, layout)
    out, kept = td._clamp(a, lo, hi)
    reference = np.clip(a, lo, hi)
    _same_bytes(out, reference)
    _same_bytes(kept, reference == a)


@PROPERTY
@given(matrices(), st.integers(0, 2**32 - 1))
@QUIET
def test_per_video_sums_and_means_keep_the_bytes(case, seed):
    x, layout = case
    a = _laid_out(x, layout)
    videos = int(np.random.default_rng(seed).integers(1, min(len(a), 8) + 1))
    cuts = np.sort(np.random.default_rng(seed).choice(np.arange(1, len(a)), videos - 1,
                                                      replace=False)) if videos > 1 else []
    stops = [*map(int, cuts), len(a)]
    spans = list(zip([0, *stops[:-1]], stops))
    rows = [hi - lo for lo, hi in spans]
    tape = Tape()
    _same_bytes(td.mean(tape.const(a), rows).value, np.array([np.mean(a[lo:hi]) for lo, hi in spans]))
    _same_bytes(td.sums(tape.const(a), rows).value, np.array([np.sum(a[lo:hi]) for lo, hi in spans]))
    _same_bytes(td.total(tape.const(a)).value, np.sum(a).reshape(()))


@PROPERTY
@given(matrices(), st.sampled_from(LAYOUTS), st.integers(0, 2**32 - 1))
@QUIET
def test_rows_dot_keeps_the_bytes(case, other_layout, seed):
    x, layout = case
    a = _laid_out(x, layout)
    b = _laid_out(_values(*x.shape, seed), other_layout)
    _same_bytes(bo._rows_dot(a, b), np.sum(a * b, axis=1, keepdims=True))
