"""Property tests of the readers, driven by hypothesis.

For any text, `read_mapping`, `read_labels` and `parse_config_text` return a
value or refuse the text with `FormatError` / `ConfigError`; any other
exception would reach the CLI as exit 2, which is reserved for bugs. Index
and number tokens are drawn from the Unicode digit categories (Nd, No), where
`str.isdigit` and `int` disagree: '²'.isdigit() is True, but int('²')
raises ValueError. A number must be ASCII: int('٣') is 3, but a config
value '٣' is refused. `write_mapping` -> `read_mapping` returns every list
of distinct one-line class names unchanged, and the canonical text of any
valid `RunConfig` parses back to a config with the same text.

The binary readers get damaged copies of a valid feature file (.htfe) and
checkpoint (.htck): bit flips, truncations, insertions and float64
extremes planted at any offset. `read_features` and `read_checkpoint`
return a value or raise `FormatError`, and `load_checkpoint` returns a
state or raises a `HyptasError`.

Every test is derandomized, so a run draws the same examples every time.
"""

import math
import string
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyptas.data import (
    _CONFIG_TYPES,
    DECAY_KINDS,
    RunConfig,
    parse_config_text,
    read_checkpoint,
    read_features,
    read_labels,
    read_mapping,
    write_features,
    write_mapping,
)
from hyptas.diffusion import make_schedule
from hyptas.errors import ConfigError, FormatError, HyptasError
from hyptas.model import Denoiser, DenoiserConfig
from hyptas.trainer import TrainedState, init_prototypes, load_checkpoint, save_checkpoint

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150, database=None)

DIGITS = st.text(st.characters(categories=("Nd", "No")) | st.sampled_from(string.digits),
                 min_size=1, max_size=3)
SPACE = st.sampled_from([" ", "  ", "\t", "　", ""])
NAME = st.text(st.sampled_from("ab cé²٣") | st.characters(), max_size=4)


def _line(*parts):
    return st.tuples(*parts).map("".join)


MAPPING_TEXT = st.one_of(
    st.text(),
    st.lists(_line(SPACE, DIGITS, SPACE, NAME), max_size=6).map("\n".join),
)
CONFIG_TEXT = st.one_of(
    st.text(),
    st.lists(_line(st.sampled_from(sorted(_CONFIG_TYPES)), SPACE, st.just("="), SPACE,
                   st.one_of(DIGITS, NAME, _line(DIGITS, st.just("."), DIGITS))),
             max_size=6).map("\n".join),
)
CLASS_NAMES = ["a", "b c", "²", "٣"]
LABEL_TEXT = st.one_of(
    st.text(),
    st.lists(_line(SPACE, st.sampled_from(CLASS_NAMES) | NAME, SPACE), max_size=6).map("\n".join),
)


def _one_line_name(name: str) -> bool:
    """A class name that a mapping line holds as written: non-empty, without
    surrounding whitespace or any line break that `str.splitlines` knows."""
    return bool(name) and name == name.strip() and name.splitlines() == [name]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "file.txt"


@PROPERTY
@given(text=MAPPING_TEXT)
def test_read_mapping_returns_or_refuses(scratch, text):
    scratch.write_text(text, encoding="utf-8")
    try:
        names = read_mapping(scratch)
    except FormatError as e:
        assert str(scratch) in str(e)
        return
    assert names and len(set(names)) == len(names)


@PROPERTY
@given(text=LABEL_TEXT)
def test_read_labels_returns_or_refuses(scratch, text):
    scratch.write_text(text, encoding="utf-8")
    try:
        labels = read_labels(scratch, CLASS_NAMES)
    except FormatError as e:
        assert str(scratch) in str(e)
        return
    assert labels.size and labels.min() >= 0 and labels.max() < len(CLASS_NAMES)


def _has_non_ascii_number(text: str) -> bool:
    """Whether a line of config text gives an int or float key a value that
    is not ASCII, split the way `parse_config_text` splits it."""
    for raw in text.splitlines():
        key, equals, value = raw.split("#", 1)[0].partition("=")
        if equals and _CONFIG_TYPES.get(key.strip()) in (int, float) \
                and not value.strip().isascii():
            return True
    return False


@PROPERTY
@given(text=CONFIG_TEXT)
def test_parse_config_text_returns_or_refuses(text):
    try:
        values = parse_config_text(text, source="run.cfg")
    except ConfigError as e:
        assert str(e).startswith("run.cfg:")
        return
    assert set(values) <= set(_CONFIG_TYPES)
    assert not _has_non_ascii_number(text)


def _finite(lo: float, hi: float | None = None):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def run_configs(draw):
    """Any valid `RunConfig`, with sizes below the caps and e1, infer_steps
    inside their ranges."""
    epochs = draw(st.integers(1, 10**6))
    timesteps = draw(st.integers(1, 100_000))
    values = {
        "epochs": epochs,
        "e1": draw(st.none() | st.integers(0, epochs)),
        "batch_size": draw(st.integers(1, 10**6)),
        "timesteps": timesteps,
        "infer_steps": draw(st.integers(1, timesteps)),
        "seed": draw(st.integers(0, 2**64)),
        "curvature": draw(_finite(0.0, 99.0).filter(lambda c: c > 0.0)),
        "decay": draw(st.sampled_from(DECAY_KINDS)),
        "aux_head": draw(st.booleans()),
        "single_phase": draw(st.booleans()),
        "embed_dim": draw(st.integers(1, 1024)),
        "encoder_channels": draw(st.integers(1, 1024)),
    }
    for name in ("lr", "proto_lr", "cone_k", "margin"):
        values[name] = draw(_finite(0.0).filter(lambda v: v > 0.0))
    for name in ("lambda_ce", "lambda_entail", "lambda_margin", "lambda_pp", "lambda_gg"):
        values[name] = draw(_finite(0.0))
    return RunConfig(**values)


@PROPERTY
@given(config=run_configs())
def test_canonical_text_is_a_fixed_point(config):
    text = config.canonical_text()
    assert RunConfig(**parse_config_text(text)).canonical_text() == text


@PROPERTY
@given(names=st.lists(st.text(min_size=1, max_size=8).filter(_one_line_name),
                      min_size=1, max_size=8, unique=True))
def test_write_then_read_mapping_round_trips(scratch, names):
    write_mapping(scratch, names)
    assert read_mapping(scratch) == names


EXTREMES = (math.inf, -math.inf, math.nan, -0.0, 5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 2.0**53)


@st.composite
def damaged(draw, blob: bytes) -> bytes:
    """`blob` with one to three flips, truncations, insertions or planted
    float64 extremes, each at any offset of the bytes so far."""
    for _ in range(draw(st.integers(1, 3))):
        size = len(blob)
        kind = draw(st.sampled_from(("flip", "truncate", "insert", "plant")))
        at = draw(st.integers(0, max(size - 1, 0)))
        if kind == "flip" and size:
            blob = blob[:at] + bytes([blob[at] ^ (1 << draw(st.integers(0, 7)))]) + blob[at + 1:]
        elif kind == "truncate":
            blob = blob[:at]
        elif kind == "insert":
            blob = blob[:at] + draw(st.binary(min_size=1, max_size=8)) + blob[at:]
        else:
            blob = blob[:at] + struct.pack("<d", draw(st.sampled_from(EXTREMES))) + blob[at + 8:]
    return blob


def _valid_feature_file(path) -> bytes:
    write_features(path, np.arange(12.0).reshape(4, 3) / 7.0)
    return path.read_bytes()


def _valid_checkpoint(path) -> bytes:
    config = RunConfig(timesteps=20, infer_steps=2, embed_dim=2, encoder_channels=2)
    model = Denoiser(DenoiserConfig(feature_dim=3, classes=3, embed_dim=2, encoder_channels=2))
    prototypes = init_prototypes(3, 2, config.curvature, 0)
    save_checkpoint(TrainedState(model, prototypes, make_schedule(20), config), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("binary")
    return _valid_feature_file(root / "v.htfe"), _valid_checkpoint(root / "v.htck")


@PROPERTY
@given(data=st.data())
def test_damaged_feature_file_reads_or_refuses(valid_files, scratch, data):
    blob = data.draw(damaged(valid_files[0]))
    path = scratch.with_suffix(".htfe")
    path.write_bytes(blob)
    try:
        features = read_features(path)
    except FormatError as e:
        assert str(path) in str(e)
        return
    assert features.ndim == 2 and features.size and np.all(np.isfinite(features))


@PROPERTY
@given(data=st.data())
def test_damaged_checkpoint_reads_or_refuses(valid_files, scratch, data):
    blob = data.draw(damaged(valid_files[1]))
    path = scratch.with_suffix(".htck")
    path.write_bytes(blob)
    try:
        sections = read_checkpoint(path)
    except FormatError as e:
        assert str(path) in str(e)
        return
    assert isinstance(sections, dict)
    try:
        state = load_checkpoint(path)
    except HyptasError as e:
        assert str(path) in str(e)
        return
    assert state.model.config.classes == state.prototypes.count
