"""Property tests of the text readers, driven by hypothesis.

For any text, `read_mapping`, `read_labels` and `parse_config_text` return a
value or refuse the text with `FormatError` / `ConfigError`; any other
exception would reach the CLI as exit 2, which is reserved for bugs. Index
and number tokens are drawn from the Unicode digit categories (Nd, No), where
`str.isdigit` and `int` disagree: '²'.isdigit() is True, but int('²')
raises ValueError. `write_mapping` -> `read_mapping` returns every list of
distinct one-line class names unchanged.

Every test is derandomized, so a run draws the same examples every time.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyptas.data import (
    _CONFIG_TYPES,
    parse_config_text,
    read_labels,
    read_mapping,
    write_mapping,
)
from hyptas.errors import ConfigError, FormatError

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


@PROPERTY
@given(text=CONFIG_TEXT)
def test_parse_config_text_returns_or_refuses(text):
    try:
        values = parse_config_text(text, source="run.cfg")
    except ConfigError as e:
        assert str(e).startswith("run.cfg:")
        return
    assert set(values) <= set(_CONFIG_TYPES)


@PROPERTY
@given(names=st.lists(st.text(min_size=1, max_size=8).filter(_one_line_name),
                      min_size=1, max_size=8, unique=True))
def test_write_then_read_mapping_round_trips(scratch, names):
    write_mapping(scratch, names)
    assert read_mapping(scratch) == names
