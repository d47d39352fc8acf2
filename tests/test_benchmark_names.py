"""The names the benchmark harness looks up in `hyptas` by string resolve.

`perfbench/spans.py` wraps the methods in `METHODS` and times the loss
functions of `catalog.LOSS_KINDS` and the check suites of
`catalog.CHECK_SUITES` by name, so a rename in `src/` would otherwise show
only when the harness runs. The op kinds (`catalog.OP_KINDS`) are left out:
they are matched against tape op names, not looked up.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("catalog"), importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


def _module(layer: str):
    return importlib.import_module(f"hyptas.{layer}")


def test_traced_layers_are_modules(harness):
    _, spans = harness
    for layer in spans.LAYERS:
        _module(layer)


def test_traced_methods_resolve(harness):
    _, spans = harness
    assert spans.METHODS
    for layer, cls_name, method in spans.METHODS:
        cls = getattr(_module(layer), cls_name, None)
        assert inspect.isclass(cls), f"hyptas.{layer}.{cls_name} is not a class"
        assert inspect.isfunction(getattr(cls, method, None)), \
            f"hyptas.{layer}.{cls_name}.{method} is not a method"


@pytest.mark.parametrize("table, layer", [("LOSS_KINDS", "losses"), ("CHECK_SUITES", "checks")])
def test_timed_functions_resolve(harness, table, layer):
    catalog, _ = harness
    names = getattr(catalog, table)
    names = list(names.values()) if isinstance(names, dict) else list(names)
    assert names
    for name in names:
        assert inspect.isfunction(getattr(_module(layer), name, None)), \
            f"catalog.{table} names hyptas.{layer}.{name}, which is not a function"
