"""The names the benchmark harness looks up in `hyptas` by string resolve.

`perfbench/spans.py` wraps the methods in `METHODS` and times the loss
functions of `catalog.LOSS_KINDS` and the check suites of
`catalog.CHECK_SUITES` by name, so a rename in `src/` would otherwise show
only when the harness runs. The op kinds (`catalog.OP_KINDS`) are left out:
they are matched against tape op names, not looked up. Two of the wrapped
methods get a hook that calls them with arguments of its own, so their
signatures must keep accepting those arguments.
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


# The arguments each hook of `spans.Tracer` passes to the method it wraps:
# `_bind_hook` calls bind(model, tape, trainable=trainable) and
# `_backward_hook` calls backward(tape, output).
HOOK_CALLS = [
    (("model", "Denoiser", "bind"), ("model", "tape"), {"trainable": True}),
    (("autodiff", "Tape", "backward"), ("tape", "output"), {}),
]


@pytest.mark.parametrize("target, args, kwargs", HOOK_CALLS, ids=["bind", "backward"])
def test_hooked_methods_accept_what_their_hooks_pass(harness, target, args, kwargs):
    _, spans = harness
    assert target in spans.METHODS
    layer, cls_name, method = target
    signature = inspect.signature(getattr(getattr(_module(layer), cls_name), method))
    try:
        signature.bind(*args, **kwargs)
    except TypeError as e:
        pytest.fail(f"hyptas.{layer}.{cls_name}.{method}{signature} refuses the hook's call: {e}")
