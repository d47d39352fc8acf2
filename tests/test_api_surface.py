"""Every public function, class, method and property in `src/hyptas` is used by
the package itself or by the benchmark harness, not only by tests.

Uses are resolved, not matched by bare name, in `src/hyptas/*.py` and
`perfbench/*.py`, outside the definition itself:

- A module-level function or class counts where a name is bound to it: a
  name in its own module, a name imported from its module
  (`from .losses import phase_loss`), or an attribute of its module
  (`td.conv1d`, `hyptas.cli.run`).
- A method or property counts as any attribute of its name (`opt.step`);
  the receiver's type is not known without running the code.
- In `perfbench/` only, a dotted-name string constant counts too, because
  the harness looks functions up by name ("cross_entropy", and
  ("optim", "Adam", "step") for methods).

So a local variable or a string in `src/` that only shares a name (the
`exp` subparser in `cli.py`, the decay kind "exp") is not a use. The CLI
entry point `main` is exempt; the console script calls it.

An operator method cannot be resolved this way, since `a * b` may be a
`Tensor` or an ndarray product. So every operator method `Tensor` defines
is counted at run time instead, over a tiny training in both phase layouts
and a packed inference. A property is counted at run time too, over the
same run from data generation on: the attribute rule above counts any
`.shape` as a use of a `shape` property, where nearly every one is an
ndarray's.
"""

import ast
import functools
import importlib
import inspect
import operator
import re
from pathlib import Path

import hyptas.autodiff as td
from hyptas.data import RunConfig, SyntheticSpec, generate_synthetic
from hyptas.trainer import infer_videos, train

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "hyptas"
SOURCES = sorted((ROOT / "src" / PACKAGE).glob("*.py"))
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))
EXEMPT = {"main"}


def _bindings(tree: ast.AST) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """Local names bound to package modules, and to names imported from them."""
    modules: dict[str, str] = {}
    names: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if not node.level:
                if source != PACKAGE and not source.startswith(PACKAGE + "."):
                    continue
                source = source[len(PACKAGE) + 1:]
            for alias in node.names:
                local = alias.asname or alias.name
                if source:  # from .losses import phase_loss
                    names[local] = (source, alias.name)
                else:  # from . import autodiff as td
                    modules[local] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE and len(parts) == 2 and alias.asname:
                    modules[alias.asname] = parts[1]  # import hyptas.autodiff as td
    return modules, names


def _module_of(node: ast.AST, modules: dict[str, str]) -> str | None:
    """The package module an expression names: `td` or `hyptas.cli`."""
    if isinstance(node, ast.Name):
        return modules.get(node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == PACKAGE:
        return node.attr
    return None


def _uses() -> tuple[dict[tuple, set], set[str]]:
    """Key -> (file, line) of each use, where a key is (module, name) for a
    module-level name and (None, name) for an attribute; plus every name the
    harness spells in a string."""
    uses: dict[tuple, set] = {}
    spelled: set[str] = set()
    for path in SOURCES + HARNESS:
        tree = ast.parse(path.read_text())
        own = path.stem if path in SOURCES else None
        modules, names = _bindings(tree)
        for node in ast.walk(tree):
            keys = []
            if isinstance(node, ast.Name):
                if node.id in names:
                    keys.append(names[node.id])
                elif own:
                    keys.append((own, node.id))
            elif isinstance(node, ast.Attribute):
                keys.append((None, node.attr))
                module = _module_of(node.value, modules)
                if module:
                    keys.append((module, node.attr))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and not own:
                if re.fullmatch(r"[\w.]+", node.value):
                    spelled.update(node.value.split("."))
            for key in keys:
                uses.setdefault(key, set()).add((path, node.lineno))
    return uses, spelled


def _definitions():
    """(path, key, qualified name, node) of every public definition."""
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield path, (path.stem, node.name), f"{path.stem}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield (path, (None, member.name),
                               f"{path.stem}.{node.name}.{member.name}", member)


def test_no_public_api_only_tests_call():
    uses, spelled = _uses()
    unused = []
    for path, key, qualified, node in _definitions():
        if node.name in EXEMPT or node.name in spelled:
            continue
        inside = range(node.lineno, node.end_lineno + 1)
        if not any(p != path or line not in inside for p, line in uses.get(key, ())):
            unused.append(qualified)
    assert not unused, f"public API that nothing in src/ or perfbench/ uses: {unused}"


def _is_operator(name: str) -> bool:
    """`__add__`, its reflected `__radd__` and in-place `__iadd__`, ..."""
    ops = vars(operator)
    return name in ops or name.replace("__r", "__", 1) in ops


def _counted(calls: dict[str, int], name: str, fn):
    calls[name] = 0

    @functools.wraps(fn)
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


def _tiny_run():
    """Generate a tiny dataset, train on it in both phase layouts and run a
    packed inference after each training."""
    data = generate_synthetic(SyntheticSpec(
        num_tasks=2, actions_per_task=1, shared_actions=2, feature_dim=4,
        frames_per_segment=(5, 8), segments_per_video=(2, 3), videos=6, seed=2,
    ))
    for single_phase in (False, True):  # stabilization + guidance, then single
        config = RunConfig(epochs=3, seed=1, timesteps=50, infer_steps=2,
                           single_phase=single_phase)
        state, _ = train(data, config)
        infer_videos(state, [v.features for v in data.test], 2, range(len(data.test)))


def test_every_tensor_operator_method_is_called(monkeypatch):
    calls: dict[str, int] = {}
    for name, fn in list(vars(td.Tensor).items()):
        if inspect.isfunction(fn) and _is_operator(name):
            monkeypatch.setattr(td.Tensor, name, _counted(calls, name, fn))
    _tiny_run()
    assert calls, "Tensor defines no operator method"
    unused = sorted(name for name, count in calls.items() if count == 0)
    assert not unused, f"Tensor operator methods nothing calls: {unused}"


def test_every_property_is_read(monkeypatch):
    reads: dict[str, int] = {}
    for path in SOURCES:
        module = importlib.import_module(f"{PACKAGE}.{path.stem}")
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            for name, member in list(vars(cls).items()):
                if isinstance(member, property):
                    qualified = f"{path.stem}.{cls.__name__}.{name}"
                    monkeypatch.setattr(cls, name, property(_counted(reads, qualified, member.fget)))
    _tiny_run()
    assert reads, "no package class defines a property"
    unread = sorted(name for name, count in reads.items() if count == 0)
    assert not unread, f"properties nothing reads: {unread}"
