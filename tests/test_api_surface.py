"""Every public module-level function and class in `src/hyptas` is used by the
package itself or by the benchmark harness, not only by tests.

A name counts as used when it appears outside its own definition in
`src/hyptas/*.py` or `perfbench/*.py`: as a name, an attribute, an import, or
a dotted-name string constant (the harness names the loss terms it traces
as strings). Free text such as docstrings does not count. The CLI entry point `main` is exempt; the console script calls it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hyptas").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))
EXEMPT = {"main"}


def _names(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name.split(".")[-1]]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if re.fullmatch(r"[\w.]+", node.value):  # "cross_entropy", "optim.Adam.step"
            return node.value.split(".")
    return []


def _public_definitions():
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node


def _uses() -> dict[str, set[tuple[Path, int]]]:
    """Name -> (file, line) of every node that mentions it."""
    uses: dict[str, set[tuple[Path, int]]] = {}
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            for name in _names(node):
                uses.setdefault(name, set()).add((path, getattr(node, "lineno", 0)))
    return uses


def test_no_public_api_only_tests_call():
    uses = _uses()
    unused = []
    for path, node in _public_definitions():
        if node.name in EXEMPT:
            continue
        inside = range(node.lineno, node.end_lineno + 1)
        outside = [(p, line) for p, line in uses.get(node.name, ())
                   if p != path or line not in inside]
        if not outside:
            unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"public API that nothing in src/ or perfbench/ uses: {unused}"
