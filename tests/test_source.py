"""Checks on the package source read from its syntax trees.

* Import hygiene: every imported name is read.  No linter is among the test
  dependencies, so each module's syntax tree is walked with ``ast``.
  ``__init__.py`` imports names only to re-export them and is left out;
  ``from __future__`` imports are exempt.
* Module boundaries: no module imports an underscore name from another
  package module, so each private name is read only where it is defined.
* The benchmark harness traces the functions that ``perfbench/spans.py``
  names in ``TRACED``, by layer: each must stay a callable of its module.
  ``TRACED`` is read from that file with ``ast``, without importing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bourbaki"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _read(tree: ast.AST) -> set[str]:
    return {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = sorted(_imported(tree) - _read(tree))
    assert not unused, f"{path.name} imports names it never reads: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = sorted(
        f"{'.' * node.level}{node.module or ''}.{a.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").partition(".")[0] == "bourbaki")
        for a in node.names
        if a.name.startswith("_")
    )
    assert not private, f"{path.name} imports private names: {private}"


def _traced() -> dict[str, tuple[str, ...]]:
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py assigns no TRACED")


TRACED = _traced()


@pytest.mark.parametrize("layer", sorted(TRACED))
def test_traced_names_are_bound(layer):
    module = importlib.import_module(f"bourbaki.{layer}")
    unbound = [n for n in TRACED[layer] if not callable(getattr(module, n, None))]
    assert not unbound, f"bourbaki.{layer} has no callable {unbound}"
