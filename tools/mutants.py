"""Mutation harness: which small defects in one module do the named tests see?

Usage:

    python tools/mutants.py src/bourbaki/geometry.py tests/test_geometry.py tests/test_cli.py \
        [--out mutants.json]

Each mutant changes one spot of the module's syntax tree:

* ``+`` and ``-`` swap (binary operators and augmented assignments);
* ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=`` swap;
* a ``next_minus(x)`` or ``next_plus(x)`` call becomes ``x``.

The package tree is copied once into a temporary directory; each mutant is
written there (``ast.unparse`` of the mutated tree) and the named test files
run against it with pytest, stopping at the first failure.  A mutant whose
tests all pass survives.  A run that takes longer than five times the
unmutated run, or than a minute if that is longer, is stopped, and its mutant
counts as killed.  The survivors go to the ``--out`` JSON file, each with its
id: the enclosing function, the original expression and the mutated one.  The
exit status is 1 when a survivor is not in ``tools/equivalent_mutants.json``,
a JSON list of ``{"id": ..., "reason": ...}`` naming the mutants known to
behave like the original, and 2 when the unmutated tests fail.  The module must lie inside the repository; only the
temporary copy is ever written.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENT = ROOT / "tools" / "equivalent_mutants.json"
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
STEPS = {"next_minus", "next_plus"}
# a mutant's run may take this multiple of the unmutated run, and at least the floor
TIMEOUT_FACTOR, TIMEOUT_FLOOR_S = 5, 60


def _sites(tree: ast.Module) -> list[tuple[str, ast.AST, object]]:
    """(enclosing function, node, change) for every mutable spot, in source order;
    change is an operator index for a comparison, else None."""
    sites = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            sites.append((scope, node, None))
        elif isinstance(node, ast.Compare):
            sites.extend((scope, node, k) for k, op in enumerate(node.ops) if type(op) in SWAPS)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in STEPS:
            sites.append((scope, node, None))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return sites


def _mutate(node: ast.AST, k) -> ast.AST:
    """A mutated copy of node: its operator swapped, or the step call dropped."""
    if isinstance(node, ast.Call):
        return node.args[0]
    new = copy.copy(node)
    if isinstance(node, ast.Compare):
        new.ops = list(node.ops)
        new.ops[k] = SWAPS[type(node.ops[k])]()
    else:
        new.op = SWAPS[type(node.op)]()
    return new


def mutants(source: str) -> list[dict]:
    """Every mutant of the module source: its id, line and mutated source."""
    tree = ast.parse(source)
    parents = {child: parent for parent in ast.walk(tree) for child in ast.iter_child_nodes(parent)}
    found, seen = [], {}
    for scope, node, k in _sites(tree):
        mutated = _mutate(node, k)
        key = f"{scope or '<module>'}: {ast.unparse(node)} -> {ast.unparse(mutated)}"
        seen[key] = seen.get(key, 0) + 1
        mutant_id = key if seen[key] == 1 else f"{key} #{seen[key]}"
        _replace(parents[node], node, mutated)
        found.append({"id": mutant_id, "line": node.lineno, "source": ast.unparse(tree)})
        _replace(parents[node], mutated, node)
    return found


def _replace(parent: ast.AST, old: ast.AST, new: ast.AST) -> None:
    for field, value in ast.iter_fields(parent):
        if value is old:
            setattr(parent, field, new)
        elif isinstance(value, list):
            parent_list = getattr(parent, field)
            for j, item in enumerate(parent_list):
                if item is old:
                    parent_list[j] = new


def _passes(tree: Path, tests: list[str], timeout: float | None = None) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("module", help="module to mutate, relative to the repository root")
    parser.add_argument("tests", nargs="+", help="test files to run against each mutant")
    parser.add_argument("--out", default="mutants.json", help="JSON side file for the survivors")
    args = parser.parse_args(argv)

    module = (ROOT / args.module).resolve().relative_to(ROOT)
    source = (ROOT / module).read_text(encoding="utf-8")
    found = mutants(source)
    survivors = []
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
        shutil.copytree(ROOT, tree, ignore=ignore)
        target = tree / module
        start = time.monotonic()
        if not _passes(tree, args.tests):
            print("error: the tests fail on the unmutated module", file=sys.stderr)
            return 2
        timeout = max(TIMEOUT_FLOOR_S, TIMEOUT_FACTOR * (time.monotonic() - start))
        for n, mutant in enumerate(found, 1):
            target.write_text(mutant["source"], encoding="utf-8")
            survived = _passes(tree, args.tests, timeout)
            print(f"[{n}/{len(found)}] {'SURVIVED' if survived else 'killed  '} "
                  f"line {mutant['line']}: {mutant['id']}", file=sys.stderr)
            if survived:
                survivors.append({"id": mutant["id"], "line": mutant["line"]})
        target.write_text(source, encoding="utf-8")

    report = {"module": str(module), "tests": args.tests, "mutants": len(found),
              "survivors": survivors}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"{module}: {len(survivors)} of {len(found)} mutants survived")
    known = {e["id"] for e in json.loads(EQUIVALENT.read_text(encoding="utf-8"))}
    unexplained = [s for s in survivors if s["id"] not in known]
    for s in unexplained:
        print(f"survivor not in {EQUIVALENT.relative_to(ROOT)}: line {s['line']}: {s['id']}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
