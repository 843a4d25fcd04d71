"""Source hygiene of the qdescent package, read from its syntax trees:
imports at module level, no __import__, and no dead private functions;
every console script that pyproject.toml declares resolves; and every
helper module of the tests is imported by a test module."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qdescent"
TESTS = ROOT / "tests"
TREES = {path.name: ast.parse(path.read_text())
         for path in sorted(SRC.glob("*.py"))}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def test_no_relative_import_inside_a_function():
    found = [f"{name}:{node.lineno}"
             for name, tree in TREES.items()
             for fn in ast.walk(tree) if isinstance(fn, FUNCTIONS)
             for node in ast.walk(fn)
             if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert not found


def test_no_dunder_import():
    found = [f"{name}:{node.lineno}"
             for name, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "__import__"]
    assert not found


def referenced_names(node) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_private_function_is_referenced():
    # a module-level _name function must be referenced by code other than
    # its own body
    refs = [(name, stmt, referenced_names(stmt))
            for name, tree in TREES.items() for stmt in tree.body]
    unused = [f"{name}:{stmt.name}" for name, stmt, _ in refs
              if isinstance(stmt, FUNCTIONS) and stmt.name.startswith("_")
              and not stmt.name.startswith("__")
              and not any(stmt.name in names for _, other, names in refs
                          if other is not stmt)]
    assert not unused


def test_every_console_script_resolves():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_every_test_helper_module_is_imported():
    helpers = {path.stem for path in TESTS.glob("*.py")
               if not path.name.startswith("test_")
               and path.name != "conftest.py"}
    imported = set()
    for path in TESTS.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert not helpers - imported
