"""Checks on the package source that need no linter."""

import ast
from pathlib import Path

import pytest

import qlower

# __init__.py imports names to re-export them.
MODULES = sorted(p for p in Path(qlower.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_imported_from_another_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "qlower")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


# The functions that decide a Hoelder inequality, and the module of each.
EXACT_DECISIONS = {"holder_sign": "approx.py", "check_holder": "harness.py",
                   "certified": "approx.py"}


@pytest.mark.parametrize("name", EXACT_DECISIONS)
def test_hoelder_decisions_read_no_binary64(name):
    """No float(), round_binary64() or math.* in the exact decisions, so
    that no verdict among them can fall back to binary64 unnoticed."""
    path = Path(qlower.__file__).parent / EXACT_DECISIONS[name]
    tree = ast.parse(path.read_text(encoding="utf-8"))
    [func] = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == name]
    binary64 = [ast.unparse(node) for node in ast.walk(func)
                if (isinstance(node, ast.Name) and node.id in ("float", "round_binary64"))
                or (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "math")]
    assert binary64 == []
