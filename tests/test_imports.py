"""Every module of the package uses each name it imports and each private function it defines."""

import ast
import importlib
from pathlib import Path

import pytest

import thetagraph

PACKAGE = Path(thetagraph.__file__).parent
# the package's __init__ imports only to re-export
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    source = "import math\nfrom .numtheory import euler_phi, factorize\nfactorize(6)\n"
    assert _unused_imports(source) == ["euler_phi (line 2)", "math (line 1)"]


def test_names_in_all_count_as_used():
    assert _unused_imports('from math import gcd\n__all__ = ["gcd"]\n') == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_defines_every_name_in_its_all(path):
    module = importlib.import_module(f"thetagraph.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def _unreferenced_private_functions(source: str) -> list[str]:
    """Module-level functions named ``_name`` (not dunders) that no other line of the module names."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"{node.name} (line {node.lineno})"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in used
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_references_every_private_function_it_defines(path):
    assert _unreferenced_private_functions(path.read_text(encoding="utf-8")) == []


def test_unreferenced_private_function_is_caught():
    source = (
        "def _cross_check_failed(t, detail):\n    return detail\n"
        "def _agree(t):\n    return t\n"
        "def public(t):\n    return _agree(t)\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n"
    )
    assert _unreferenced_private_functions(source) == ["_cross_check_failed (line 1)"]
