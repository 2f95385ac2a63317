"""The package exports resolve, and no library function is dead code."""

import ast
import inspect
from pathlib import Path

import oblique_stab
from oblique_stab import actuators, errors, fem, linalg, projection, quadrature, spectral

SRC = Path(oblique_stab.__file__).resolve().parent
LIBRARY = (actuators, errors, fem, linalg, projection, quadrature, spectral)


def _called_in_src() -> set[str]:
    """Names of everything called somewhere under src/, as f(...) or m.f(...)."""
    called = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    called.add(func.id)
                elif isinstance(func, ast.Attribute):
                    called.add(func.attr)
    return called


def test_every_export_resolves():
    missing = [name for name in oblique_stab.__all__ if not hasattr(oblique_stab, name)]
    assert missing == []


def test_every_public_function_is_exported_or_used():
    exported, called = set(oblique_stab.__all__), _called_in_src()
    orphans = [
        f"{module.__name__}.{name}"
        for module in LIBRARY
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if fn.__module__ == module.__name__ and not name.startswith("_")
        and name not in exported and name not in called
    ]
    assert orphans == []
