"""The one library use left of ``linalg.rref``."""

import ast
from pathlib import Path

import adele_forge


def test_rref_has_one_library_caller():
    """``linalg.rref`` serves ``kernel_basis`` alone: the principal-parts
    rank of the cohomology computation is a count of the pivots of its
    Riemann-Roch basis (``curves.riemann_roch_pivots``)."""
    package = Path(adele_forge.__file__).resolve().parent
    callers = set()
    for path in package.rglob("*.py"):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "rref":
                    callers.add((path.name, func.name))
    assert callers == {("linalg.py", "kernel_basis")}
