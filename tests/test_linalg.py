"""``linalg.leading_rank`` against the rank of the kernel rref, and the one
library use left of ``linalg.rref``."""

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import adele_forge
from adele_forge.linalg import leading_rank, rref


@st.composite
def _rows(draw):
    """Rows over GF(p) that force what the reduction must get right: a few
    leading columns shared by many rows, zero rows, and combinations of
    earlier rows (same leading column, dependent)."""
    p = draw(st.sampled_from([2, 5, 7, 2**61 - 1]))
    ncols = draw(st.integers(1, 7))
    entry = st.integers(0, min(p - 1, 3)) | st.integers(0, p - 1)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["zero", "lead", "lead", "combination"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination" and rows:
            a, b, c = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(entry)
            rows.append([(x + c * y) % p for x, y in zip(a, b)])
        else:
            lead = draw(st.integers(0, min(2, ncols - 1)) | st.integers(0, ncols - 1))
            tail = draw(st.lists(entry, min_size=ncols - lead - 1, max_size=ncols - lead - 1))
            rows.append([0] * lead + [draw(st.integers(1, p - 1))] + tail)
    return p, rows


@settings(deadline=None, max_examples=300)
@given(_rows())
def test_leading_rank_is_the_rref_rank(case):
    p, rows = case
    original = [list(r) for r in rows]
    assert leading_rank(rows, p) == len(rref(rows, p)[1])
    assert rows == original


def test_leading_rank_of_nothing():
    for p in (2, 5, 7, 2**61 - 1):
        assert leading_rank([], p) == 0
        assert leading_rank([[0, 0, 0]] * 3, p) == 0
        assert leading_rank([[1, 2], [1, 2], [0, 1]], p) == 2


def test_rref_has_one_library_caller():
    """``linalg.rref`` serves ``kernel_basis`` alone: the principal-parts
    rank of the cohomology computation is ``leading_rank``."""
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
