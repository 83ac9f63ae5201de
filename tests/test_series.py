"""Laws of ``series.LaurentSeries`` over prime and extension fields.

Series arithmetic runs on flat GF(p) int vectors (k ints per coefficient of
GF(p^k)); every result here is checked against FieldElement references
written in this file: the schoolbook product, the coefficient recurrence
for the inverse, and the precision formulas of each operation.  The fields
cover a small and a 61-bit prime, and extensions of degree 2 and 3, plus a
quadratic extension of the 61-bit prime.
"""

import ast
import inspect
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adele_forge import series
from adele_forge.errors import DomainError
from adele_forge.fields import FieldSpec, Polynomial, canonical_field, prime_field
from adele_forge.series import LaurentSeries, _horner, _newton_root

FIELDS = (
    prime_field(7),
    prime_field(2**61 - 1),
    canonical_field(5, 2),
    canonical_field(3, 3),
    # -1 is a non-square mod 2^61 - 1 (it is 3 mod 4)
    FieldSpec(2**61 - 1, 2, [1, 0, 1]),
)

SERIES = settings(deadline=None, max_examples=60)


def elt(spec, n):
    return spec.from_encoding(n % spec.order)


@st.composite
def raw_series(draw, spec, max_len=12):
    """(start, FieldElements, prec) with zeros anywhere, leading and
    trailing ones included."""
    start = draw(st.integers(-4, 4))
    codes = draw(st.lists(st.one_of(st.just(0), st.integers(0, spec.order - 1)), max_size=max_len))
    prec = start + len(codes) + draw(st.integers(-2, 3))
    return start, [elt(spec, n) for n in codes], prec


def build(spec, start, elts, prec):
    return LaurentSeries(spec, start, [x for e in elts for x in e.val], prec)


def ref_normalize(spec, start, elts, prec):
    """The constructor's rules on FieldElements: drop leading zeros, clamp
    to the precision window, drop trailing zeros."""
    elts = list(elts)
    while elts and not elts[0]:
        elts.pop(0)
        start += 1
    elts = elts[: max(0, prec - start)]
    while elts and not elts[-1]:
        elts.pop()
    return (start if elts else prec), elts, prec


def ref_mul(spec, f, g):
    """Schoolbook product on FieldElements with the product's precision."""
    fs, fe, fp = f
    gs, ge, gp = g
    if not fe or not ge:
        prec = min(fp + (gs if ge else gp), gp + (fs if fe else fp))
        return ref_normalize(spec, prec, [], prec)
    prec = min(fp + gs, gp + fs)
    start = fs + gs
    out = [spec.zero()] * max(prec - start, 0)
    for i, a in enumerate(fe):
        for j, b in enumerate(ge):
            if i + j < len(out):
                out[i + j] = out[i + j] + a * b
    return ref_normalize(spec, start, out, prec)


def ref_inverse(spec, f):
    """The coefficient recurrence for 1/f."""
    v, a, prec = f
    rel = prec - v
    a = a + [spec.zero()] * (rel - len(a))
    inv0 = a[0].inverse()
    out = [inv0]
    for n in range(1, rel):
        s = spec.zero()
        for i in range(1, n + 1):
            s = s + a[i] * out[n - i]
        out.append(-inv0 * s)
    return ref_normalize(spec, -v, out, prec - 2 * v)


def view(f):
    """(start, FieldElements, prec) of a series, through its public API."""
    k = f.spec.k
    return f.start, [f.coefficient(f.start + i) for i in range(len(f.coeffs) // k)], f.prec


@st.composite
def one_field(draw, n=1, nonzero=False):
    spec = draw(st.sampled_from(FIELDS))
    out = []
    for _ in range(n):
        start, elts, prec = draw(raw_series(spec))
        if nonzero:
            prec = max(prec, start + 1)
            elts = elts or [spec.one()]
            if not elts[0]:
                elts[0] = elt(spec, draw(st.integers(1, spec.order - 1)))
        out.append((start, elts, prec))
    return (spec, *out)


@SERIES
@given(one_field())
def test_constructor_trims_and_windows(case):
    spec, (start, elts, prec) = case
    f = build(spec, start, elts, prec)
    assert view(f) == ref_normalize(spec, start, elts, prec)
    k = spec.k
    if f.coeffs:
        assert any(f.coeffs[:k]) and any(f.coeffs[-k:])
        assert f.valuation() == f.start
    else:
        assert f.start == f.prec and f.is_zero_to_precision()
    for n in range(f.start - 2, f.prec):
        want = elts[n - start] if 0 <= n - start < len(elts) else spec.zero()
        assert f.coefficient(n) == want
    with pytest.raises(DomainError):
        f.coefficient(f.prec)


@SERIES
@given(one_field(n=2))
def test_product_matches_schoolbook(case):
    spec, f, g = case
    F, G = build(spec, *f), build(spec, *g)
    want = ref_mul(spec, ref_normalize(spec, *f), ref_normalize(spec, *g))
    assert view(F * G) == want
    assert view(G * F) == want


@SERIES
@given(one_field(n=2))
def test_sum_difference_and_scale(case):
    spec, f, g = case
    F, G = build(spec, *f), build(spec, *g)
    fs, fe, fp = ref_normalize(spec, *f)
    gs, ge, gp = ref_normalize(spec, *g)
    prec = min(fp, gp)
    start = min(fs, gs, prec)
    out = [spec.zero()] * (prec - start)
    for s, e in ((fs, fe), (gs, ge)):
        for i, c in enumerate(e):
            if s + i - start < len(out):
                out[s + i - start] = out[s + i - start] + c
    assert view(F + G) == ref_normalize(spec, start, out, prec)
    D = F - F
    assert D.is_zero_to_precision() and D.prec == F.prec
    assert view(F.truncate(fs + 1)) == ref_normalize(spec, fs, fe, min(fs + 1, fp))


@SERIES
@given(one_field(nonzero=True))
def test_inverse_is_newton_of_the_recurrence(case):
    spec, f = case
    F = build(spec, *f)
    ref = ref_normalize(spec, *f)
    inv = F.inverse()
    assert view(inv) == ref_inverse(spec, ref)
    assert (inv.start, inv.prec) == (-F.start, F.prec - 2 * F.start)
    one = F * inv
    assert one.prec == F.prec - F.start
    assert view(one) == ref_normalize(spec, 0, [spec.one()], one.prec)


def test_inverse_preconditions():
    spec = canonical_field(3, 3)
    zero = LaurentSeries.zero(spec, 5)
    with pytest.raises(DomainError):
        zero.inverse()


# ---------------------------------------------------------------------------
# _newton_root: the branch of F(t, v) = sum_j rows[j](t) * v^j = 0 through a
# smooth point (0, v0), over GF(5/7/11/13) and GF(7^2)

BRANCH_FIELDS = tuple(prime_field(p) for p in (5, 7, 11, 13)) + (canonical_field(7, 2),)


@SERIES
@given(st.data())
def test_newton_root_lifts_a_branch(data):
    spec = data.draw(st.sampled_from(BRANCH_FIELDS))
    codes = st.integers(0, spec.order - 1)
    rows = [
        Polynomial.from_elements(spec, [elt(spec, c) for c in data.draw(st.lists(codes, max_size=4))])
        for _ in range(data.draw(st.integers(2, 4)))
    ]
    v0 = elt(spec, data.draw(codes))
    # move F(0, v0) into the constant term of rows[0], so (0, v0) is on F = 0
    at0 = [row.evaluate(spec.zero()) for row in rows]
    rows[0] = rows[0] - Polynomial.constant(sum((c * v0**j for j, c in enumerate(at0)), spec.zero()))
    assume(sum((j * c * v0 ** (j - 1) for j, c in enumerate(at0) if j), spec.zero()))  # F_v(0, v0) != 0
    n = data.draw(st.integers(1, 40))
    start = LaurentSeries.constant(v0, 1)
    v = _newton_root(rows, start, 1, n)
    F = _horner(rows, v, n)
    assert F.is_zero_to_precision() and F.prec == n
    assert v.prec == n and v.coefficient(0) == v0
    assert view(_newton_root(rows, start, 1, 2 * n).truncate(n)) == view(v)


def test_newton_root_is_the_one_branch_lift():
    """In the package, only the elliptic expansions and the flag valuations
    lift a branch, by equation rows; series have no square root."""
    assert list(inspect.signature(_newton_root).parameters) == ["rows", "v", "m", "n"]
    callers = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = where.split(".")[0] + "." + node.name
        if isinstance(node, ast.Name) and node.id == "_newton_root":
            callers.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(series.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert sorted(set(callers)) == ["curves._ec_expansions", "surface._branch_order"]
    assert not hasattr(LaurentSeries, "sqrt")
