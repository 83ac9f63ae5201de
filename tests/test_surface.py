import ast
import gc
import inspect
import json
import math
import time
from itertools import chain
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adele_forge import curves, surface
from adele_forge.cli import run_config
from adele_forge.errors import DomainError
from adele_forge.fields import FieldElement, Polynomial, canonical_field, poly_roots, prime_field
from adele_forge.surface import (
    BiPoly,
    FactoredFunction,
    HomForm,
    INFINITE,
    PlaneCurve,
    ProjPoint,
    SurfaceDivisor,
    SurfaceSymbol,
    bezout_number,
    bipoly_divide,
    choose_aux_line,
    curve_intersection_points,
    curve_tame_symbol,
    cycle_degree,
    dlog2_pole_check,
    flag_residue,
    fulton_intersection_cycle,
    fulton_multiplicity,
    intersection_number,
    parshin_point_reciprocity,
    surface_product_cycle,
    valuation_on_curve,
)
from adele_forge.surface import _fiber_poly, _has_linear_factor, _restriction_roots, _resultant_x2

P = 7
F7 = prime_field(P)

X0 = PlaneCurve(HomForm.line(P, 1, 0, 0))
X1 = PlaneCurve(HomForm.line(P, 0, 1, 0))
X2 = PlaneCurve(HomForm.line(P, 0, 0, 1))
CONIC = PlaneCurve(HomForm(P, {(0, 1, 1): 1, (2, 0, 0): -1}))  # X1X2 - X0^2
ORIGIN = ProjPoint((F7.zero(), F7.zero(), F7.one()))


def u_var(K=F7):
    return BiPoly.from_rows(K, (Polynomial.x(K),))


def v_var(K=F7):
    return BiPoly.from_rows(K, (Polynomial.zero(K), Polynomial.one(K)))


# ---------------------------------------------------------------------------
# BiPoly rows against {(i, j): c} term dicts


def _combine(K, terms):
    """The term dict of the sum of c * u^i * v^j over ((i, j), c) pairs."""
    out = {}
    for ij, c in terms:
        out[ij] = out.get(ij, K.zero()) + c
    return {ij: c for ij, c in out.items() if c}


def _times(a, b):
    return (((i + k, j + l), c * d) for (i, j), c in a.items() for (k, l), d in b.items())


def _reference_divide(K, n, f):
    """(quotient, remainder) term dicts of n by f: division by the
    lexicographically largest term of f, u before v, so the remainder is
    zero exactly when f divides n."""
    lead = max(f)
    inv = f[lead].inverse()
    q, r = {}, {}
    while n:
        top = max(n)
        c = n[top] * inv
        if top[0] < lead[0] or top[1] < lead[1]:
            r[top] = n.pop(top)
            continue
        shift = {(top[0] - lead[0], top[1] - lead[1]): c}
        q.update(shift)
        n = _combine(K, chain(n.items(), ((ij, -x) for ij, x in _times(shift, f))))
    return q, r


def _same(K, f, terms):
    """f holds exactly these terms, and its top row is nonzero."""
    assert f.terms == terms
    assert f == BiPoly(K, terms)
    assert not f.rows or f.rows[-1]


@st.composite
def _term_dicts(draw, count):
    """GF(p^k), p <= 7 and k <= 2, and ``count`` term dicts over it with
    exponents <= 3, often sparse, sometimes empty."""
    K = canonical_field(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 2)))
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    out = []
    for _ in range(count):
        raw = draw(st.dictionaries(exps, st.integers(0, K.order - 1), max_size=6))
        out.append({ij: K.from_encoding(c) for ij, c in raw.items() if c})
    return K, out


@settings(deadline=None, max_examples=200)
@given(_term_dicts(3), st.data())
def test_bipoly_rows_match_dict_reference(case, data):
    K, (a, b, q) = case
    elt = lambda: K.from_encoding(data.draw(st.integers(0, K.order - 1)))
    A, B = BiPoly(K, a), BiPoly(K, b)
    _same(K, A, a)
    _same(K, A + B, _combine(K, chain(a.items(), b.items())))
    _same(K, A - B, _combine(K, chain(a.items(), ((ij, -c) for ij, c in b.items()))))
    _same(K, A * B, _combine(K, _times(a, b)))
    _same(K, A.deriv_u(), _combine(K, (((i - 1, j), c * i) for (i, j), c in a.items() if i)))
    _same(K, A.deriv_v(), _combine(K, (((i, j - 1), c * j) for (i, j), c in a.items() if j)))
    # the fused step A - q(u) * v^shift * B, q the u-only terms of the third dict
    qu = {(i, 0): c for (i, j), c in q.items() if not j}
    shift = data.draw(st.integers(0, 2))
    row = BiPoly(K, qu).rows[0] if qu else Polynomial.zero(K)
    _same(K, A.submul(row, B, shift), _combine(K, chain(
        a.items(), (((i, j + shift), -c) for (i, j), c in _times(qu, b)))))
    # the v-shift is evaluation at (u, v + v0)
    v0 = elt()
    S = A.shift_v(v0)
    for _ in range(3):
        u1, v1 = elt(), elt()
        assert S.evaluate(u1, v1) == A.evaluate(u1, v1 + v0)
    assert S.total_degree() == A.total_degree()


@settings(deadline=None, max_examples=150)
@given(_term_dicts(2), st.sampled_from(["general", "v-degree 0", "u-degree 0", "constant"]),
       st.integers(1, 3))
def test_bipoly_divide_and_multiplicity(case, shape, k):
    K, (f, a) = case
    # F of the given shape, with a nonzero top term
    keep = {"general": lambda i, j: True, "v-degree 0": lambda i, j: not j,
            "u-degree 0": lambda i, j: not i, "constant": lambda i, j: not i and not j}[shape]
    top = {"general": (1, 1), "v-degree 0": (2, 0), "u-degree 0": (0, 2), "constant": (0, 0)}[shape]
    f = {ij: c for ij, c in f.items() if keep(*ij)}
    f[top] = K.one()
    F = BiPoly(K, f)
    # against the reference, on any pair
    q, r = _reference_divide(K, dict(a), f)
    assert bipoly_divide(BiPoly(K, a), F) == (None if r else BiPoly(K, q))
    if shape != "constant" and not r:
        a = _combine(K, chain(a.items(), [((0, 0), K.one())]))  # now F does not divide A
    if not a:
        a = {(0, 0): K.one()}
    n = a
    for _ in range(k):
        n = _combine(K, _times(n, f))
    N = BiPoly(K, n)
    if shape == "constant":
        c = f[(0, 0)]
        assert bipoly_divide(N, F) == BiPoly(K, {ij: x / c for ij, x in n.items()})
        return
    below = a
    for _ in range(k - 1):
        below = _combine(K, _times(below, f))
    assert bipoly_divide(N, F) == BiPoly(K, below)
    assert bipoly_divide(BiPoly(K, a), F) is None


def test_fulton_examples_off_the_origin():
    # the examples below and a cusp, moved to (a, b) by u -> u - a, v -> v - b
    for K in (F7, canonical_field(7, 2)):
        for a, b in ((3, 0), (0, 5), (K.gen(), K.gen() + 2)):
            a, b = K.element(a), K.element(b)
            u = u_var(K) - BiPoly.constant(a)
            v = v_var(K) - BiPoly.constant(b)
            point = (a, b)
            assert fulton_multiplicity(u, v, point) == 1
            assert fulton_multiplicity(v, v - u * u, point) == 2
            assert fulton_multiplicity(u, v * (v - u), point) == 2
            assert fulton_multiplicity(v * v - u * u * u, v, point) == 3
            assert fulton_multiplicity(v * v - u * u * u, v * v + u * u * u, point) == 6


def test_fulton_examples():
    origin = (F7.zero(), F7.zero())
    u, v = u_var(), v_var()
    assert fulton_multiplicity(u, v, origin) == 1
    assert fulton_multiplicity(v, v - u * u, origin) == 2
    assert fulton_multiplicity(u, v * (v - u), origin) == 2
    assert fulton_multiplicity(u, u * v, origin) is INFINITE
    one = BiPoly.constant(F7.one())
    assert fulton_multiplicity(u + one, v, origin) == 0


def test_fulton_axioms():
    origin = (F7.zero(), F7.zero())
    u, v = u_var(), v_var()
    a = v - u * u
    b = u + v
    # symmetry and additivity in products
    assert fulton_multiplicity(a, b, origin) == fulton_multiplicity(b, a, origin)
    assert fulton_multiplicity(a * b, v, origin) == fulton_multiplicity(
        a, v, origin
    ) + fulton_multiplicity(b, v, origin)
    # invariance under G -> G + A*F
    assert fulton_multiplicity(u, v, origin) == fulton_multiplicity(u, v + u * v, origin)


@st.composite
def _fulton_case(draw):
    """A point of K^2, K = GF(p^k) with p <= 7 and k <= 2, and small BiPolys
    F, G, A, H over K of exact total degrees (H nonconstant); each
    nonconstant one passes through the point when a coin says so."""
    spec = canonical_field(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 2)))
    elt = lambda lo: spec.from_encoding(draw(st.integers(lo, spec.order - 1)))
    point = (elt(0), elt(0))

    def poly(lo, hi):
        d = draw(st.integers(lo, hi))
        terms = {(i, j): elt(0) for i in range(d + 1) for j in range(d - i)}
        i = draw(st.integers(0, d))  # a nonzero term of top degree
        terms[(i, d - i)] = elt(1)
        f = BiPoly(spec, terms)
        if d and draw(st.booleans()):
            f = f - BiPoly.constant(f.evaluate(*point))
        return f

    return point, poly(0, 2), poly(0, 2), poly(0, 1), poly(1, 2)


@settings(deadline=None, max_examples=200)
@given(_fulton_case())
def test_fulton_axioms_random(case):
    point, F, G, A, H = case

    def I(a, b):
        m = fulton_multiplicity(a, b, point)
        assert m is INFINITE or m == 0 or 0 < m <= a.total_degree() * b.total_degree()
        return m

    def same(m, n):
        return m is INFINITE and n is INFINITE or m is not INFINITE and m == n

    m = I(F, G)
    assert same(I(G, F), m)
    assert same(I(F, G + A * F), m)
    n = I(F, H)
    if m is not INFINITE and n is not INFINITE:
        assert I(F, G * H) == m + n
    if H.evaluate(*point):
        assert same(I(H * F, H * G), m)
    else:
        assert I(H * F, H * G) is INFINITE


def test_plane_curve_validation():
    with pytest.raises(DomainError):
        PlaneCurve(HomForm(P, {(1, 1, 0): 1}))  # X0X1 reducible
    with pytest.raises(DomainError):
        HomForm(P, {(1, 0, 0): 1, (0, 2, 0): 1})  # inhomogeneous
    PlaneCurve(HomForm(P, {(0, 1, 1): 1, (2, 0, 0): -1}))  # smooth conic ok
    with pytest.raises(DomainError, match=r"X0\^-1\*X1\^2\*X2\^0 has a negative exponent"):
        HomForm(5, {(-1, 2, 0): 1})
    # (X0 + X1 + X2)^5 over GF(5): degree > 3 forms are checked for lines too
    with pytest.raises(DomainError, match="linear factor"):
        PlaneCurve(HomForm(5, {(5, 0, 0): 1, (0, 5, 0): 1, (0, 0, 5): 1}))
    # irreducible cubic over GF(2) that vanishes at all three points of
    # P^1(GF(2)) on the line X2 = 0 without containing it
    PlaneCurve(HomForm(2, {(2, 1, 0): 1, (1, 2, 0): 1, (0, 0, 3): 1}))


def _monomials(d):
    return [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]


def _lines(p):
    """One coefficient triple per line of P^2(GF(p)), first nonzero entry 1."""
    for a in range(p):
        for b in range(p):
            for c in range(p):
                if (a, b, c) != (0, 0, 0) and next(x for x in (a, b, c) if x) == 1:
                    yield (a, b, c)


def _has_linear_factor_reference(form):
    """Every line of P^2(GF(p)) in turn: restrict the form to the line,
    parametrized over GF(p^k) with p^k >= degree, and evaluate it at
    degree + 1 points of P^1(GF(p^k)); a binary form with more zeros than its
    degree is zero."""
    p, d = form.p, form.degree
    k = 1
    while p**k < d:
        k += 1
    K = canonical_field(p, k)
    params = [(K.one(), K.zero())] + [(K.from_encoding(n), K.one()) for n in range(d)]
    for line in _lines(p):
        nz = line.index(1)
        u, w = (i for i in range(3) if i != nz)
        A = [K.zero()] * 3
        B = [K.zero()] * 3
        A[u], A[nz] = K.one(), K.element(-line[u])
        B[w], B[nz] = K.one(), K.element(-line[w])
        if all(not form.evaluate(tuple(s * A[i] + t * B[i] for i in range(3))) for s, t in params):
            return True
    return False


@st.composite
def _forms(draw, degrees=(2, 5)):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(*degrees))
    monos = _monomials(d)
    coeffs = draw(st.lists(st.one_of(st.just(0), st.integers(1, p - 1)), min_size=len(monos), max_size=len(monos)))
    if not any(coeffs):
        coeffs[draw(st.integers(0, len(monos) - 1))] = 1
    return p, dict(zip(monos, coeffs))


@settings(deadline=None, max_examples=150)
@given(_forms())
def test_linear_factor_matches_all_lines(pf):
    form = HomForm(*pf)
    assert _has_linear_factor(form) == _has_linear_factor_reference(form)


@settings(deadline=None, max_examples=100)
@given(_forms(degrees=(1, 5)), st.sampled_from([(1, False), (2, False), (2, True)]))
def test_restriction_roots_are_the_roots_of_chart_row_zero(pf, chart):
    form = HomForm(*pf)
    chart, swap = chart
    F = form.dehomogenize(chart, prime_field(form.p), swap)
    assume(F and F.rows[0])
    assert _restriction_roots(form, chart, swap) == [r.val[0] for r in poly_roots(F.rows[0])]


@settings(deadline=None, max_examples=150)
@given(_forms(degrees=(1, 4)), st.lists(st.integers(0, 6), min_size=3, max_size=3))
def test_linear_factor_of_products(pf, line):
    p, terms = pf
    line = [c % p for c in line]
    if not any(line):
        line[0] = 1
    product = {}
    for ijk, c in terms.items():
        for var in range(3):
            key = tuple(e + (i == var) for i, e in enumerate(ijk))
            product[key] = product.get(key, 0) + c * line[var]
    assert _has_linear_factor(HomForm(p, product))


def _aux_line_reference(p, points, exclude):
    """The first line, in the order of a + b*p + c*p^2 over every encoding
    after X2, X1, X0, that is not excluded and misses every point."""
    triples = [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    for enc in range(1, p**3):
        abc = (enc % p, enc // p % p, enc // p**2)
        nz = [x for x in abc if x]
        if len(nz) >= 2 and nz[-1] == 1:
            triples.append(abc)
    for abc in triples:
        form = HomForm.line(p, *abc)
        if form not in exclude and all(form.evaluate(pt.coords) for pt in points):
            return form
    return None


@st.composite
def _aux_cases(draw):
    """Points over GF(p) and GF(p^2), coordinates often 0, and excluded lines."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    points = []
    for _ in range(draw(st.integers(0, 2 * p + 2))):
        K = canonical_field(p, draw(st.sampled_from([1, 1, 1, 2])))
        code = st.one_of(st.just(0), st.integers(0, K.order - 1))
        coords = tuple(K.from_encoding(draw(code)) for _ in range(3))
        try:
            points.append(ProjPoint(coords))
        except (DomainError, ValueError):
            continue  # all zero, or not generating GF(p^2)
    exclude = set()
    for _ in range(draw(st.integers(0, 3))):
        abc = [draw(st.integers(0, p - 1)) for _ in range(3)]
        if any(abc):
            exclude.add(HomForm.line(p, *abc))
    return p, points, exclude


@settings(deadline=None, max_examples=200)
@given(_aux_cases())
def test_aux_line_matches_enumeration(case):
    p, points, exclude = case
    expected = _aux_line_reference(p, points, exclude)
    if expected is None:
        with pytest.raises(DomainError):
            choose_aux_line(p, points, exclude)
    else:
        assert choose_aux_line(p, points, exclude).form == expected


def test_intersection_points():
    pts = curve_intersection_points(X0, X1)
    assert len(pts) == 1 and pts[0] == ProjPoint((F7.zero(), F7.zero(), F7.one()))
    pts = curve_intersection_points(X1, CONIC)
    assert pts == [ORIGIN]
    # line X0 = 0 meets X0^2 + X1^2 - 3X2^2 at points over GF(49): 3 is not a QR mod 7
    c = PlaneCurve(HomForm(P, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -3}))
    pts = curve_intersection_points(X0, c)
    assert len(pts) == 1 and pts[0].degree == 2


def test_valuation_on_curve_examples():
    # (X0/X2, C: X1 = 0, x = (0:0:1)) -> 1
    phi = FactoredFunction(P, 1, {X0: 1, X2: -1})
    assert valuation_on_curve(phi, X1, ORIGIN) == 1
    # (X1/X2, C: X1X2 - X0^2, x = (0:0:1)) -> 2
    phi2 = FactoredFunction(P, 1, {X1: 1, X2: -1})
    assert valuation_on_curve(phi2, CONIC, ORIGIN) == 2
    # regular nonvanishing -> 0
    pt = ProjPoint((F7.one(), F7.zero(), F7.one()))
    assert valuation_on_curve(phi, X1, pt) == 0


def test_curve_tame_symbol_examples():
    fu = FactoredFunction(P, 1, {X0: 1, X2: -1})
    fv = FactoredFunction(P, 1, {X1: 1, X2: -1})
    tau = curve_tame_symbol(SurfaceSymbol.pair(fu, fv), X1)
    assert tau.powers == {X0: 1, X2: -1} and tau.constant == F7.one()
    tau = curve_tame_symbol(SurfaceSymbol.pair(fv, fv), X1)
    assert tau.powers == {} and tau.constant == F7.element(-1)
    fv2 = FactoredFunction(P, 1, {X1: 2, X2: -2})
    fum1 = FactoredFunction(P, 1, {PlaneCurve(HomForm(P, {(1, 0, 0): 1, (0, 0, 1): -1})): 1, X2: -1})
    tau = curve_tame_symbol(SurfaceSymbol.pair(fum1, fv2), X1)
    assert list(tau.powers.values()) == [2] or sorted(tau.powers.values()) == [-2, 2]


def test_flag_residue_examples():
    fu = FactoredFunction(P, 1, {X0: 1, X2: -1})
    fv = FactoredFunction(P, 1, {X1: 1, X2: -1})
    sym = SurfaceSymbol.pair(fu, fv)
    assert flag_residue(sym, X1, ORIGIN) == 1
    pt = ProjPoint((F7.one(), F7.zero(), F7.one()))
    assert flag_residue(sym, X1, pt) == 0
    with pytest.raises(DomainError, match="point is not on the curve"):
        flag_residue(sym, X0, pt)


def test_flag_residue_additive():
    rng = Random(41)
    fu = FactoredFunction(P, 1, {X0: 1, X2: -1})
    fv = FactoredFunction(P, 1, {X1: 1, X2: -1})
    s1 = SurfaceSymbol.pair(fu, fv, 1)
    s2 = SurfaceSymbol.pair(fu, fv, 2)
    both = SurfaceSymbol(P, list(s1.entries) + list(s2.entries))
    flag = (X1, ORIGIN)
    assert flag_residue(both, *flag) == flag_residue(s1, *flag) + flag_residue(s2, *flag)


def test_intersection_number_examples():
    assert intersection_number(SurfaceDivisor({X0: 1}), SurfaceDivisor({X1: 1})) == 1
    assert intersection_number(SurfaceDivisor({X1: 1}), SurfaceDivisor({CONIC: 1})) == 2
    c2 = PlaneCurve(HomForm(P, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1}))
    c3 = PlaneCurve(HomForm(P, {(2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): -3}))
    assert intersection_number(SurfaceDivisor({c2: 1}), SurfaceDivisor({c3: 1})) == 4
    with pytest.raises(DomainError):
        intersection_number(SurfaceDivisor({X0: 1}), SurfaceDivisor({X0: 1}))


def test_intersection_bilinear_symmetric():
    c2 = PlaneCurve(HomForm(P, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1}))
    D1 = SurfaceDivisor({X0: 1, X1: 2})
    D2 = SurfaceDivisor({c2: 1, X2: 1})
    n = intersection_number(D1, D2)
    assert n == bezout_number(D1, D2) == 9
    assert n == intersection_number(D2, D1)
    # bilinearity over the test set
    n1 = intersection_number(SurfaceDivisor({X0: 1}), D2)
    n2 = intersection_number(SurfaceDivisor({X1: 1}), D2)
    assert n == n1 + 2 * n2


def test_product_cycle_matches_fulton():
    pairs = [
        (SurfaceDivisor({X0: 1}), SurfaceDivisor({X1: 1})),
        (SurfaceDivisor({X1: 1}), SurfaceDivisor({CONIC: 1})),
        (
            SurfaceDivisor({CONIC: 1}),
            SurfaceDivisor({PlaneCurve(HomForm(P, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})): 1}),
        ),
    ]
    for D1, D2 in pairs:
        cyc = surface_product_cycle(D1, D2)
        assert cyc == fulton_intersection_cycle(D1, D2)
        assert cycle_degree(cyc) == intersection_number(D1, D2)
    with pytest.raises(DomainError):
        surface_product_cycle(SurfaceDivisor({X0: 1}), SurfaceDivisor({X0: 1}))


def test_curve_direction_reciprocity():
    # the restricted tame symbol has a degree-0 divisor on the flag curve
    aux = X2
    for C, other in ((X0, X1), (CONIC, X0)):
        s1 = FactoredFunction(P, 1, {C: 1, aux: -C.degree})
        s2 = FactoredFunction(P, 1, {other: 1, aux: -other.degree})
        sym = SurfaceSymbol.pair(s1.inverse(), s2.inverse())
        tau = curve_tame_symbol(sym, C)
        points = {}
        for form in tau.powers:
            for pt in curve_intersection_points(C, form):
                points[pt] = None
        total = sum(pt.degree * valuation_on_curve(tau, C, pt) for pt in points)
        assert total == 0


def test_parshin_examples():
    fu = FactoredFunction(P, 1, {X0: 1, X2: -1})
    fv = FactoredFunction(P, 1, {X1: 1, X2: -1})
    assert parshin_point_reciprocity(SurfaceSymbol.pair(fu, fv), ORIGIN) == 0
    L01 = PlaneCurve(HomForm.line(P, 1, 1, 0))
    fsum = FactoredFunction(P, 1, {L01: 1, X2: -1})
    assert parshin_point_reciprocity(SurfaceSymbol.pair(fu, fsum), ORIGIN) == 0
    # symbol with all entries units at a far point
    pt = ProjPoint((F7.one(), F7.one(), F7.one()))
    conic2 = PlaneCurve(HomForm(P, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1}))
    sym = SurfaceSymbol.pair(fu, FactoredFunction(P, 1, {conic2: 1, X2: -2}))
    assert parshin_point_reciprocity(sym, ProjPoint((F7.element(2), F7.one(), F7.one()))) == 0


def test_parshin_randomized():
    rng = Random(42)
    lines = [X0, X1, X2, PlaneCurve(HomForm.line(P, 1, 1, 1)), PlaneCurve(HomForm.line(P, 1, 2, 1))]
    pool = lines + [CONIC]
    pts = [ORIGIN, ProjPoint((F7.one(), F7.zero(), F7.one())), ProjPoint((F7.zero(), F7.one(), F7.one()))]
    for _ in range(10):
        a, b = rng.sample(pool, 2)
        la = rng.choice([l for l in lines if l not in (a, b)])
        f = FactoredFunction(P, rng.randrange(1, P), {a: 1, la: -a.degree})
        g = FactoredFunction(P, rng.randrange(1, P), {b: 1, la: -b.degree})
        sym = SurfaceSymbol.pair(f, g, rng.choice([1, 2]))
        for pt in pts:
            try:
                assert parshin_point_reciprocity(sym, pt) == 0
            except DomainError:
                pass  # inadmissible (singular configuration)


def test_dlog2_examples():
    fu = FactoredFunction(P, 1, {X0: 1, X2: -1})
    fv = FactoredFunction(P, 1, {X1: 1, X2: -1})
    assert dlog2_pole_check(SurfaceSymbol.pair(fu, fv)) == 1
    L20 = PlaneCurve(HomForm(P, {(0, 0, 1): 1, (1, 0, 0): -1}))
    f1mu = FactoredFunction(P, 1, {L20: 1, X2: -1})
    assert dlog2_pole_check(SurfaceSymbol.pair(fu, f1mu)) == 0
    fu2 = FactoredFunction(P, 1, {X0: 2, X2: -2})
    assert dlog2_pole_check(SurfaceSymbol.pair(fu2, fv)) == 1


def test_degree_zero_enforced():
    with pytest.raises(DomainError):
        SurfaceSymbol.pair(
            FactoredFunction(P, 1, {X0: 1}),
            FactoredFunction(P, 1, {X1: 1, X2: -1}),
        )


def test_degree_four_orbit_intersection():
    # two conics meeting in a single Galois orbit of degree 4 (the
    # direction lives in GF(49) and the fiber needs a further extension)
    c1 = PlaneCurve(HomForm(P, {(2, 0, 0): 1, (0, 2, 0): 3, (0, 0, 2): -1}))
    c2 = PlaneCurve(HomForm(P, {(2, 0, 0): 1, (0, 1, 1): 1, (0, 0, 2): -2}))
    pts = curve_intersection_points(c1, c2, ext_bound=8)
    assert [pt.degree for pt in pts] == [4]
    D1, D2 = SurfaceDivisor({c1: 1}), SurfaceDivisor({c2: 1})
    assert intersection_number(D1, D2, ext_bound=8) == 4
    cyc = surface_product_cycle(D1, D2, ext_bound=8)
    assert cyc == fulton_intersection_cycle(D1, D2, ext_bound=8)
    assert cycle_degree(cyc) == 4


def test_intersection_at_coordinate_vertices():
    # the (1:0) direction and the (0:0:1) special point both appear
    X1_, X2_ = X1, X2
    pts = curve_intersection_points(X1_, X2_)
    assert len(pts) == 1 and pts[0].degree == 1
    assert intersection_number(SurfaceDivisor({X1_: 1}), SurfaceDivisor({X2_: 1})) == 1
    assert intersection_number(SurfaceDivisor({X0: 1}), SurfaceDivisor({X2: 1})) == 1


def test_ext_bound_enforced():
    import pytest as _pytest

    c1 = PlaneCurve(HomForm(P, {(2, 0, 0): 1, (0, 2, 0): 3, (0, 0, 2): -1}))
    c2 = PlaneCurve(HomForm(P, {(2, 0, 0): 1, (0, 1, 1): 1, (0, 0, 2): -2}))
    with _pytest.raises(DomainError):
        curve_intersection_points(c1, c2, ext_bound=3)


# ---------------------------------------------------------------------------
# the resultant in X2


def _sylvester_reference(F, G):
    """Res_{X2}(F, G) as a BiPoly in (u, v) = (X0, X1): the Sylvester matrix
    of the X2-coefficients of the forms themselves, expanded by cofactors."""
    field = prime_field(F.p)

    def x2_coeffs(H):
        top = max(k for _, _, k in H.terms)
        out = [BiPoly.zero(field)] * (top + 1)
        for (i, j, k), c in H.terms.items():
            out[top - k] = out[top - k] + BiPoly(field, {(i, j): field.element(c)})
        return out

    a, b = x2_coeffs(F), x2_coeffs(G)
    m, n = len(a) - 1, len(b) - 1
    zero = BiPoly.zero(field)
    rows = [[zero] * i + a + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + b + [zero] * (m - 1 - i) for i in range(m)]
    return _laplace_det(rows, field)


def _laplace_det(rows, field):
    if not rows:
        return BiPoly.constant(field.one())
    total = BiPoly.zero(field)
    for j, entry in enumerate(rows[0]):
        if entry:
            term = entry * _laplace_det([row[:j] + row[j + 1 :] for row in rows[1:]], field)
            total = total + term if j % 2 == 0 else total - term
    return total


@st.composite
def _form_pair(draw):
    """Two forms of degree <= 3 over GF(p), p <= 7; each passes through
    (0:0:1) (no X2^d term) with probability about one half."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    forms = []
    for _ in range(2):
        d = draw(st.integers(1, 3))
        monos = _monomials(d)
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(monos), max_size=len(monos)))
        if draw(st.booleans()):
            coeffs[monos.index((0, 0, d))] = 0
        assume(any(coeffs))
        forms.append(HomForm(p, dict(zip(monos, coeffs))))
    return forms


@settings(deadline=None, max_examples=300)
@given(_form_pair())
def test_resultant_matches_cofactor_expansion(forms):
    F, G = forms
    R = _sylvester_reference(F, G)
    r, degree = _resultant_x2(F, G)
    field = r.spec
    # R(w, 1): the coefficient of w^i sums the terms u^i v^j
    coeffs = [field.zero()] * (max((row.degree for row in R.rows), default=-1) + 1)
    for (i, _), c in R.terms.items():
        coeffs[i] = coeffs[i] + c
    assert r == Polynomial.from_elements(field, coeffs)
    # R is homogeneous of the stated degree, and R(1, 0) is read off r
    assert all(i + j == degree for i, j in R.terms)
    at_1_0 = r.coeffs[degree] if r.degree == degree else field.zero()
    assert at_1_0 == R.evaluate(field.one(), field.zero())


def _dense_form(p, d, coeffs):
    """The form with the given coefficients on the monomials of degree d in
    the order of _monomials."""
    return HomForm(p, dict(zip(_monomials(d), coeffs)))


def test_dense_quintic_resultant_is_fast():
    # Laplace expansion of this 10 x 10 Sylvester matrix took over 3 s
    rng = Random(5)
    F, G = (_dense_form(7, 5, [rng.randrange(1, 7) for _ in range(21)]) for _ in range(2))
    start = time.perf_counter()
    r, degree = _resultant_x2(F, G)
    assert time.perf_counter() - start < 1.0
    assert degree == 25 and r.degree <= 25 and r


# the first pair of dense quintics over GF(5) drawn from Random(0), two at a
# time with coefficients in 1..4, whose points all have degree <= 8
QUINTIC_1 = [3, 2, 2, 4, 1, 1, 1, 2, 2, 1, 4, 1, 1, 4, 3, 4, 4, 2, 4, 1, 3]
QUINTIC_2 = [2, 3, 2, 4, 2, 3, 1, 1, 1, 4, 2, 1, 4, 4, 3, 2, 1, 2, 2, 1, 2]


def test_dense_quintic_intersect_matches_oracles():
    doc = {"field": {"p": 5}, "task": "intersect"}
    for key, coeffs in (("divisor1", QUINTIC_1), ("divisor2", QUINTIC_2)):
        rows = [list(ijk) + [c] for ijk, c in zip(_monomials(5), coeffs)]
        doc[key] = [{"form": rows, "multiplicity": 1}]
    rep = run_config(doc, ext_bound=8)
    assert rep["oracle"]["oracles"] == "match"
    assert rep["result"]["intersection_number"] == "25"
    assert [row["point"]["degree"] for row in rep["result"]["cycle"]] == ["1", "2", "2", "6", "6", "8"]


# ---------------------------------------------------------------------------
# the intersection-point memo


_MEMO_FUNCS = (intersection_number, surface_product_cycle, fulton_intersection_cycle)


def _fresh(D):
    """An equal divisor on newly built curves, with nothing memoized."""
    return SurfaceDivisor({PlaneCurve(C.form): m for C, m in D.items()})


def _counting_points(monkeypatch):
    """Wrap the point finder; the returned list collects (C, F, ext_bound)
    per computation."""
    calls = []
    real = surface.curve_intersection_points

    def counting(C, F, ext_bound):
        calls.append((C.form, F.form, ext_bound))
        return real(C, F, ext_bound)

    monkeypatch.setattr(surface, "curve_intersection_points", counting)
    return calls


def test_intersect_finds_each_pair_once(monkeypatch):
    # two components on each side: intersection_number, the product cycle
    # and the Fulton oracle together ask for each of the four ordered pairs
    calls = _counting_points(monkeypatch)
    doc = {
        "field": {"p": P},
        "task": "intersect",
        "divisor1": [
            {"form": [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 1]], "multiplicity": 2},
            {"form": [[2, 0, 0, 1], [0, 2, 0, 1], [0, 0, 2, -1]], "multiplicity": 1},
        ],
        "divisor2": [
            {"form": [[0, 1, 0, 1]], "multiplicity": 1},
            {"form": [[2, 0, 0, 1], [0, 2, 0, 2], [0, 0, 2, -3]], "multiplicity": 1},
        ],
    }
    rep = run_config(doc)
    assert rep["oracle"]["oracles"] == "match"
    assert len(calls) == len(set(calls)) == 4


@st.composite
def _plane_curves(draw):
    """A line, conic or cubic over GF(7) with no linear factor."""
    d = draw(st.integers(1, 3))
    monos = _monomials(d)
    coeffs = draw(st.lists(st.integers(0, P - 1), min_size=len(monos), max_size=len(monos)))
    assume(any(coeffs))
    try:
        return PlaneCurve(HomForm(P, dict(zip(monos, coeffs))))
    except DomainError:
        assume(False)


@st.composite
def _divisor(draw):
    """One or two components, total degree at most 4."""
    curves = draw(st.lists(_plane_curves(), min_size=1, max_size=2, unique=True))
    assume(sum(c.degree for c in curves) <= 4)
    return SurfaceDivisor({c: draw(st.integers(1, 2)) for c in curves})


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DomainError as exc:
        return ("DomainError", str(exc))


_C1 = PlaneCurve(HomForm(P, {(2, 0, 0): 1, (0, 2, 0): 3, (0, 0, 2): -1}))
_C2 = PlaneCurve(HomForm(P, {(2, 0, 0): 1, (0, 1, 1): 1, (0, 0, 2): -2}))


@settings(deadline=None, max_examples=40)
@given(_divisor(), _divisor(), st.sampled_from([6, 8]))
@example(SurfaceDivisor({_C1: 1}), SurfaceDivisor({_C2: 1}), 8)  # one point of degree 4
def test_shared_points_memo_matches_fresh(D1, D2, ext_bound):
    assume(not any(D2.multiplicity(C) for C in D1.support()))
    fresh = [_outcome(f, _fresh(D1), _fresh(D2), ext_bound) for f in _MEMO_FUNCS]
    filling = [_outcome(f, D1, D2, ext_bound) for f in _MEMO_FUNCS]
    filled = [_outcome(f, D1, D2, ext_bound) for f in _MEMO_FUNCS]
    assert filling == fresh and filled == fresh
    for C in D1.support():
        for (form, bound), found in C._meets.items():
            assert found == curve_intersection_points(C, PlaneCurve(form), bound)


def test_memo_stores_nothing_when_a_point_exceeds_the_bound(monkeypatch):
    calls = _counting_points(monkeypatch)
    C1, C2 = PlaneCurve(_C1.form), PlaneCurve(_C2.form)
    D1, D2 = SurfaceDivisor({C1: 1}), SurfaceDivisor({C2: 1})
    for f in _MEMO_FUNCS:
        with pytest.raises(DomainError, match="degree 4 exceeds the bound 3"):
            f(D1, D2, 3)
    assert len(calls) == 3 and C1._meets == {}


def test_memo_is_kept_per_bound(monkeypatch):
    C1, C2 = PlaneCurve(_C1.form), PlaneCurve(_C2.form)
    D1, D2 = SurfaceDivisor({C1: 1}), SurfaceDivisor({C2: 1})
    assert intersection_number(D1, D2, 8) == 4
    assert list(C1._meets) == [(C2.form, 8)]
    calls = _counting_points(monkeypatch)
    with pytest.raises(DomainError, match="exceeds the bound 3"):
        intersection_number(D1, D2, 3)
    assert calls == [(C1.form, C2.form, 3)]


def test_memo_leaves_no_cyclic_garbage():
    # keys and values hold forms and points, never a curve, so reference
    # counting frees every curve of a run without the cycle collector
    doc = {
        "field": {"p": P},
        "task": "intersect",
        "divisor1": [
            {"form": [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 1]], "multiplicity": 2},
            {"form": [[2, 0, 0, 1], [0, 2, 0, 1], [0, 0, 2, -1]], "multiplicity": 1},
        ],
        "divisor2": [{"form": [[0, 2, 1, 1], [3, 0, 0, -1], [1, 0, 2, -1]], "multiplicity": 1}],
    }
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run_config(doc)["oracle"]["oracles"] == "match"
        gc.collect()
        kept = [obj for obj in gc.garbage if isinstance(obj, (PlaneCurve, ProjPoint))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert kept == []


def test_intersections_take_no_points_argument():
    for f in _MEMO_FUNCS:
        assert list(inspect.signature(f).parameters) == ["D1", "D2", "ext_bound"]


# ---------------------------------------------------------------------------
# evaluation from power tables


@st.composite
def _field_and_point(draw, n):
    """GF(p^k) with k <= 3 and n coordinates in it, often zero."""
    K = canonical_field(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 3)))
    code = st.one_of(st.just(0), st.integers(0, K.order - 1))
    return K, [K.from_encoding(draw(code)) for _ in range(n)]


@settings(deadline=None, max_examples=150)
@given(_field_and_point(2), st.data())
def test_bipoly_evaluate_matches_powers(fp, data):
    K, (u0, v0) = fp
    # an empty dict is the zero BiPoly
    terms = data.draw(st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), st.integers(0, K.order - 1), max_size=8))
    f = BiPoly(K, {ij: K.from_encoding(c) for ij, c in terms.items()})
    expected = K.zero()
    for (i, j), c in f.terms.items():
        expected = expected + c * u0**i * v0**j
    assert f.evaluate(u0, v0) == expected


@settings(deadline=None, max_examples=150)
@given(_forms(degrees=(1, 4)), st.integers(1, 3), st.data())
def test_homform_evaluate_and_fiber_match_powers(pf, k, data):
    form = HomForm(*pf)
    K = canonical_field(form.p, k)
    code = st.one_of(st.just(0), st.integers(0, K.order - 1))
    x0, x1, x2 = (K.from_encoding(data.draw(code)) for _ in range(3))
    expected = K.zero()
    for (i, j, l), c in form.terms.items():
        expected = expected + K.element(c) * x0**i * x1**j * x2**l
    assert form.evaluate((x0, x1, x2)) == expected
    n = max(l for (_, _, l) in form.terms)
    fiber = [K.zero()] * (n + 1)
    for (i, j, l), c in form.terms.items():
        fiber[l] = fiber[l] + K.element(c) * x0**i * x1**j
    assert _fiber_poly(form, x0, x1, K) == Polynomial.from_elements(K, fiber)


def _ref_powers(x, n):
    out = [x.spec.one()]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def _ref_chart_partials(form, coords, chart):
    """The chart partials by the per-term FieldElement formula: power
    tables, then one element product per monomial."""
    field, d = coords[0].spec, form.degree
    a, b = {0: (1, 2), 1: (0, 2), 2: (0, 1)}[chart]
    pa, pb, pc = _ref_powers(coords[a], d), _ref_powers(coords[b], d), _ref_powers(coords[chart], d)
    da = db = field.zero()
    for ijk, c in form.terms.items():
        i, j, k = ijk[a], ijk[b], ijk[chart]
        if i:
            da = da + field.element(c * i) * pa[i - 1] * pb[j] * pc[k]
        if j:
            db = db + field.element(c * j) * pa[i] * pb[j - 1] * pc[k]
    return da, db


@settings(deadline=None, max_examples=200)
@given(_forms(degrees=(1, 5)), st.integers(1, 3), st.data())
def test_chart_partials_match_per_term_formula(pf, k, data):
    form = HomForm(*pf)
    K = canonical_field(form.p, k)
    code = st.one_of(st.just(0), st.just(1), st.integers(0, K.order - 1))
    coords = tuple(K.from_encoding(data.draw(code)) for _ in range(3))
    for chart in range(3):
        assert form.chart_partials(coords, chart) == _ref_chart_partials(form, coords, chart)


@pytest.mark.parametrize("p, k", [(5, 1), (7, 3)])
def test_forms_at_points_take_no_element_arithmetic(monkeypatch, p, k):
    K = canonical_field(p, k)
    rng = Random(p * 10 + k)
    forms = [HomForm(p, {(i, j, d - i - j): rng.randrange(p) for i in range(d + 1) for j in range(d + 1 - i)})
             for d in (1, 2, 3, 4) for _ in range(3)]
    points = [(K.zero(), K.one(), K.one()), (K.one(), K.zero(), K.zero()), (K.gen(), K.one(), K.zero())]
    points += [tuple(K.from_encoding(rng.randrange(K.order)) for _ in range(3)) for _ in range(4)]
    expected = [(f.evaluate(x), [f.chart_partials(x, c) for c in range(3)], _fiber_poly(f, x[0], x[1], K))
                for f in forms for x in points]

    def no_arithmetic(*args):
        raise AssertionError("a form at a point used FieldElement arithmetic")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(FieldElement, name, no_arithmetic)
    got = [(f.evaluate(x), [f.chart_partials(x, c) for c in range(3)], _fiber_poly(f, x[0], x[1], K))
           for f in forms for x in points]
    assert got == expected


def test_zero_vector_is_not_a_point():
    for K in (F7, canonical_field(7, 2)):
        with pytest.raises(DomainError, match="zero vector is not a point of P\\^2"):
            ProjPoint((K.zero(), K.zero(), K.zero()))


def test_fulton_multiplicity_off_the_curves():
    u, v = u_var(), v_var()
    one = BiPoly.constant(F7.one())
    a = u + one  # a common factor of F and G
    F, G = u * a, v * a
    assert fulton_multiplicity(F, G, (F7.zero(), F7.zero())) == 1
    assert fulton_multiplicity(F, G, (F7.element(-1), F7.zero())) is INFINITE
    assert fulton_multiplicity(F, G, (F7.one(), F7.one())) == 0  # off both
    assert fulton_multiplicity(F, G, (F7.zero(), F7.one())) == 0  # on F only
    assert fulton_multiplicity(F, BiPoly.zero(F7), (F7.one(), F7.zero())) == 0


# ---------------------------------------------------------------------------
# flag valuations from the branch of the flag curve, against Fulton


def _form_mul(a, b, p):
    out = {}
    for x, c in a.items():
        for y, d in b.items():
            m = (x[0] + y[0], x[1] + y[1], x[2] + y[2])
            out[m] = (out.get(m, 0) + c * d) % p
    return {m: c for m, c in out.items() if c}


def _unchecked_curve(p, terms):
    """A PlaneCurve on a form that may be reducible, accepted without the
    linear-factor check, as forms of degree > 3 are."""
    curve = PlaneCurve.__new__(PlaneCurve)
    curve.form = HomForm(p, terms)
    return curve


def _fulton_valuation(func, curve, point, chart):
    """sum e * I_x(F, curve) by Fulton's recursion; INFINITE on a shared
    component."""
    C = curve.form.dehomogenize(chart, point.field)
    return sum(
        e * fulton_multiplicity(F.form.dehomogenize(chart, point.field), C, point.affine(chart))
        for F, e in func.powers.items()
    )


def _smooth_at_reference(form, point):
    """Some partial of the form, as a form of its own, is nonzero at the
    point."""
    for var in range(3):
        terms = {}
        for ijk, c in form.terms.items():
            if ijk[var]:
                terms[tuple(e - (n == var) for n, e in enumerate(ijk))] = c * ijk[var] % form.p
        if any(terms.values()) and HomForm(form.p, terms).evaluate(point.coords):
            return True
    return False


@st.composite
def _branch_cases(draw):
    """C of degree 1-3, a line L and F = C*A + L^r*B of degree <= 5 over
    GF(p), p in {2, 3, 5, 7}: F meets C to order >= r at the points of C and
    L (of degree up to 3), and A = L*A' makes F singular there when r >= 2.
    Forms may be reducible."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    coeff = st.integers(0, p - 1)

    def form(d, nonzero=True):
        terms = {m: draw(coeff) for m in _monomials(d)}
        if nonzero and not any(terms.values()):
            terms[(0, 0, d)] = 1
        return {m: c for m, c in terms.items() if c}

    dC, r = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    dF = draw(st.integers(max(dC, r), 5))
    C, L = form(dC), form(1)
    singular = dF > dC and draw(st.booleans())
    A = _form_mul(L, form(dF - dC - 1, False), p) if singular else form(dF - dC, False)
    B = form(dF - r)
    for _ in range(r):
        B = _form_mul(B, L, p)
    F = _form_mul(C, A, p)
    for m, c in B.items():
        F[m] = (F.get(m, 0) + c) % p
    F = {m: c for m, c in F.items() if c}
    assume(F and HomForm(p, F) != HomForm(p, C) and HomForm(p, L) != HomForm(p, C))
    curves = [_unchecked_curve(p, t) for t in (C, L, F)]
    return curves, draw(st.integers(-2, 2)), draw(st.integers(-2, 2))


@settings(deadline=None, max_examples=60)
@given(_branch_cases(), st.data())
def test_valuation_on_curve_matches_fulton(case, data):
    (C, L, F), eF, eL = case
    try:
        points = curve_intersection_points(C, L)
    except DomainError:
        assume(False)  # C contains L
    func = FactoredFunction(C.form.p, 1, {F: eF, L: eL})
    for pt in points:
        chart = data.draw(st.sampled_from([i for i in range(3) if pt.coords[i]]))
        if not _smooth_at_reference(C.form, pt):
            with pytest.raises(DomainError) as exc:
                valuation_on_curve(func, C, pt, chart)
            assert str(exc.value) == "flag-curve singular at %r" % (pt,)
            continue
        expected = _fulton_valuation(func, C, pt, chart)
        if not math.isfinite(expected):  # a shared component
            with pytest.raises(DomainError, match="common component"):
                valuation_on_curve(func, C, pt, chart)
        else:
            assert valuation_on_curve(func, C, pt, chart) == expected


# (C, F, I_x(F, C)) at (0:0:1), in u = X0/X2 and v = X1/X2
_CONTACT_CASES = {
    # the tangent to C is vertical there, so the branch is u = phi(v)
    "vertical tangent": ({(1, 0, 1): 1, (0, 2, 0): -1}, {(1, 0, 0): 1}, 2),
    # F = v^2 - u^2 - u^3 has a node: a line through it, then one along a branch
    "node, transversal line": ({(0, 1, 0): 1, (1, 0, 0): 3}, {(0, 2, 1): 1, (2, 0, 1): -1, (3, 0, 0): -1}, 2),
    "node, branch tangent": ({(0, 1, 0): 1, (1, 0, 0): -1}, {(0, 2, 1): 1, (2, 0, 1): -1, (3, 0, 0): -1}, 3),
    # F = v^2 - u^3 has a cusp
    "cusp, line v = 0": ({(0, 1, 0): 1}, {(0, 2, 1): 1, (3, 0, 0): -1}, 3),
    "cusp, line u = 0": ({(1, 0, 0): 1}, {(0, 2, 1): 1, (3, 0, 0): -1}, 2),
    # C: v = u^3 has a flex
    "flex": ({(0, 1, 2): 1, (3, 0, 0): -1}, {(0, 1, 0): 1}, 3),
    # v = u^2 and v - u^2 + v^2 = 0 meet to order 4
    "tangent conics": ({(0, 1, 1): 1, (2, 0, 0): -1}, {(0, 1, 1): 1, (2, 0, 0): -1, (0, 2, 0): 1}, 4),
}


@pytest.mark.parametrize("p", [5, 7, 11])
@pytest.mark.parametrize("name", sorted(_CONTACT_CASES))
def test_valuation_on_curve_contact_orders(name, p):
    C, F, order = _CONTACT_CASES[name]
    C, F = PlaneCurve(HomForm(p, C)), PlaneCurve(HomForm(p, F))
    K = prime_field(p)
    origin = ProjPoint((K.zero(), K.zero(), K.one()))
    func = FactoredFunction(p, 1, {F: 1})
    assert valuation_on_curve(func, C, origin) == order == _fulton_valuation(func, C, origin, 2)


def test_valuation_at_points_of_degree_two_and_three():
    # X1 meets X0^2 + X1^2 - 3X2^2 in a point of degree 2 over GF(7), and
    # X0^3 - 2X2^3 + X1X2^2 + X0X1^2 in one of degree 3 (2 is not a cube mod
    # 7); F = C + X1^2 (times X2 for the cubic) meets C to order 2 there
    for C, degree in (({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -3}, 2),
                      ({(3, 0, 0): 1, (0, 0, 3): -2, (0, 1, 2): 1, (1, 2, 0): 1}, 3)):
        F = dict(C)
        square = (0, 2, degree - 2)
        F[square] = F.get(square, 0) + 1
        C, F = PlaneCurve(HomForm(P, C)), _unchecked_curve(P, F)
        (pt,) = curve_intersection_points(C, X1)
        assert pt.degree == degree
        func = FactoredFunction(P, 1, {F: 1, X1: -2})
        assert valuation_on_curve(func, C, pt) == 0 == _fulton_valuation(func, C, pt, pt.chart())
        assert valuation_on_curve(FactoredFunction(P, 1, {F: 1}), C, pt) == 2


def test_valuation_on_a_shared_component_is_bounded():
    # two trusted degree-8 forms sharing v^2 - u^3 - u through the origin,
    # where dC/dv = 0: the expansion stops past deg F * deg C = 64
    rng = Random(0)
    cubic = {(0, 2, 1): 1, (3, 0, 0): -1, (1, 0, 2): -1}

    def cofactor():
        while True:
            terms = {(i, j, 5 - i - j): rng.randrange(P) for i in range(6) for j in range(6 - i)}
            if terms[(0, 0, 5)] and not _has_linear_factor(HomForm(P, terms)):
                return terms

    C, F = (PlaneCurve(HomForm(P, _form_mul(cubic, cofactor(), P))) for _ in range(2))
    func = FactoredFunction(P, 1, {F: 1, X2: -8})
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="common component"):
        valuation_on_curve(func, C, ORIGIN)
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# the construction does not call the Fulton oracle


def _selfcheck_surface_values():
    """intersection_number and surface_product_cycle on the pairs of the
    surface-intersection check, and flag_residue and
    parshin_point_reciprocity on the symbols and points of the Parshin check."""
    from adele_forge import selfcheck

    X0, X1, X2, L1, L2, conic, conic2 = selfcheck._surface_pool(P)
    pairs = [({X0: 1}, {X1: 1}), ({X1: 1}, {conic: 1}), ({conic: 1}, {conic2: 1}), ({L1: 1, X0: 1}, {conic: 1})]
    out = []
    for a, b in pairs:
        D1, D2 = SurfaceDivisor(a), SurfaceDivisor(b)
        cycle = surface_product_cycle(D1, D2)
        out.append((intersection_number(D1, D2), sorted((repr(pt), m) for pt, m in cycle.items())))
    points = [ORIGIN, ProjPoint((F7.one(), F7.zero(), F7.one())), ProjPoint((F7.zero(), F7.one(), F7.one()))]
    residues, sums = [], []
    for s in selfcheck._random_surface_symbols(Random(113), P, 8):
        for pt in points:
            sums.append(_outcome(parshin_point_reciprocity, s, pt))
            residues += [flag_residue(s, C, pt) for C in s.support_curves() if C.contains(pt)]
    return out, residues, sums


def test_construction_runs_without_the_fulton_oracle(monkeypatch):
    def oracle_only(*args):
        raise AssertionError("the construction called fulton_multiplicity")

    monkeypatch.setattr(surface, "fulton_multiplicity", oracle_only)
    intersections, residues, sums = _selfcheck_surface_values()
    assert intersections == [
        (1, [("(0:0:1)", 1)]),
        (2, [("(0:0:1)", 2)]),
        (4, [("((5,5,6,2):(4,5,1,6):(1,0,0,0))", 1)]),
        (4, [("(0:0:1)", 1), ("(0:1:0)", 1), ("(2:4:1)", 1), ("(4:2:1)", 1)]),
    ]
    assert residues == [0, 0, 0, 0, -4, 4, 0, 0, 4, -4] + [0] * 11
    assert sums == [0] * 24


def test_an_oracle_off_by_one_is_a_mismatch(monkeypatch):
    doc = {
        "field": {"p": 7},
        "task": "intersect",
        "divisor1": [{"form": [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 1]], "multiplicity": 2}],
        "divisor2": [{"form": [[2, 0, 0, 1], [0, 2, 0, 1], [0, 0, 2, -1]], "multiplicity": 1}],
    }
    before = run_config(doc)
    fulton = surface.fulton_multiplicity

    def off_by_one(F, G, point):
        m = fulton(F, G, point)
        return m + 1 if m >= 1 else m

    monkeypatch.setattr(surface, "fulton_multiplicity", off_by_one)
    after = run_config(doc)
    assert before["oracle"]["oracles"] == "match" and after["oracle"]["oracles"] == "MISMATCH"
    for key in ("intersection_number", "cycle"):
        assert json.dumps(after["result"][key]) == json.dumps(before["result"][key])


def test_fulton_multiplicity_has_one_caller():
    """Under src/adele_forge only the oracle fulton_intersection_cycle names
    fulton_multiplicity, apart from its definition."""
    package = Path(surface.__file__).resolve().parent
    users = set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(None, tree)]
        while scopes:
            scope, node = scopes.pop()
            for child in ast.iter_child_nodes(node):
                inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
                if getattr(child, "id", getattr(child, "attr", None)) == "fulton_multiplicity":
                    users.add((path.name, inner))
                scopes.append((inner, child))
    assert users == {("surface.py", "fulton_intersection_cycle")}


def test_surface_imports_nothing_from_curves():
    """The plane takes its Newton lift from ``series``; no import in
    surface.py names the curve module."""
    tree = ast.parse(Path(surface.__file__).read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert names and not any("curves" in name.split(".") for name in names)


def test_one_local_reading_per_object():
    """expand_at substitutes once and divides once, with no retry loop, and
    a form's terms become chart polynomials only through
    HomForm.chart_rows: the resultant reads them through
    HomForm.dehomogenize, the restriction roots read row 0 alone."""
    (expand,) = [
        node for node in ast.walk(ast.parse(Path(curves.__file__).read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "expand_at"
    ]
    assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(expand))
    assert sum(getattr(node, "attr", None) == "inverse" for node in ast.walk(expand)) == 1
    defs = {
        node.name: node for node in ast.walk(ast.parse(Path(surface.__file__).read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    assert "_x2_coeffs" not in defs
    for name, reader in (("dehomogenize", "chart_rows"), ("_resultant_x2", "dehomogenize"), ("_restriction_roots", "chart_rows")):
        assert any(getattr(node, "attr", None) == reader for node in ast.walk(defs[name])), name


def test_parshin_check_fails_on_a_case_that_raises(monkeypatch):
    # a raising case is a failure, not a skipped configuration
    from adele_forge import selfcheck

    real, calls = selfcheck.parshin_point_reciprocity, []

    def raises_on_the_fifth(symbol, point):
        calls.append(point)
        if len(calls) == 5:
            raise DomainError("injected")
        return real(symbol, point)

    monkeypatch.setattr(selfcheck, "parshin_point_reciprocity", raises_on_the_fifth)
    monkeypatch.setattr(selfcheck, "ALL_CHECKS", [selfcheck.check_parshin_reciprocity])
    assert selfcheck.run_selfcheck() == ([("check_parshin_reciprocity", False, "domain: injected")], 0, 1)
