import time
from itertools import chain
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adele_forge import curves
from adele_forge.curves import (
    CurveModel,
    Divisor,
    FunctionFieldElement,
    Place,
    affine_points,
    ec_add,
    ec_neg,
    expand_at,
    leading_term,
    principal_divisor,
    rational_points,
    riemann_roch_dimension,
    riemann_roch_pivots,
    riemann_roch_space,
    scalar_multiple,
    torsion_points,
    valuation,
)
from adele_forge.curves import _norm, _places_above_x_factor
from adele_forge.errors import DomainError
from adele_forge.fields import (
    Polynomial,
    canonical_field,
    factor_polynomial,
    field_sqrt,
    frobenius_orbit,
    poly_gcd,
    prime_field,
    roots_in_field,
)

F5 = prime_field(5)
F7 = prime_field(7)
P15 = CurveModel.projective_line(F5)


def t_of(curve):
    return FunctionFieldElement(curve, Polynomial.x(curve.spec))


def rand_p1(curve, rng, deg=3):
    spec = curve.spec
    while True:
        num = Polynomial.from_ints(spec, [rng.randrange(spec.p) for _ in range(deg + 1)])
        den = Polynomial.from_ints(spec, [rng.randrange(spec.p) for _ in range(deg + 1)])
        if num and den:
            return FunctionFieldElement(curve, num, None, den)


def rand_elliptic(curve, rng, deg=2):
    spec = curve.spec
    while True:
        a = Polynomial.from_ints(spec, [rng.randrange(spec.p) for _ in range(deg + 1)])
        b = Polynomial.from_ints(spec, [rng.randrange(spec.p) for _ in range(deg)])
        c = Polynomial.from_ints(spec, [rng.randrange(spec.p) for _ in range(2)])
        if not c:
            c = Polynomial.one(spec)
        f = FunctionFieldElement(curve, a, b, c)
        if f:
            return f


def test_curve_model_validation():
    with pytest.raises(DomainError):
        CurveModel.elliptic(F5, 0, 0)  # singular
    with pytest.raises(DomainError):
        CurveModel.elliptic(prime_field(2), 1, 1)  # disc = 0 in char 2
    E = CurveModel.elliptic(F5, 1, 1)
    assert E.genus == 1 and P15.genus == 0
    assert P15.base_place() == Place.infinity(P15) and E.base_place() == Place.origin(E)


def test_valuation_examples():
    t = t_of(P15)
    v_t = Place.finite(P15, Polynomial.x(F5))
    assert valuation(t * t / (t - 1), v_t) == 2
    assert valuation((t * t + 1) / t, Place.infinity(P15)) == -1
    E = CurveModel.elliptic(F5, 1, 0)  # y^2 = x^3 + x
    x = FunctionFieldElement.x_function(E)
    assert valuation(x, Place.origin(E)) == -2
    with pytest.raises(DomainError):
        valuation(FunctionFieldElement.zero(P15), v_t)


def test_principal_divisor_examples():
    t = t_of(P15)
    D = principal_divisor(t)
    assert D.multiplicity(Place.finite(P15, Polynomial.x(F5))) == 1
    assert D.multiplicity(Place.infinity(P15)) == -1

    F3 = prime_field(3)
    P13 = CurveModel.projective_line(F3)
    t3 = t_of(P13)
    D = principal_divisor(t3 * t3 + 1)
    quad = Place.finite(P13, Polynomial.from_ints(F3, [1, 0, 1]))
    assert D.multiplicity(quad) == 1
    assert quad.residue_degree == 2
    assert D.multiplicity(Place.infinity(P13)) == -2

    E = CurveModel.elliptic(F5, -1, 0)  # y^2 = x^3 - x
    y = FunctionFieldElement.y_function(E)
    D = principal_divisor(y)
    for xc in (0, 1, 4):
        pl = Place.affine_orbit(E, F5.element(xc), F5.zero())
        assert D.multiplicity(pl) == 1
    assert D.multiplicity(Place.origin(E)) == -3


@pytest.mark.parametrize("p", [1000003, 2**61 - 1])
def test_principal_divisor_nonsquare_rhs_at_large_p(p):
    # x - c with c^3 - c not a square in GF(p): the zero of x - c is one
    # place of degree 2, whose y-coordinate is a square root in GF(p^2)
    F = prime_field(p)
    E = CurveModel.elliptic(F, -1, 0)  # y^2 = x^3 - x
    c = next(n for n in range(2, p) if field_sqrt(F.element(n**3 - n)) is None)
    f = FunctionFieldElement.x_function(E) - c
    t0 = time.perf_counter()
    D = principal_divisor(f)
    assert time.perf_counter() - t0 < 5.0
    F2 = canonical_field(p, 2)
    x1 = F2.element(c)
    y1 = field_sqrt(x1**3 - x1)
    assert y1 is not None
    place = Place.affine_orbit(E, x1, y1)
    assert place.residue_degree == 2
    origin = Place.origin(E)
    assert D == Divisor.of_place(place) - Divisor.of_place(origin, 2)


def test_principal_divisor_properties():
    rng = Random(11)
    E = CurveModel.elliptic(F5, -1, 0)
    for _ in range(6):
        f = rand_p1(P15, rng)
        g = rand_p1(P15, rng)
        assert principal_divisor(f).degree == 0
        assert principal_divisor(f * g) == principal_divisor(f) + principal_divisor(g)
    for _ in range(4):
        f = rand_elliptic(E, rng)
        g = rand_elliptic(E, rng)
        assert principal_divisor(f, 12).degree == 0
        assert principal_divisor(f * g, 12) == principal_divisor(f, 12) + principal_divisor(g, 12)


def test_riemann_roch_examples():
    D = Divisor(P15, {Place.infinity(P15): 2})
    basis = riemann_roch_space(D)
    assert len(basis) == 3  # 1, t, t^2
    E = CurveModel.elliptic(F5, -1, 0)
    assert len(riemann_roch_space(Divisor(E))) == 1
    basis = riemann_roch_space(Divisor(E, {Place.origin(E): 3}))
    assert len(basis) == 3


def test_riemann_roch_memberships():
    rng = Random(12)
    E = CurveModel.elliptic(F5, 1, 1)
    pts = rational_points(E)
    places = [Place.origin(E)] + [Place.rational_point(E, P) for P in pts[1:4]]
    for _ in range(8):
        entries = {v: rng.randrange(-2, 3) for v in places}
        D = Divisor(E, entries)
        if D.degree < -3 or D.degree > 6:
            continue
        basis = riemann_roch_space(D, 10)
        for f in basis:
            S = principal_divisor(f, 10) + D
            assert all(m >= 0 for _, m in S.items())
        if D.degree >= 1:
            assert len(basis) == D.degree


def test_rr_dimension_formula_range():
    # h0(D) = deg D + 1 - g + h0(K - D) for deg D in [-3, 6]
    for curve, K in (
        (P15, Divisor(P15, {Place.infinity(P15): -2})),
        (CurveModel.elliptic(F5, 1, 1), None),
    ):
        K = K if K is not None else Divisor(curve)
        base = Place.infinity(curve) if curve.kind == "p1" else Place.origin(curve)
        for n in range(-3, 7):
            D = Divisor(curve, {base: n})
            h0 = len(riemann_roch_space(D))
            dual = len(riemann_roch_space(K - D))
            assert h0 == D.degree + 1 - curve.genus + dual


def test_group_law_examples():
    E = CurveModel.elliptic(F5, 1, 1)
    P = (F5.element(0), F5.element(1))
    assert ec_add(E, P, None) == P
    assert ec_add(E, P, ec_neg(E, P)) is None
    assert scalar_multiple(E, 2, P) == (F5.element(4), F5.element(2))
    with pytest.raises(DomainError):
        ec_add(E, (F5.element(1), F5.element(1)), P)


def _scalar_multiple_by_adding(curve, n, P):
    Q = ec_neg(curve, P) if n < 0 else P
    out = None
    for _ in range(abs(n)):
        out = ec_add(curve, out, Q)
    return out


@pytest.mark.parametrize("field", [F7, canonical_field(7, 2)])
def test_scalar_multiple_matches_repeated_addition(field, monkeypatch):
    E = CurveModel.elliptic(F7, 2, 3)
    rhs = E.rhs_poly(field)
    points = [
        (x, r) for x in field.elements() for r in [field_sqrt(rhs.evaluate(x))] if r is not None
    ][:8]
    assert any(not y for _, y in points)  # a 2-torsion point is among them
    for P in points + [None]:
        for n in range(-20, 21):
            assert scalar_multiple(E, n, P) == _scalar_multiple_by_adding(E, n, P)
    # one doubling per bit below the top one, one addition per set bit
    calls = []

    def counting_add(curve, P, Q):
        calls.append(None)
        return ec_add(curve, P, Q)

    monkeypatch.setattr(curves, "ec_add", counting_add)
    for n in range(1, 21):
        calls.clear()
        scalar_multiple(E, n, points[0])
        assert len(calls) == n.bit_length() - 1 + bin(n).count("1")
    monkeypatch.undo()
    off = (points[0][0], points[0][1] + 1)
    assert scalar_multiple(E, 0, off) is None
    for n in chain(range(-20, 0), range(1, 21)):
        with pytest.raises(DomainError, match="not on the curve"):
            scalar_multiple(E, n, off)


def test_group_law_associativity():
    rng = Random(13)
    E = CurveModel.elliptic(F7, 2, 3)
    pts = rational_points(E)
    for _ in range(30):
        P, Q, R = (pts[rng.randrange(len(pts))] for _ in range(3))
        assert ec_add(E, ec_add(E, P, Q), R) == ec_add(E, P, ec_add(E, Q, R))


def test_torsion_examples():
    E = CurveModel.elliptic(F5, -1, 0)
    tor = torsion_points(E, 2)
    coords = {None} | {(int(P[0].encoding()), int(P[1].encoding())) for P in tor if P}
    assert coords == {None, (0, 0), (1, 0), (4, 0)}
    E2 = CurveModel.elliptic(F5, 1, 1)
    assert torsion_points(E2, 2) == [None]
    assert torsion_points(E2, 1) == [None]
    with pytest.raises(DomainError):
        torsion_points(E2, 5)
    for l in (2, 3, 4):
        n = len(torsion_points(E2, l))
        assert l * l % n == 0


def test_leading_values():
    t = t_of(P15)
    v2 = Place.finite(P15, Polynomial.from_ints(F5, [3, 1]))  # t - 2
    assert leading_term(t, v2) == (0, F5.element(2))
    # at a degree-2 place the value lives in GF(25)
    P17 = CurveModel.projective_line(F7)
    t7 = t_of(P17)
    quad = Place.finite(P17, Polynomial.from_ints(F7, [1, 0, 1]))
    val = leading_term(t7 * t7 + t7 + 1, quad)[1]
    assert val.spec.k == 2 and val == val.spec.gen()


def _affine_places(curve, k, count):
    """Up to ``count`` affine places of degree k, read off GF(p^k) points."""
    field = canonical_field(curve.spec.p, k)
    rhs = curve.rhs_poly(field)
    places = []
    for x0 in field.elements():
        y0 = field_sqrt(rhs.evaluate(x0))
        if y0 is None:
            continue
        for y in (y0, -y0):
            if len(frobenius_orbit((x0, y))) == k:
                place = Place.affine_orbit(curve, x0, y)
                if place not in places:
                    places.append(place)
        if len(places) >= count:
            break
    return places


def test_leading_value_matches_series():
    rng = Random(11)
    for curve in (CurveModel.elliptic(F5, -1, 0), CurveModel.elliptic(F7, 0, 2)):
        places = _affine_places(curve, 1, 8) + _affine_places(curve, 2, 6)
        assert any(p.residue_degree == 2 for p in places)
        if curve.spec.p == 5:
            assert any(not p.representative()[1] for p in places)  # y the parameter
        for _ in range(12):
            f = rand_elliptic(curve, rng)
            for place in places:
                if valuation(f, place) != 0:
                    continue
                want = expand_at(f, place, 1).coefficient(0)
                assert leading_term(f, place)[1] == want, (f, place)


def test_leading_value_of_unit_with_vanishing_denominator():
    # (y - y0)/(x - x0) at (x0, y0), y0 != 0: a unit whose c(x0) = 0, so the
    # value is the slope (3*x0^2 + a)/(2*y0) of the tangent
    E = CurveModel.elliptic(F5, -1, 0)
    x0, y0 = F5.element(2), F5.element(1)
    x = FunctionFieldElement.x_function(E)
    y = FunctionFieldElement.y_function(E)
    f = (y - y0) / (x - x0)
    place = Place.rational_point(E, (x0, y0))
    assert valuation(f, place) == 0
    want = (F5.element(3) * x0 * x0 + E.a) / (y0 + y0)
    assert want == F5.element(3)
    assert expand_at(f, place, 1).coefficient(0) == want
    assert leading_term(f, place)[1] == want


def test_nonprime_base_rejected():
    from adele_forge.fields import FieldSpec

    F9 = FieldSpec(3, 2, [1, 0, 1])
    with pytest.raises(DomainError):
        CurveModel.projective_line(F9)


def test_torsion_closed_under_group_law():
    E = CurveModel.elliptic(F5, -1, 0)
    tor = torsion_points(E, 2)
    as_set = set()
    for P in tor:
        key = None if P is None else (P[0].encoding(), P[1].encoding())
        as_set.add(key)
    for P in tor:
        neg = ec_neg(E, P)
        key = None if neg is None else (neg[0].encoding(), neg[1].encoding())
        assert key in as_set
        for Q in tor:
            s = ec_add(E, P, Q)
            key = None if s is None else (s[0].encoding(), s[1].encoding())
            assert key in as_set


def test_elliptic_over_gf3():
    F3 = prime_field(3)
    E = CurveModel.elliptic(F3, 1, 0)  # disc = -64 = -1 != 0 mod 3
    x = FunctionFieldElement.x_function(E)
    y = FunctionFieldElement.y_function(E)
    assert principal_divisor(y).degree == 0
    assert valuation(x, Place.origin(E)) == -2
    D = Divisor(E, {Place.origin(E): 3})
    assert len(riemann_roch_space(D)) == 3


def test_p1_over_gf2():
    F2 = prime_field(2)
    P12 = CurveModel.projective_line(F2)
    t = FunctionFieldElement(P12, Polynomial.x(F2))
    f = t * t + t + 1  # irreducible numerator
    D = principal_divisor(f)
    assert D.degree == 0
    quad = Place.finite(P12, Polynomial.from_ints(F2, [1, 1, 1]))
    assert D.multiplicity(quad) == 1


def test_rr_with_two_torsion_conditions():
    # vanishing conditions at a place where y is the local parameter
    E = CurveModel.elliptic(F5, -1, 0)
    tt = Place.affine_orbit(E, F5.element(0), F5.element(0))
    for D, expect in (
        (Divisor(E, {Place.origin(E): 4, tt: -2}), 2),
        (Divisor(E, {tt: 3, Place.origin(E): -1}), 2),
    ):
        basis = riemann_roch_space(D)
        assert len(basis) == expect
        for f in basis:
            S = principal_divisor(f) + D
            assert all(m >= 0 for _, m in S.items())


def _p1_places():
    x = Polynomial.x(F5)
    return [
        Place.finite(P15, x),  # x | den when its multiplicity is positive
        Place.finite(P15, Polynomial.from_ints(F5, [1, 1])),
        Place.finite(P15, Polynomial.from_ints(F5, [2, 0, 1])),  # x^2 + 2, degree 2
    ]


def _elliptic_places():
    # affine places of degree 1 (one of them 2-torsion, where y is the local
    # parameter) and of degree 2 on y^2 = x^3 - x over GF(5)
    E = CurveModel.elliptic(F5, -1, 0)
    g = FunctionFieldElement(E, Polynomial.from_ints(F5, [2, 1, 1]))
    deg2 = [v for v, _ in principal_divisor(g).items() if v.residue_degree == 2]
    two_torsion = Place.affine_orbit(E, F5.element(0), F5.element(0))
    points = [Place.rational_point(E, P) for P in rational_points(E)[1:] if P[1]]
    return E, [two_torsion, points[0], deg2[0]]


def _check_pivots(D, base, m):
    # each pivot of the basis of E = D + m*base is the valuation of its
    # element at base and the leading exponent of its expand_at expansion
    E = D + Divisor(D.curve, {base: m})
    basis = riemann_roch_space(E)
    pivots = riemann_roch_pivots(E)
    assert len(pivots) == len(basis) == riemann_roch_dimension(E)
    for f, v in zip(basis, pivots):
        assert valuation(f, base) == v
        assert expand_at(f, base, v + 1).valuation() == v


@settings(max_examples=40, deadline=None)
@given(
    mults=st.lists(st.integers(-2, 3), min_size=4, max_size=4),
    m=st.sampled_from([0, 2, 4, 8]),
)
def test_rr_expansions_match_expand_at_p1(mults, m):
    base = Place.infinity(P15)
    places = _p1_places() + [base]
    D = Divisor(P15, dict(zip(places, mults)))
    _check_pivots(D, base, m)
    for f in riemann_roch_space(D):
        _assert_reduced(f)


@settings(max_examples=40, deadline=None)
@given(
    mults=st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    m=st.sampled_from([0, 2, 4, 8]),
)
def test_rr_expansions_match_expand_at_elliptic(mults, m):
    E, affine = _elliptic_places()
    base = Place.origin(E)
    D = Divisor(E, dict(zip(affine + [base], mults)))
    _check_pivots(D, base, m)
    for f in riemann_roch_space(D):
        _assert_reduced(f)


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(["p1", "elliptic"]),
    mults=st.lists(st.integers(-3, 4), min_size=4, max_size=4),
)
def test_rr_dimension_matches_basis(model, mults):
    if model == "p1":
        places = _p1_places() + [Place.infinity(P15)]
    else:
        E, affine = _elliptic_places()
        places = affine + [Place.origin(E)]
    D = Divisor(places[0].curve, dict(zip(places, mults)))
    assert riemann_roch_dimension(D) == len(riemann_roch_space(D))


def test_rr_expansions_fixtures():
    # conditions at affine places and a mult != 1 together, on two curves
    E, (tt, pt, deg2) = _elliptic_places()
    E2 = CurveModel.elliptic(F7, 1, 1)
    q = Place.rational_point(E2, rational_points(E2)[1])
    cases = [
        (Divisor(P15, {_p1_places()[0]: 2, _p1_places()[2]: -1}), Place.infinity(P15)),
        (Divisor(E, {pt: 2, tt: -1, deg2: 1}), Place.origin(E)),
        (Divisor(E, {deg2: -1, tt: 3}), Place.origin(E)),
        (Divisor(E2, {q: 2, Place.origin(E2): -1}), Place.origin(E2)),
    ]
    for D, base in cases:
        for m in (0, 2, 4, 8):
            _check_pivots(D, base, m)


def test_rr_rows_without_vanishing_conditions_are_the_monomials():
    # at n*O, and at Q + 2O with Q the one place of degree 2 above x - c,
    # which 1/(x - c) clears with no condition left, the parts carry no
    # vectors and the basis is the monomials x^i*y^j/mult themselves, in
    # rising pole order; 4O - Q has a condition
    for p, a, b in ((3, 2, 2), (5, 1, 1), (7, 1, 1)):
        E = CurveModel.elliptic(prime_field(p), a, b)
        O = Place.origin(E)
        x, y = FunctionFieldElement.x_function(E), FunctionFieldElement.y_function(E)
        Q = next(
            v
            for c in range(p)
            for v in _places_above_x_factor(E, Polynomial.from_ints(E.spec, [-c, 1]), 2)
            if v.residue_degree == 2
        )
        divisors = [Divisor(E, {O: n}) for n in (0, 1, 2, 3, 7, 40)]
        divisors += [Divisor(E, {Q: 1, O: 2}), Divisor(E, {Q: -1, O: 4})]
        for D in divisors:
            assert riemann_roch_dimension(D) == len(riemann_roch_space(D))
            _check_pivots(D, O, 0)
        for D in divisors[:-1]:
            bound, exponents, vectors, mult = curves._rr_parts_elliptic(D, 2)
            assert vectors is None
            assert [2 * i + 3 * j for i, j in exponents] == [n for n in range(bound + 1) if n != 1]
            den = FunctionFieldElement(E, mult)
            assert riemann_roch_space(D) == [x**i * y**j / den for i, j in exponents]
        assert curves._rr_parts_elliptic(divisors[-2], 2)[3].degree == 1
        assert curves._rr_parts_elliptic(divisors[-1], 2)[2] is not None


def test_rr_pivots_raise_domain_error_when_two_are_equal(monkeypatch):
    # a kernel vector given twice leads both copies with one monomial: the
    # pivots are checked, not trusted
    real = curves.kernel_basis
    monkeypatch.setattr(curves, "kernel_basis", lambda rows, p: real(rows, p) * 2)
    E, (tt, pt, deg2) = _elliptic_places()
    with pytest.raises(DomainError, match="share their valuation"):
        riemann_roch_pivots(Divisor(E, {Place.origin(E): 4, pt: -1}))


def test_monomial_series_raise_domain_error_when_short(monkeypatch):
    # the vanishing conditions of -3P read the monomials at P below t^3
    real = curves._ec_expansions
    monkeypatch.setattr(
        curves, "_ec_expansions", lambda curve, place, prec: tuple(s.truncate(2) for s in real(curve, place, prec))
    )
    E = CurveModel.elliptic(F7, 0, 2)
    P = Place.rational_point(E, rational_points(E)[1])
    with pytest.raises(DomainError, match="monomial expansion short"):
        riemann_roch_space(Divisor(E, {Place.origin(E): 6, P: -3}))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([5, 7, 11, 2**61 - 1]),
    st.integers(1, 3),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.data(),
)
def test_contains_affine_matches_rhs_poly(p, k, a, b, data):
    try:
        curve = CurveModel.elliptic(prime_field(p), a, b)
    except DomainError:
        return  # singular
    field = canonical_field(p, k)
    rhs = curve.rhs_poly(field)
    code = st.one_of(st.just(0), st.just(1), st.integers(0, field.order - 1))
    x = field.from_encoding(data.draw(code))
    root = field_sqrt(rhs.evaluate(x))
    ys = [field.from_encoding(data.draw(code))]
    if root is not None:
        ys += [root, -root, root + 1]
    for y in ys:
        assert curve.contains_affine(x, y) == (y * y == rhs.evaluate(x))
    if root is not None:
        assert curve.contains_affine(x, root)
        if k > 1:  # a y from a different field is never a point
            assert not curve.contains_affine(x, prime_field(p).element(root.val[0]))
        else:
            assert not curve.contains_affine(x, canonical_field(p, 2).element(root.val[0]))


def test_contains_affine_needs_the_elliptic_model():
    with pytest.raises(DomainError):
        P15.contains_affine(F5.one(), F5.one())


@pytest.mark.parametrize("field", [F7, canonical_field(7, 2)])
def test_ec_add_rejects_off_curve_operands(field):
    E = CurveModel.elliptic(F7, 2, 3)
    rhs = E.rhs_poly(field)
    on = next(
        (x, r) for x in field.elements() for r in [field_sqrt(rhs.evaluate(x))] if r is not None
    )
    off = (on[0], on[1] + 1)
    assert E.contains_affine(*on) and not E.contains_affine(*off)
    ec_add(E, on, on)
    for P, Q in ((off, on), (on, off), (off, None), (None, off), (off, off)):
        with pytest.raises(DomainError, match="not on the curve"):
            ec_add(E, P, Q)


# ---------------------------------------------------------------------------
# arithmetic on the reduced triple (A + B*y)/C against a reference on pairs
# (a, b) of rational functions, f = a(x) + b(x)*y


@st.composite
def _curves(draw):
    # y^2 = x^3 + a*x + b is singular in characteristic 2: P^1 only there
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    spec = prime_field(p)
    if p == 2 or draw(st.booleans()):
        return CurveModel.projective_line(spec)
    smooth = [(a, b) for a in range(p) for b in range(p) if (4 * a**3 + 27 * b * b) % p]
    a, b = draw(st.sampled_from(smooth))
    return CurveModel.elliptic(spec, a, b)


class _Rat:
    """The reference for function-field arithmetic: fractions num/den of
    polynomials, never reduced; two fractions are equal when their
    cross-products are."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = num
        self.den = Polynomial.one(num.spec) if den is None else den

    def __eq__(self, other):
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __add__(self, other):
        return _Rat(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return _Rat(-self.num, self.den)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        return _Rat(self.num * other.num, self.den * other.den)

    def inverse(self):
        assert self.num, "inverting the zero fraction"
        return _Rat(self.den, self.num)


@st.composite
def _rational_functions(draw, spec):
    coeffs = st.lists(st.integers(0, spec.p - 1), max_size=4)
    num = Polynomial.from_ints(spec, draw(coeffs))
    den = Polynomial.from_ints(spec, draw(coeffs.filter(any)))
    return _Rat(num, den)


def _ref_pair(draw, curve):
    a = draw(_rational_functions(curve.spec))
    if curve.kind == "p1":
        return a, _Rat(Polynomial.zero(curve.spec))
    return a, draw(_rational_functions(curve.spec))


def _ref_mul(curve, f, g):
    (a1, b1), (a2, b2) = f, g
    if curve.kind == "p1":
        return a1 * a2, b1
    rhs = _Rat(curve.rhs_poly())
    return a1 * a2 + b1 * b2 * rhs, a1 * b2 + b1 * a2


def _ref_inverse(curve, f):
    a, b = f
    if curve.kind == "p1":
        return a.inverse(), b
    n = (a * a - b * b * _Rat(curve.rhs_poly())).inverse()
    return a * n, -b * n


def _ref_pow(curve, f, e):
    if e < 0:
        f, e = _ref_inverse(curve, f), -e
    out = (_Rat(Polynomial.one(curve.spec)), _Rat(Polynomial.zero(curve.spec)))
    for _ in range(e):
        out = _ref_mul(curve, out, f)
    return out


def _element(curve, pair):
    """(a + b*y) as the unreduced triple over the common denominator; b is
    the zero fraction on P^1."""
    a, b = pair
    return FunctionFieldElement(curve, a.num * b.den, b.num * a.den, a.den * b.den)


def _assert_reduced(f):
    a, b, c = f.abc
    assert c.lc() == c.spec.one()
    assert poly_gcd(poly_gcd(a, b), c).degree == 0
    assert f.curve.kind != "p1" or not b


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_function_arithmetic_matches_rational_pairs(data):
    curve = data.draw(_curves())
    fr, gr = _ref_pair(data.draw, curve), _ref_pair(data.draw, curve)
    f, g = _element(curve, fr), _element(curve, gr)
    e = data.draw(st.integers(-3, 3))
    cases = [
        (f + g, (fr[0] + gr[0], fr[1] + gr[1])),
        (f - g, (fr[0] - gr[0], fr[1] - gr[1])),
        (-f, (-fr[0], -fr[1])),
        (f * g, _ref_mul(curve, fr, gr)),
    ]
    if g:
        cases.append((f / g, _ref_mul(curve, fr, _ref_inverse(curve, gr))))
    else:
        with pytest.raises(DomainError):
            f / g
    if f or e >= 0:
        cases.append((f**e, _ref_pow(curve, fr, e)))
    for got, (a, b) in cases:
        _assert_reduced(got)
        A, B, C = got.abc
        assert _Rat(A, C) == a and _Rat(B, C) == b
        # the same value built another way: equal, with an equal hash
        want = _element(curve, (a, b))
        assert got == want and hash(got) == hash(want)
    _assert_reduced(f)
    _assert_reduced(g)
    for h, (a, b) in ((f, fr), (g, gr)):
        A, B, C = h.abc
        assert _Rat(A, C) == a and _Rat(B, C) == b
    assert f * g == g * f and hash(f * g) == hash(g * f)
    assert f + g == g + f and hash(f + g) == hash(g + f)


def test_constructor_reduces_examples():
    x = Polynomial.x(F5)
    # (x^2 - 1)/(x - 1) = x + 1
    f = FunctionFieldElement(P15, Polynomial.from_ints(F5, [4, 0, 1]), None, Polynomial.from_ints(F5, [4, 1]))
    assert f.abc == (Polynomial.from_ints(F5, [1, 1]), Polynomial.zero(F5), Polynomial.one(F5))
    f = FunctionFieldElement(P15, Polynomial.zero(F5), None, x)
    assert not f and f.abc == (Polynomial.zero(F5), Polynomial.zero(F5), Polynomial.one(F5))
    # 2x/4 = 3x over GF(5)
    f = FunctionFieldElement(P15, Polynomial.from_ints(F5, [0, 2]), None, Polynomial.from_ints(F5, [4]))
    assert f == FunctionFieldElement(P15, Polynomial.from_ints(F5, [0, 3]))
    with pytest.raises(DomainError):
        FunctionFieldElement(P15, Polynomial.one(F5), None, Polynomial.zero(F5))


def test_constructor_idempotent_randomized():
    rng = Random(5)
    P17 = CurveModel.projective_line(F7)
    for _ in range(25):
        num = Polynomial.from_ints(F7, [rng.randrange(7) for _ in range(4)])
        den = Polynomial.from_ints(F7, [rng.randrange(7) for _ in range(4)])
        if not den:
            continue
        f = FunctionFieldElement(P17, num, None, den)
        assert FunctionFieldElement(P17, *f.abc) == f
        assert f.abc[2].lc() == F7.one()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_constructor_reduces_unreduced_triples(data):
    curve = data.draw(_curves())
    spec = curve.spec
    coeffs = st.lists(st.integers(0, spec.p - 1), max_size=4)
    a = Polynomial.from_ints(spec, data.draw(coeffs))
    b = Polynomial.from_ints(spec, data.draw(coeffs)) if curve.kind == "elliptic" else Polynomial.zero(spec)
    c = Polynomial.from_ints(spec, data.draw(coeffs.filter(any)))
    # a common factor g and a unit u, which leaves c non-monic
    g = Polynomial.from_ints(spec, data.draw(coeffs.filter(any)))
    u = spec.element(data.draw(st.integers(1, spec.p - 1)))
    a, b, c = (h.scale(u) * g for h in (a, b, c))
    f = FunctionFieldElement(curve, a, b, c)
    _assert_reduced(f)
    want = FunctionFieldElement(curve, a)
    if curve.kind == "elliptic":
        want = want + FunctionFieldElement(curve, b) * FunctionFieldElement.y_function(curve)
    want = want / FunctionFieldElement(curve, c)
    assert f == want and hash(f) == hash(want)
    assert FunctionFieldElement(curve, *f.abc).abc == f.abc
    if curve.kind == "p1":
        assert FunctionFieldElement(curve, a, None, c) == f  # the zero b above was accepted
        with pytest.raises(DomainError):
            FunctionFieldElement(curve, a, Polynomial.one(spec), c)
    with pytest.raises(DomainError):
        FunctionFieldElement(curve, a, b, Polynomial.zero(spec))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_norm_is_the_product_with_the_conjugate(data):
    # (A + B*y)/C * (A - B*y)/C = (A^2 - B^2*rhs)/C^2 on y^2 = rhs
    p = data.draw(st.sampled_from([5, 7, 11, 13]))
    spec = prime_field(p)
    smooth = [(a, b) for a in range(p) for b in range(p) if (4 * a**3 + 27 * b * b) % p]
    curve = CurveModel.elliptic(spec, *data.draw(st.sampled_from(smooth)))
    coeffs = st.lists(st.integers(0, p - 1), max_size=4)
    a, b, c = (Polynomial.from_ints(spec, data.draw(cs)) for cs in (coeffs, coeffs, coeffs.filter(any)))
    f = FunctionFieldElement(curve, a, b, c)
    conjugate = FunctionFieldElement(curve, a, -b, c)
    assert f * conjugate == FunctionFieldElement(curve, _norm(a, b, curve.rhs_poly()), None, c * c)


# ---------------------------------------------------------------------------
# places above an irreducible factor of the norm


def _places_above_by_all_roots(curve, g, ext_bound):
    """The places above the roots of g, reading the root of smallest
    encoding off the list of all of g's roots."""
    p, d = curve.spec.p, g.degree
    field = canonical_field(p, d)
    x0 = roots_in_field(g, field)[0]
    rhs0 = curve.rhs_poly(field).evaluate(x0)
    if not rhs0:
        return [Place.affine_orbit(curve, x0, field.zero())]
    y0 = field_sqrt(rhs0)
    if y0 is not None:
        return list(dict.fromkeys([Place.affine_orbit(curve, x0, y0), Place.affine_orbit(curve, x0, -y0)]))
    if 2 * d > ext_bound:
        return None
    field2 = canonical_field(p, 2 * d)
    x1 = roots_in_field(g, field2)[0]
    return [Place.affine_orbit(curve, x1, field_sqrt(curve.rhs_poly(field2).evaluate(x1)))]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_places_above_x_factor_match_all_roots_reference(data):
    # GF(2) has no elliptic model y^2 = x^3 + a*x + b: its discriminant is 0
    p = data.draw(st.sampled_from([3, 5, 7]))
    spec = prime_field(p)
    a, b = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
    assume((4 * a**3 + 27 * b * b) % p)
    curve = CurveModel.elliptic(spec, a, b)
    d = data.draw(st.sampled_from(range(1, 7)))
    g = Polynomial.from_ints(spec, data.draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)) + [1])
    assume(g.is_irreducible())
    ext_bound = data.draw(st.sampled_from([d, 2 * d]))
    want = _places_above_by_all_roots(curve, g, ext_bound)
    if want is None:
        with pytest.raises(DomainError, match="exceeds the extension bound"):
            _places_above_x_factor(curve, g, ext_bound)
        return
    got = _places_above_x_factor(curve, g, ext_bound)
    assert got == want
    for place in got:
        assert all(not g.lift_to(place.residue_field()).evaluate(x) for x, _ in place.data[0])


def _monic_irreducibles(spec, d):
    p = spec.p
    for n in range(p**d):
        g = Polynomial.from_ints(spec, [n // p**i % p for i in range(d)] + [1])
        if g.is_irreducible():
            yield g


def _points_over_gf_pk(p, k, a, b):
    """#E(GF(p^k)) for y^2 = x^3 + a*x + b, from #E(GF(p)) counted on ints:
    p^k + 1 - (alpha^k + conj(alpha)^k), where alpha + conj(alpha) =
    p + 1 - #E(GF(p)) and alpha * conj(alpha) = p (Weil; Silverman, *The
    Arithmetic of Elliptic Curves*, V.2)."""
    squares = [sum(1 for y in range(p) if y * y % p == r) for r in range(p)]
    n1 = 1 + sum(squares[(x**3 + a * x + b) % p] for x in range(p))
    trace = p + 1 - n1
    s_prev, s = 2, trace  # alpha^j + conj(alpha)^j for j = 0, 1
    for _ in range(k - 1):
        s_prev, s = s, trace * s - p * s_prev
    return p**k + 1 - s


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7]),
    k=st.integers(1, 3),
    ab=st.tuples(st.integers(0, 6), st.integers(0, 6)) | st.none(),
)
def test_places_of_degree_dividing_k_count_the_points_over_gf_pk(p, k, ab):
    """The closed points with deg v | k, each counted deg v times, are the
    GF(p^k)-points: p^k + 1 on P^1, whose places above x come from
    ``is_irreducible`` (Gauss's count), and #E(GF(p^k)) on E, whose places
    come from ``_places_above_x_factor``: every closed point found once."""
    spec = prime_field(p)
    factors = [g for d in range(1, k + 1) if k % d == 0 for g in _monic_irreducibles(spec, d)]
    if ab is None:
        assert 1 + sum(g.degree for g in factors) == p**k + 1
        return
    a, b = ab[0] % p, ab[1] % p
    assume((4 * a**3 + 27 * b * b) % p)
    curve = CurveModel.elliptic(spec, a, b)
    degrees = [1]  # O
    for g in factors:
        try:
            places = _places_above_x_factor(curve, g, k)
        except DomainError as exc:  # one place of degree 2 deg g > k
            assert "exceeds the extension bound" in str(exc)
            continue
        degrees += [v.residue_degree for v in places]
    assert sum(e for e in degrees if k % e == 0) == _points_over_gf_pk(p, k, a, b)


# ---------------------------------------------------------------------------
# the group law on ints at k = 1 against the chord-tangent formula on
# FieldElements, as ec_add computed it for every k before


def ref_ec_add(curve, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    field = x1.spec
    if x1 == x2:
        if y1 == -y2:
            return None
        lam = (field.element(3) * x1 * x1 + field.element(curve.a.val[0])) / (y1 + y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return (x3, y3)


GROUP_LAW_PRIMES = [3, 5, 7, 11, 2**61 - 1]


def _curve_with_two_torsion(p, a, x0):
    """y^2 = x^3 + a*x + b through (x0, 0), or None when that is singular."""
    try:
        return CurveModel.elliptic(prime_field(p), a, -(x0**3 + a * x0))
    except DomainError:
        return None


def _point_at_or_after(curve, field, n):
    """The first affine point over ``field`` whose x has encoding n, n + 1, ..."""
    rhs = curve.rhs_poly(field)
    for i in range(field.order):
        x = field.from_encoding((n + i) % field.order)
        y = field_sqrt(rhs.evaluate(x))
        if y is not None:
            return (x, y)
    raise AssertionError("no affine point")


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(GROUP_LAW_PRIMES),
    st.sampled_from([1, 2, 3]),
    st.data(),
)
def test_ec_add_matches_the_field_element_formula(p, k, data):
    x0 = data.draw(st.integers(0, p - 1))
    curve = _curve_with_two_torsion(p, data.draw(st.integers(0, p - 1)), x0)
    assume(curve is not None)
    field = canonical_field(p, k)
    two = (field.element(x0), field.zero())
    assert curve.contains_affine(*two)
    codes = data.draw(st.lists(st.integers(0, field.order - 1), min_size=1, max_size=3))
    pts = [two] + [_point_at_or_after(curve, field, n) for n in codes]
    for P in pts + [None]:
        for Q in pts + [None, ec_neg(curve, P)]:
            assert ec_add(curve, P, Q) == ref_ec_add(curve, P, Q), (P, Q)
    assert ec_add(curve, two, two) is None


@pytest.mark.parametrize("p", GROUP_LAW_PRIMES)
def test_ec_add_at_k1_makes_no_field_element_operation(p, monkeypatch):
    from adele_forge.fields import FieldElement

    curve = next(c for a in range(1, p) for c in [_curve_with_two_torsion(p, a, 1)] if c)
    field = curve.spec
    two = (field.one(), field.zero())
    pts = [two] + [_point_at_or_after(curve, field, n) for n in (0, 2, p // 2, p - 1)]
    cases = [(P, Q) for P in pts + [None] for Q in pts + [None, ec_neg(curve, P)]]
    want = [ref_ec_add(curve, P, Q) for P, Q in cases]

    def no_op(*args):
        raise AssertionError("a FieldElement operator ran")

    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "inverse", "__pow__"):
        monkeypatch.setattr(FieldElement, name, no_op)
    assert [ec_add(curve, P, Q) for P, Q in cases] == want
    assert ec_add(curve, two, two) is None


# ---------------------------------------------------------------------------
# the per-curve memo


def _fresh_copy(curve):
    """An equal curve object, with nothing derived yet."""
    if curve.kind == "p1":
        return CurveModel.projective_line(curve.spec)
    return CurveModel.elliptic(curve.spec, curve.a, curve.b)


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except DomainError as exc:
        return "raises", str(exc)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_principal_divisor_on_a_warm_curve_matches_a_fresh_one(data):
    spec = prime_field(data.draw(st.sampled_from([5, 7, 11])))
    if data.draw(st.booleans()):
        curve, rand = CurveModel.projective_line(spec), rand_p1
    else:
        a, b = data.draw(st.integers(0, spec.p - 1)), data.draw(st.integers(0, spec.p - 1))
        assume((4 * a**3 + 27 * b * b) % spec.p)
        curve, rand = CurveModel.elliptic(spec, a, b), rand_elliptic
    rng = Random(data.draw(st.integers(0, 2**32)))
    fs = [rand(curve, rng) for _ in range(3)]
    fs += [fs[0] * fs[1], fs[1] * fs[2]]
    # the products share factors with the first three, and the second
    # pass finds every divisor memoized
    for f in fs + fs:
        ext_bound = data.draw(st.sampled_from([2, 4, 6, 12]))
        fresh = FunctionFieldElement._raw(_fresh_copy(curve), *f.abc)
        assert _outcome(principal_divisor, f, ext_bound) == _outcome(principal_divisor, fresh, ext_bound)


def test_smaller_ext_bound_after_a_hit_raises_as_on_a_fresh_curve():
    E = CurveModel.elliptic(F5, 1, 1)  # y^2 = x^3 + x + 1
    x = FunctionFieldElement.x_function(E)
    # above x - 1 lies one place of degree 2, above x^2 + 2 one of degree 4,
    # above x^2 + x + 2 two of degree 2 and above x two rational ones
    fs = [x - 1, x * x + 2, x * x + x + 2, (x - 1) * (x * x + 2), x]
    for f in fs:
        assert _outcome(principal_divisor, f, 12)[0] == "value"
    for ext_bound in (6, 4, 3, 2, 1):
        for f in fs:
            fresh = FunctionFieldElement._raw(_fresh_copy(E), *f.abc)
            assert _outcome(principal_divisor, f, ext_bound) == _outcome(principal_divisor, fresh, ext_bound)
            for g, _ in factor_polynomial(f.abc[0])[1]:
                want = _outcome(_places_above_x_factor, _fresh_copy(E), g, ext_bound)
                assert _outcome(_places_above_x_factor, E, g, ext_bound) == want
    too_big = "place of degree %d exceeds the extension bound %d"
    assert _outcome(principal_divisor, x - 1, 1) == ("raises", too_big % (2, 1))
    assert _outcome(principal_divisor, x * x + 2, 3) == ("raises", too_big % (4, 3))
    assert _outcome(principal_divisor, x * x + 2, 1) == ("raises", too_big % (2, 1))


def test_memo_stores_nothing_that_raised():
    E = CurveModel.elliptic(F5, 1, 1)
    f = FunctionFieldElement.x_function(E) - 1
    with pytest.raises(DomainError, match="place of degree 2 exceeds the extension bound 1"):
        principal_divisor(f, 1)
    assert not E._memo.places and not E._memo.divisors
    fresh = FunctionFieldElement._raw(_fresh_copy(E), *f.abc)
    assert principal_divisor(f, 2) == principal_divisor(fresh, 2)


def _affine_points_reference(curve):
    spec = curve.spec
    rhs = curve.rhs_poly()
    for n in range(spec.p):
        x = spec.element(n)
        c = rhs.evaluate(x)
        if not c:
            yield (x, spec.zero())
            continue
        r = field_sqrt(c)
        if r is not None:
            yield (x, r)
            yield (x, -r)


def test_affine_points_iterators_share_one_sequence():
    E = CurveModel.elliptic(prime_field(11), 3, 1)
    want = list(_affine_points_reference(E))
    assert list(affine_points(_fresh_copy(E))) == want
    abandoned = affine_points(E)
    assert [next(abandoned) for _ in range(len(want) // 2)] == want[: len(want) // 2]
    del abandoned
    # one iterator two steps ahead of another, each extending the list in turn
    fast, slow = affine_points(E), affine_points(E)
    got_fast, got_slow = [], []
    for pt in slow:
        got_slow.append(pt)
        got_fast += [T for T in (next(fast, None), next(fast, None)) if T is not None]
    assert got_fast == want and got_slow == want
    E2 = CurveModel.elliptic(prime_field(11), 3, 1)
    nested = [(R, S) for R in affine_points(E2) for S in affine_points(E2)]
    assert nested == [(R, S) for R in want for S in want]


def test_principal_divisor_raises_on_nonzero_degree(monkeypatch):
    E = CurveModel.elliptic(F5, -1, 0)
    monkeypatch.setattr(curves, "valuation", lambda f, place: valuation(f, place) + 1)
    with pytest.raises(DomainError, match="principal divisor has nonzero degree"):
        principal_divisor(FunctionFieldElement.x_function(E))
    assert not E._memo.divisors


def test_missing_square_root_above_a_factor_raises(monkeypatch):
    E = CurveModel.elliptic(F5, -1, 0)
    g = Polynomial.from_ints(F5, [3, 1])  # x + 3: its root 2 has x^3 - x = 1
    # with every square root missing, the point above x = 2 is looked for
    # over GF(25) and not found there either
    monkeypatch.setattr(curves, "field_sqrt", lambda c: None)
    with pytest.raises(DomainError, match="no square root"):
        _places_above_x_factor(E, g, 2)
    assert not E._memo.places
