"""``curves.leading_term`` against the series-based valuation and leading
value it replaced, tame symbols against the f^v(g)/g^v(f) formula, the
Newton expansions at O and at points with y0 = 0 against the iterations
they replaced, a guard that the Weil pairing, Massey and reciprocity
checks read no series, and leading terms at affine places against the
strip-first routine that ran before the triple was evaluated at the point."""

from itertools import chain
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adele_forge import curves, milnor, selfcheck
from adele_forge.adelic import uniformizer
from adele_forge.curves import (
    CurveModel,
    FunctionFieldElement,
    Place,
    _ec_expansions,
    _places_above_x_factor,
    expand_at,
    leading_term,
    principal_divisor,
    valuation,
)
from adele_forge.errors import DomainError
from adele_forge.linalg import kernel_basis
from adele_forge.fields import (
    Polynomial,
    canonical_field,
    factor_polynomial,
    field_sqrt,
    frobenius_orbit,
    prime_field,
)
from adele_forge.milnor import MilnorSymbol, tame_symbol
from adele_forge.series import LaurentSeries, _newton_root

# ---------------------------------------------------------------------------
# reference: valuations by repeated division and leading values read off the
# Laurent expansion, as computed before leading_term


def ref_poly_mult(poly, factor):
    m = 0
    while True:
        q, r = divmod(poly, factor)
        if r:
            return m
        poly = q
        m += 1


def ref_val_affine(a, b, x0, y0, rhs):
    """Valuation of a(x) + b(x)*y at the affine point (x0, y0)."""
    if not y0:
        if not a:
            return 2 * b.root_multiplicity(x0) + 1
        if not b:
            return 2 * a.root_multiplicity(x0)
        return min(2 * a.root_multiplicity(x0), 2 * b.root_multiplicity(x0) + 1)
    va = a.evaluate(x0) if a else x0.spec.zero()
    vb = b.evaluate(x0) if b else x0.spec.zero()
    if va + vb * y0:
        return 0
    if vb:
        norm = a * a - b * b * rhs
        return norm.root_multiplicity(x0)
    lin = Polynomial.from_elements(x0.spec, [-x0, x0.spec.one()])
    return 1 + ref_val_affine(
        a.exact_div(lin) if a else a, b.exact_div(lin) if b else b, x0, y0, rhs
    )


def ref_valuation(f, place):
    a, b, c = f.abc
    if place.kind == "p1-finite":
        return ref_poly_mult(a, place.data) - ref_poly_mult(c, place.data)
    if place.kind == "p1-infinity":
        return c.degree - a.degree
    if place.kind == "ec-origin":
        cands = []
        if a:
            cands.append(-2 * a.degree)
        if b:
            cands.append(-2 * b.degree - 3)
        return min(cands) + 2 * c.degree
    field = place.data[1]
    x0, y0 = place.representative()
    a, b, c = (g.lift_to(field) for g in f.abc)
    rhs = f.curve.rhs_poly(field)
    e = 2 if not y0 else 1
    return ref_val_affine(a, b, x0, y0, rhs) - e * c.root_multiplicity(x0)


def ref_leading_value(f, place):
    curve = f.curve
    if curve.kind == "p1" and place.kind == "p1-finite":
        pi = place.data
        num, den = f.abc[0], f.abc[2]
        while not num % pi:
            num = num.exact_div(pi)
        while not den % pi:
            den = den.exact_div(pi)
        fieldv = place.residue_field()
        if fieldv.k == 1:
            theta = -pi.constant_term()
            return num.evaluate(theta) / den.evaluate(theta)
        nval = fieldv.element([c.val[0] for c in (num % pi).coeffs])
        dval = fieldv.element([c.val[0] for c in (den % pi).coeffs])
        return nval / dval
    if curve.kind == "p1":
        return f.abc[0].lc() / f.abc[2].lc()
    v = ref_valuation(f, place)
    if v == 0 and place.kind == "ec-affine":
        x, y = place.representative()
        a, b, c = (g.lift_to(x.spec) for g in f.abc)
        if c.evaluate(x):
            return (a.evaluate(x) + b.evaluate(x) * y) / c.evaluate(x)
    return expand_at(f, place, v + 1).coefficient(v)


def ref_origin_z(curve, n):
    """z = 1/y below t^n at O from the fixed point z = t^3 + a*t*z^2 + b*z^3."""
    a, b = (LaurentSeries.constant(c, n) for c in (curve.a, curve.b))
    t = LaurentSeries.var(curve.spec, n)
    t3 = t * t * t
    z = t3
    for _ in range(n + 2):
        nz = (t3 + a * t * z * z + b * z * z * z).truncate(n)
        done = nz.coeffs == z.coeffs and nz.start == z.start
        z = nz
        if done:
            return z
    raise AssertionError("origin expansion did not converge")


def ref_two_torsion_x(curve, place, prec):
    """x(t) below t^prec at an affine place with y0 = 0, in t = y: Newton on
    rhs(x) = t^2 at the full working precision prec + 8 until it is exact."""
    field = place.data[1]
    x0 = place.representative()[0]
    rhs = curve.rhs_poly(field)
    work = prec + 8
    t = LaurentSeries.var(field, work)
    t2 = t * t
    drhs = rhs.derivative()
    x = LaurentSeries.constant(x0, work)
    for _ in range(work):
        fx = LaurentSeries.from_polynomial(rhs, work, var=x) - t2
        if fx.is_zero_to_precision():
            break
        dfx = LaurentSeries.from_polynomial(drhs, work, var=x)
        x = x - fx * dfx.inverse()
        x = x.truncate(work)
    return x.truncate(prec)


# ---------------------------------------------------------------------------
# random functions and places


def _poly(data, spec, deg, top=()):
    n = data.draw(st.integers(0, deg + 1 - len(top)))
    low = data.draw(st.lists(st.integers(0, spec.p - 1), min_size=n, max_size=n))
    return Polynomial.from_ints(spec, low + list(top))


def _function(data, curve):
    """A random (A + B*y)/C, times (x - c)^j so that A, B and C often share
    a root with a place, 2-torsion points included."""
    spec = curve.spec
    a, c = _poly(data, spec, 4), _poly(data, spec, 3, top=[1])
    b = _poly(data, spec, 2) if curve.kind == "elliptic" else None
    if not a and not b:
        a = Polynomial.one(spec)
    f = FunctionFieldElement(curve, a, b * c if b else None, c)
    x = FunctionFieldElement.x_function(curve)
    j = data.draw(st.integers(-2, 3))
    return f * (x - data.draw(st.integers(0, spec.p - 1))) ** j


def _p1_places(data, curve):
    """Infinity and one finite place of each degree 1..3: the first monic
    irreducible at or after a drawn encoding."""
    p = curve.spec.p
    places = [Place.infinity(curve)]
    for d in (1, 2, 3):
        start = data.draw(st.integers(0, p**d - 1))
        for n in range(p**d):
            e = (start + n) % p**d
            g = Polynomial.from_ints(curve.spec, [e // p**i % p for i in range(d)] + [1])
            if g.is_irreducible():
                places.append(Place.finite(curve, g))
                break
    return places


def _ec_places(data, curve):
    """O, the places with y0 = 0 of degree <= 3 and one affine place of each
    degree 1..3 with y0 != 0 where there is one."""
    spec = curve.spec
    places = [Place.origin(curve)]
    for g, _ in factor_polynomial(curve.rhs_poly())[1]:
        if g.degree <= 3:
            places += _places_above_x_factor(curve, g, 6)
    for d in (1, 2, 3):
        field = canonical_field(spec.p, d)
        rhs = curve.rhs_poly(field)
        start = data.draw(st.integers(0, field.order - 1))
        for n in range(field.order):
            x0 = field.from_encoding((start + n) % field.order)
            y0 = field_sqrt(rhs.evaluate(x0))
            if y0 and len(frobenius_orbit((x0, y0))) == d:
                places.append(Place.affine_orbit(curve, x0, y0 if n % 2 else -y0))
                break
    return places


def _curve(data):
    if data.draw(st.booleans()):
        return CurveModel.projective_line(prime_field(data.draw(st.sampled_from([2, 3, 5, 7]))))
    spec = prime_field(data.draw(st.sampled_from([5, 7, 11])))
    a, b = data.draw(st.integers(0, spec.p - 1)), data.draw(st.integers(0, spec.p - 1))
    for d in range(spec.p):  # the first nonsingular b + d
        try:
            return CurveModel.elliptic(spec, a, b + d)
        except DomainError:
            continue


def _support(f):
    try:
        return [v for v, _ in principal_divisor(f, 6).items()]
    except DomainError:  # a place of degree above 6
        return []


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_leading_term_matches_series_reference(data):
    curve = _curve(data)
    places = _p1_places(data, curve) if curve.kind == "p1" else _ec_places(data, curve)
    f = _function(data, curve)
    for place in places + _support(f):
        v, u = leading_term(f, place)
        assert v == ref_valuation(f, place), (f, place)
        assert u == ref_leading_value(f, place), (f, place)
        assert valuation(f, place) == v


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tame_symbol_matches_unit_formula(data):
    curve = _curve(data)
    places = _p1_places(data, curve) if curve.kind == "p1" else _ec_places(data, curve)
    f, g = _function(data, curve), _function(data, curve)
    e = data.draw(st.sampled_from([1, 2, -1]))
    for place in places + _support(f) + _support(g):
        vf, vg = ref_valuation(f, place), ref_valuation(g, place)
        want = place.residue_field().one()
        if vf or vg:
            want = ref_leading_value(f**vg / g**vf, place)
            if (vf * vg) % 2:
                want = -want
        assert tame_symbol(MilnorSymbol.pair(f, g, e), place) == want**e, (f, g, place)


def test_leading_term_parameter_is_pi_at_higher_degree_places():
    F7 = prime_field(7)
    curve = CurveModel.projective_line(F7)
    pi = Polynomial.from_ints(F7, [1, 0, 1])
    place = Place.finite(curve, pi)
    f = FunctionFieldElement(curve, pi * Polynomial.from_ints(F7, [3, 1]))
    field = place.residue_field()
    assert leading_term(f, place) == (1, field.element([3, 1]))
    # expand_at's parameter t - theta differs from pi = (t - theta)(t + theta)
    assert expand_at(f, place, 2).coefficient(1) == field.element([5, 6])


@pytest.mark.parametrize("p, a, b", [(3, 1, 1), (3, 2, 0), (5, 1, 1), (7, 3, 2), (11, 2, 7), (13, 0, 5), (10007, 17, 3)])
def test_origin_expansion_matches_fixed_point(p, a, b):
    curve = CurveModel.elliptic(prime_field(p), a, b)
    spec, origin = curve.spec, Place.origin(curve)
    # the origin rows in t = x/y: z - t^3 - a*t*z^2 - b*z^3, z = 1/y
    rows = [Polynomial.from_ints(spec, c) for c in ([0, 0, 0, -1], [1], [0, -a], [-b])]
    for n in chain(range(1, 70), (97, 200)):
        m = min(7, n)
        z, want = _newton_root(rows, LaurentSeries.var(spec, m, 3), m, n), ref_origin_z(curve, n)
        assert (z.start, z.coeffs, z.prec) == (want.start, want.coeffs, want.prec), n
        if n < 5:  # z = O(t^n) has no inverse
            continue
        # the expansions of x = t/z and y = 1/z below n - 8, from z below n
        x, y = _ec_expansions.__wrapped__(curve, origin, n - 8)
        ry = want.inverse()
        rx = LaurentSeries.var(spec, n) * ry
        for got, ref in ((x, rx.truncate(n - 8)), (y, ry.truncate(n - 8))):
            assert (got.start, got.coeffs, got.prec) == (ref.start, ref.coeffs, ref.prec), n


def _expansion_places():
    """O, a rational and a degree-2 place with y0 != 0 on y^2 = x^3 - x over
    GF(5) and y^2 = x^3 + x over GF(3), and their places with y0 = 0 (one of
    degree 2 on the second)."""
    out = []
    for curve in (CurveModel.elliptic(prime_field(5), -1, 0), CurveModel.elliptic(prime_field(3), 1, 0)):
        out.append((curve, Place.origin(curve)))
        for g, _ in factor_polynomial(curve.rhs_poly())[1]:
            out += [(curve, place) for place in _places_above_x_factor(curve, g, 2)]
        for d in (1, 2):
            field = canonical_field(curve.spec.p, d)
            rhs = curve.rhs_poly(field)
            x0, y0 = next(
                (x0, y0)
                for x0 in field.elements()
                for y0 in [field_sqrt(rhs.evaluate(x0))]
                if y0 and len(frobenius_orbit((x0, y0))) == d
            )
            out.append((curve, Place.affine_orbit(curve, x0, y0)))
    return out


def test_ec_expansions_lie_on_the_curve():
    places = _expansion_places()
    kinds = {(v.kind, v.residue_degree, v.kind == "ec-affine" and bool(v.representative()[1])) for _, v in places}
    assert kinds == {
        ("ec-origin", 1, False), ("ec-affine", 1, True), ("ec-affine", 2, True),
        ("ec-affine", 1, False), ("ec-affine", 2, False),
    }
    for curve, place in places:
        for prec in (1, 2, 5, 13, 40):
            x, y = _ec_expansions.__wrapped__(curve, place, prec)
            diff = y * y - LaurentSeries.from_polynomial(curve.rhs_poly(x.spec), prec, var=x)
            # at O, x has the pole t^-2, and rhs(x) by Horner from its top
            # coefficient is known below t^(prec - 6): one pole per power of x
            assert diff.is_zero_to_precision(), (place, prec)
            assert diff.prec >= prec - (6 if place.kind == "ec-origin" else 0), (place, prec)


def test_expand_at_raises_domain_error_when_precision_does_not_stabilize(monkeypatch):
    real = curves._ec_expansions

    def truncated(curve, place, prec):
        return tuple(s.truncate(2) for s in real(curve, place, prec))

    monkeypatch.setattr(curves, "_ec_expansions", truncated)
    curve = CurveModel.elliptic(prime_field(5), 1, 1)
    with pytest.raises(DomainError, match="series precision did not stabilize"):
        expand_at(FunctionFieldElement.x_function(curve), Place.origin(curve), 5)


def _one_attempt_places():
    """_expansion_places' elliptic places, and infinity and finite places of
    degree 1 and 2 on P^1 over GF(3) and GF(5)."""
    out = _expansion_places()
    for p, irr in ((3, [1, 0, 1]), (5, [2, 0, 1])):
        curve = CurveModel.projective_line(prime_field(p))
        out.append((curve, Place.infinity(curve)))
        for g in ([1, 1], irr):
            out.append((curve, Place.finite(curve, Polynomial.from_ints(curve.spec, g))))
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_expand_at_reaches_its_precision_in_one_attempt(data):
    """f * u^k, u the place's uniformizer, expands to exactly the precision
    asked for, with the function's valuation, at every place kind: the one
    working precision of expand_at is enough."""
    curve, place = data.draw(st.sampled_from(_one_attempt_places()))
    k = data.draw(st.integers(-12, 12))
    g = _function(data, curve) * uniformizer(place) ** k
    v = valuation(g, place)
    for prec in range(-3, 21):
        ser = expand_at(g, place, prec)
        assert ser.prec == prec, (g, place, prec)
        if v < prec:
            assert ser.valuation() == v, (g, place, prec)


def test_pairing_and_reciprocity_checks_read_no_series(monkeypatch):
    def no_series(*args):
        raise AssertionError("a leading value read a Laurent series")

    monkeypatch.setattr(curves, "expand_at", no_series)
    monkeypatch.setattr(curves, "_ec_expansions", no_series)
    monkeypatch.setattr(milnor, "expand_at", no_series)
    for check in (selfcheck.check_weil_pairing, selfcheck.check_massey, selfcheck.check_weil_reciprocity):
        ok, msg = check()
        assert ok, msg


def test_two_torsion_expansion_matches_full_precision_loop():
    F5, F3 = prime_field(5), prime_field(3)
    e5 = CurveModel.elliptic(F5, -1, 0)  # x^3 - x = x(x - 1)(x + 1)
    e3 = CurveModel.elliptic(F3, 1, 0)  # x^3 + x = x(x^2 + 1)
    places = [Place.affine_orbit(e5, F5.element(x0), F5.zero()) for x0 in (0, 1, 4)]
    (deg2,) = _places_above_x_factor(e3, Polynomial.from_ints(F3, [1, 0, 1]), 2)
    assert deg2.residue_degree == 2
    for curve, place in [(e5, pl) for pl in places] + [(e3, deg2)]:
        field = place.data[1]
        # the loop stops only once x is exact below prec + 8, so its output
        # at any prec <= 200 is its output at 200 truncated
        full = ref_two_torsion_x(curve, place, 200)
        for prec in range(1, 201):
            x, y = _ec_expansions.__wrapped__(curve, place, prec)
            want = ref_two_torsion_x(curve, place, prec) if prec in (1, 2, 3, 9, 64) else full.truncate(prec)
            assert (x.start, x.coeffs, x.prec) == (want.start, want.coeffs, want.prec), (place, prec)
            t = LaurentSeries.var(field, prec)
            assert (y.start, y.coeffs, y.prec) == (t.start, t.coeffs, t.prec), (place, prec)


# ---------------------------------------------------------------------------
# leading_term at affine places against the strip-first routine it ran
# before it evaluated the triple at the point, copied here as the oracle


def _strip_ref(poly, factor):
    m = 0
    q, r = divmod(poly, factor)
    while not r:
        poly, m = q, m + 1
        q, r = divmod(poly, factor)
    return m, poly, r


def ref_leading_term_affine(f, place):
    """(v, u, branches): leading_term at an ec-affine place by stripping
    x - x0 from A, B and C first, and the set of branches taken."""
    x0, y0 = place.representative()
    field = x0.spec
    lin = Polynomial.from_elements(field, [-x0, field.one()])
    a, b, c = (g.lift_to(field) for g in f.abc)
    mc, _, rc = _strip_ref(c, lin)
    rc = rc.constant_term()
    branches = {"deg%d" % field.k} | ({"c-zero"} if mc else set())
    sa, sb = (_strip_ref(g, lin) if g else None for g in (a, b))
    if sa and sb and sa[0] and sb[0]:
        branches.add("a-b-zero")
    a_leads = sb is None or (sa is not None and sa[0] <= sb[0])
    if not y0:
        m, _, r = sa if a_leads else sb
        d = 3 * x0 * x0 + f.curve.a.val[0]
        return 2 * (m - mc) + (not a_leads), r.constant_term() * d ** (mc - m) / rc, branches | {"y0-zero"}
    if a_leads and (sb is None or sa[0] < sb[0]):
        return sa[0] - mc, sa[2].constant_term() / rc, branches
    if not a_leads:
        return sb[0] - mc, sb[2].constant_term() * y0 / rc, branches
    (m, a1, ra), (_, b1, rb) = sa, sb
    ra, rb = ra.constant_term(), rb.constant_term()
    if ra + rb * y0:
        return m - mc, (ra + rb * y0) / rc, branches
    if not m:
        branches.add("norm")
    mn, _, rn = _strip_ref(a1 * a1 - b1 * b1 * f.curve.rhs_poly(field), lin)
    return m + mn - mc, rn.constant_term() / ((ra - rb * y0) * rc), branches


def _y_as_poly_in_x(place):
    """q over GF(p) of degree < d with q(x0) = y0, when x0 generates the
    residue field GF(p^d) of the place; None when it does not."""
    x0, y0 = place.representative()
    field = x0.spec
    if len(frobenius_orbit((x0,))) != field.k:
        return None
    cols = [field.one()]
    for _ in range(field.k - 1):
        cols.append(cols[-1] * x0)
    rows = [[c.val[i] for c in cols + [-y0]] for i in range(field.k)]
    (v,) = kernel_basis(rows, field.p)
    inv = pow(v[-1], -1, field.p)
    return Polynomial.from_ints(place.curve.spec, [c * inv for c in v[:-1]])


def _affine_branch_functions(curve, place, poly):
    """Functions (A + B*y)/C aimed at each branch at ``place``, with
    ``poly(deg)`` drawing a polynomial of degree <= deg over GF(p):
    A and B both vanishing at x0, A + B*y vanishing while A(x0) and B(x0)
    do not (over C or over the minimal polynomial m of x0, which vanishes
    at x0), and C vanishing to a higher order."""
    m = curves.x_minimal_poly(place)
    q = _y_as_poly_in_x(place)
    one = Polynomial.one(curve.spec)
    b = poly(2)
    if not b % m:
        b = b + one
    c = poly(2) * Polynomial.x(curve.spec) + one
    triples = [
        (m * poly(2), m * poly(1), c),
        (m * m * poly(1), m * b, m),
        (m * poly(2) + one, m * b, m * m),
    ]
    if q is not None:
        a = m * poly(2) - b * q  # A + B*y vanishes at the point, A(x0) = -B(x0)*y0
        triples += [(a, b, c), (a, b, m), (a * m, b * m, m * c)]
    out = []
    for a, b, c in triples:
        if a or b:
            out.append(FunctionFieldElement(curve, a, b, c))
    return out


def _affine_places(data, curve):
    return [v for v in _ec_places(data, curve) if v.kind == "ec-affine"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_leading_term_at_affine_places_matches_strip_first(data):
    spec = prime_field(data.draw(st.sampled_from([5, 7, 11])))
    a, b = data.draw(st.integers(0, spec.p - 1)), data.draw(st.integers(0, spec.p - 1))
    assume((4 * a**3 + 27 * b * b) % spec.p)
    curve = CurveModel.elliptic(spec, a, b)
    for place in _affine_places(data, curve):
        fs = _affine_branch_functions(curve, place, lambda deg: _poly(data, spec, deg))
        fs.append(_function(data, curve))
        for f in fs:
            v, u, _ = ref_leading_term_affine(f, place)
            assert leading_term(f, place) == (v, u), (f, place)


def test_affine_branch_functions_reach_every_branch():
    """The generators above reach each branch of the oracle, and there
    leading_term agrees with it."""
    rng = Random(20)
    seen = set()
    for p, a, b in ((5, 1, 1), (7, 3, 2), (11, 2, 7), (5, 4, 0), (7, 0, 2)):
        curve = CurveModel.elliptic(prime_field(p), a, b)
        spec = curve.spec
        places = []
        for g, _ in factor_polynomial(curve.rhs_poly())[1]:
            places += _places_above_x_factor(curve, g, 6)
        for d in (1, 2, 3):
            field = canonical_field(p, d)
            rhs = curve.rhs_poly(field)
            for n in range(field.order):
                x0 = field.from_encoding(n)
                y0 = field_sqrt(rhs.evaluate(x0))
                if y0 and len(frobenius_orbit((x0,))) == d:
                    places.append(Place.affine_orbit(curve, x0, y0))
                    break
        for place in places:
            for _ in range(4):
                poly = lambda deg: Polynomial.from_ints(spec, [rng.randrange(p) for _ in range(deg + 1)])
                for f in _affine_branch_functions(curve, place, poly):
                    v, u, branches = ref_leading_term_affine(f, place)
                    assert leading_term(f, place) == (v, u), (f, place)
                    seen |= branches
                    if "c-zero" in branches and v == 0:
                        seen.add("c-zero-unit")
    assert seen >= {"deg1", "deg2", "deg3", "c-zero-unit", "a-b-zero", "norm", "y0-zero"}, seen


# ---------------------------------------------------------------------------
# the int exit at rational affine points


@pytest.mark.parametrize("p, a, b", [(5, 4, 0), (11, 3, 1)])
def test_leading_term_at_rational_points_matches_element_path(p, a, b):
    """At every rational affine place, y0 = 0 included, leading_term equals
    (A(x0) + B(x0)*y0)/C(x0) in FieldElement arithmetic where both values
    are nonzero, and the leading coefficient of expand_at elsewhere, for
    random functions and for functions aimed at each stripping branch."""
    curve = CurveModel.elliptic(prime_field(p), a, b)
    spec = curve.spec
    rng = Random(p)
    places = [Place.rational_point(curve, P) for P in curves.rational_points(curve)[1:]]
    assert {bool(v.representative()[1]) for v in places} == {False, True}
    poly = lambda deg: Polynomial.from_ints(spec, [rng.randrange(p) for _ in range(deg + 1)])
    x = FunctionFieldElement.x_function(curve)
    exits = strips = 0
    for place in places:
        x0, y0 = place.representative()
        fs = _affine_branch_functions(curve, place, poly)
        for _ in range(8):
            c = poly(2) * Polynomial.x(spec) + Polynomial.one(spec)
            f = FunctionFieldElement(curve, poly(3), poly(2), c)
            if f:
                fs.append(f * (x - x0) ** rng.randrange(-1, 2))
        for f in fs:
            v, u = leading_term(f, place)
            A, B, C = f.abc
            c0, n0 = C.evaluate(x0), A.evaluate(x0) + B.evaluate(x0) * y0
            if c0 and n0:
                exits += 1
                assert (v, u) == (0, n0 / c0), (f, place)
            else:
                strips += 1
                ser = expand_at(f, place, v + 1)
                assert (ser.valuation(), ser.coefficient(v)) == (v, u), (f, place)
    assert exits and strips
