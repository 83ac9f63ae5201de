import copy
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adele_forge import adelic, curves, signs
from adele_forge.adelic import (
    AdeleCochain,
    adelic_differential,
    cochain_product,
    cohomology_dims,
    divisor_cocycle,
    nu_curve,
    uniformizer,
)
from adele_forge.curves import (
    CurveModel,
    Divisor,
    FunctionFieldElement,
    Place,
    principal_divisor,
    expand_at,
    rational_points,
    riemann_roch_dimension,
    riemann_roch_space,
    valuation,
)
from adele_forge.cli import run_config
from adele_forge.curves import _places_above_x_factor
from adele_forge.errors import DomainError
from adele_forge.fields import DEFAULT_EXT_BOUND, Polynomial, prime_field
from adele_forge.linalg import rref
from adele_forge.milnor import MilnorSymbol, gersten_boundary, tame_symbol
from adele_forge.series import LaurentSeries
from adele_forge.selfcheck import random_elliptic_function, random_p1_function

F5 = prime_field(5)
F7 = prime_field(7)
P15 = CurveModel.projective_line(F5)
P17 = CurveModel.projective_line(F7)


def t_of(curve):
    return FunctionFieldElement(curve, Polynomial.x(curve.spec))


def test_differential_examples():
    t = t_of(P15)
    zero = FunctionFieldElement.zero(P15)
    one = FunctionFieldElement.one(P15)
    v_t = Place.finite(P15, Polynomial.x(F5))
    D0 = Divisor(P15)

    d = adelic_differential(AdeleCochain(P15, 0, ("coh", D0), global_part=t, tail=t))
    assert not d.tail and not d.exceptions

    d = adelic_differential(
        AdeleCochain(P15, 0, ("coh", Divisor(P15, {v_t: 1})), global_part=one / t, tail=zero)
    )
    assert d.tail == -(one / t) and not d.exceptions

    d = adelic_differential(
        AdeleCochain(P15, 0, ("coh", D0), global_part=zero, tail=zero, exceptions={v_t: one})
    )
    assert not d.tail and d.exceptions == {v_t: one}


def test_differential_additive_and_dd_zero():
    rng = Random(31)
    v_t = Place.finite(P15, Polynomial.x(F5))
    D = Divisor(P15, {v_t: 2, Place.infinity(P15): 3})
    t = t_of(P15)
    for _ in range(5):
        f1 = FunctionFieldElement.constant(P15, rng.randrange(5)) * t
        f2 = FunctionFieldElement.constant(P15, rng.randrange(5)) / t
        a = AdeleCochain(P15, 0, ("coh", D), global_part=f1, tail=f2)
        b = AdeleCochain(P15, 0, ("coh", D), global_part=f2, tail=f1, exceptions={v_t: f2})
        ab = AdeleCochain(
            P15, 0, ("coh", D),
            global_part=f1 + f2,
            tail=f2 + f1,
            exceptions={v_t: a.local_component(v_t) + b.local_component(v_t)},
        )
        da, db, dab = (adelic_differential(x) for x in (a, b, ab))
        assert dab.tail == da.tail + db.tail
        assert dab.local_component(v_t) == da.local_component(v_t) + db.local_component(v_t)
        # the next differential on a curve is the zero map, so d(d(c)) = 0
        # holds by the shape of the complex; the degree bound enforces it:
        assert da.degree == 1


def test_cohomology_examples():
    rep = cohomology_dims(P15, Divisor(P15, {Place.infinity(P15): 3}))
    assert (rep.h0, rep.h1) == (4, 0)
    v_t = Place.finite(P15, Polynomial.x(F5))
    rep = cohomology_dims(P15, Divisor(P15, {v_t: -2}))
    assert (rep.h0, rep.h1) == (0, 1)
    E = CurveModel.elliptic(F5, 1, 1)
    rep = cohomology_dims(E, Divisor(E))
    assert (rep.h0, rep.h1) == (1, 1)


def test_cohomology_riemann_roch_and_duality():
    for curve in (P15, CurveModel.elliptic(F5, 1, 1)):
        if curve.kind == "p1":
            K = Divisor(curve, {Place.infinity(curve): -2})
            base = Place.infinity(curve)
        else:
            K = Divisor(curve)
            base = Place.origin(curve)
        for n in range(-4, 5):
            D = Divisor(curve, {base: n})
            rep = cohomology_dims(curve, D)
            assert rep.h0 - rep.h1 == D.degree + 1 - curve.genus
            assert rep.h1 == len(riemann_roch_space(K - D))


def test_cohomology_stabilization_and_invariance():
    rng = Random(32)
    v_t = Place.finite(P15, Polynomial.x(F5))
    D = Divisor(P15, {v_t: 1})
    rep = cohomology_dims(P15, D)
    t = t_of(P15)
    for _ in range(4):
        c = rng.randrange(1, 5)
        f = (t - c) / t
        rep2 = cohomology_dims(P15, D + principal_divisor(f))
        assert (rep2.h0, rep2.h1) == (rep.h0, rep.h1)


def test_divisor_cocycle_examples():
    v_t = Place.finite(P15, Polynomial.x(F5))
    c = divisor_cocycle(Divisor.of_place(v_t))
    t = t_of(P15)
    assert c.tail == FunctionFieldElement.one(P15)
    assert c.exceptions == {v_t: t ** -1}
    c0 = divisor_cocycle(Divisor(P15))
    assert not c0.exceptions
    v_t1 = Place.finite(P15, Polynomial.from_ints(F5, [4, 1]))
    c2 = divisor_cocycle(Divisor(P15, {v_t: 1, v_t1: -1}))
    assert c2.exceptions == {v_t: t ** -1, v_t1: t - 1}


def test_nu_examples():
    v_t = Place.finite(P15, Polynomial.x(F5))
    assert nu_curve(divisor_cocycle(Divisor.of_place(v_t))).payload == {v_t: 1}
    c = AdeleCochain(P15, 1, ("k", 1), tail=t_of(P15))
    assert nu_curve(c).payload == {v_t: -1, Place.infinity(P15): 1}
    one = FunctionFieldElement.one(P15)
    c2 = AdeleCochain(P15, 1, ("k", 1), tail=one, exceptions={v_t: one + one})
    assert nu_curve(c2).payload == {}


def test_nu_of_cocycle_is_divisor_randomized():
    rng = Random(33)
    E = CurveModel.elliptic(F5, -1, 0)
    pts = rational_points(E)
    for curve in (P15, E):
        for _ in range(5):
            if curve.kind == "p1":
                places = [
                    Place.infinity(curve),
                    Place.finite(curve, Polynomial.x(F5)),
                    Place.finite(curve, Polynomial.from_ints(F5, [1, 1])),
                ]
            else:
                places = [Place.origin(curve)] + [
                    Place.rational_point(curve, P) for P in pts[1:3]
                ]
            D = Divisor(curve, {v: rng.randrange(-2, 3) for v in places})
            assert nu_curve(divisor_cocycle(D)).payload == dict(D.items())


@st.composite
def _k_cochains(draw):
    """A degree-1 K1 or K2 cochain with no exceptions, on P^1 or on a
    nonsingular y^2 = x^3 + a x + b, over GF(p) for p in {5, 7, 11, 13}."""
    spec = prime_field(draw(st.sampled_from([5, 7, 11, 13])))
    if draw(st.booleans()):
        curve, draw_fn = CurveModel.projective_line(spec), random_p1_function
    else:
        a, b = draw(st.integers(0, spec.p - 1)), draw(st.integers(0, spec.p - 1))
        assume((4 * a**3 + 27 * b * b) % spec.p)
        curve, draw_fn = CurveModel.elliptic(spec, a, b), random_elliptic_function
    rng = Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        return AdeleCochain(curve, 1, ("k", 1), tail=draw_fn(curve, rng))
    return AdeleCochain(curve, 1, ("k", 2), tail=MilnorSymbol.pair(draw_fn(curve, rng), draw_fn(curve, rng)))


@settings(deadline=None, max_examples=40)
@given(_k_cochains())
def test_nu_is_the_boundary_of_the_tail(c):
    # nu(c) = d(tail)^(-1) at weight 1 and d(tail)^NU_WEIGHT2_EXPONENT at
    # weight 2, written additively at weight 1; a draw with a place above
    # the extension bound is skipped
    try:
        boundary = gersten_boundary(c.tail)
    except DomainError as exc:
        assert "exceeds the extension bound" in str(exc)
        assume(False)
    if c.weight == ("k", 1):
        expected = {v: -m for v, m in boundary.payload.items()}
    else:
        expected = {v: x**signs.NU_WEIGHT2_EXPONENT for v, x in boundary.payload.items()}
    assert nu_curve(c).payload == expected


def test_product_example():
    t7 = t_of(P17)
    two = FunctionFieldElement.constant(P17, 2)
    unit = AdeleCochain(P17, 0, ("k", 1), global_part=two, tail=two)
    v_t1 = Place.finite(P17, Polynomial.from_ints(F7, [6, 1]))
    prod = cochain_product(unit, divisor_cocycle(Divisor.of_place(v_t1)))
    assert prod.degree == 1 and prod.weight == ("k", 2)
    sym = prod.local_component(v_t1)
    assert tame_symbol(sym, v_t1) == F7.element(4)
    assert nu_curve(prod).payload == {v_t1: F7.element(4)}


def test_product_unit_tail():
    # anything times the trivial cocycle lifts the weight with unit entries
    t7 = t_of(P17)
    c = AdeleCochain(P17, 1, ("k", 1), tail=FunctionFieldElement.one(P17))
    unit = AdeleCochain(P17, 0, ("k", 1), global_part=t7, tail=t7)
    prod = cochain_product(unit, c)
    assert nu_curve(prod).payload == {}


def test_adele_cochain_equality():
    t = t_of(P15)
    v_t = Place.finite(P15, Polynomial.x(F5))

    def build():
        return AdeleCochain(P15, 0, ("k", 1), global_part=t, tail=t + 1, exceptions={v_t: t * t})

    c = build()
    assert c == build()
    changes = {
        "curve": CurveModel.elliptic(F5, -1, 0),
        "degree": 1,
        "weight": ("k", 2),
        "global_part": t + 2,
        "tail": t,
        "exceptions": {v_t: t * t + 1},
    }
    for name, value in changes.items():
        other = copy.copy(c)
        setattr(other, name, value)
        assert other != c and c != other, name


def test_degree_overflow():
    c = AdeleCochain(P15, 1, ("k", 1), tail=FunctionFieldElement.one(P15))
    with pytest.raises(DomainError):
        cochain_product(c, c)


def test_leibniz_twist_randomized():
    rng = Random(34)
    v_t = Place.finite(P15, Polynomial.x(F5))
    for _ in range(6):
        u_val = F5.element(rng.randrange(1, 5))
        u = FunctionFieldElement.constant(P15, u_val)
        uc = AdeleCochain(P15, 0, ("k", 1), global_part=u, tail=u)
        c = divisor_cocycle(Divisor(P15, {v_t: rng.randrange(1, 4)}))
        n1 = nu_curve(c).payload
        n2 = nu_curve(cochain_product(uc, c)).payload
        for place, m in n1.items():
            expect = (u_val ** (-m)) ** signs.NU_WEIGHT2_EXPONENT
            assert n2.get(place, F5.one()) == expect


def test_stabilization_beyond_bound():
    # enlarging the auxiliary bound beyond the stabilization point never
    # changes (h0, h1)
    from adele_forge.adelic import _h1_estimate

    E = CurveModel.elliptic(F5, 1, 1)
    v_o = Place.origin(E)
    pts = rational_points(E)
    D = Divisor(E, {Place.rational_point(E, pts[1]): 2, v_o: -1})
    rep = cohomology_dims(E, D)
    for extra in (rep.bound, 2 * rep.bound, 3 * rep.bound):
        assert _h1_estimate(E, D, v_o, extra, rep.h0, 6) == rep.h1


def test_uniformizer_has_valuation_one_at_every_place_kind():
    # the places of x^3 - 5, x^2 + 3, x^3 + 5 and y on y^2 = x^3 + 2, and of
    # y on y^2 = x^3 + x, over GF(7); then P^1 at t - 2, t^2 + 1 and infinity
    E = CurveModel.elliptic(F7, 0, 2)
    x, y = FunctionFieldElement.x_function(E), FunctionFieldElement.y_function(E)
    E1 = CurveModel.elliptic(F7, 1, 0)
    functions = (x**3 - 5, x * x + 3, x**3 + 5, y, FunctionFieldElement.y_function(E1))
    places = {v for f in functions for v, _ in principal_divisor(f).items()}
    places |= {
        Place.finite(P17, Polynomial.from_ints(F7, [5, 1])),
        Place.finite(P17, Polynomial.from_ints(F7, [1, 0, 1])),
        Place.infinity(P17),
    }
    kinds = set()
    for v in places:
        assert valuation(uniformizer(v), v) == 1, v
        if v.kind == "ec-affine":
            kinds.add((v.kind, v.residue_degree, not v.representative()[1]))
        else:
            kinds.add((v.kind, v.residue_degree))
    assert kinds == {
        ("ec-origin", 1),
        *(("ec-affine", d, y0_is_zero) for d in (1, 2, 3) for y0_is_zero in (False, True)),
        ("p1-finite", 1),
        ("p1-finite", 2),
        ("p1-infinity", 1),
    }


def test_uniformizer_raises_domain_error_when_valuation_is_not_one(monkeypatch):
    # x_minimal_poly squared has valuation 2 at an affine place with y0 != 0
    real = adelic.x_minimal_poly
    monkeypatch.setattr(adelic, "x_minimal_poly", lambda place: real(place) ** 2)
    E = CurveModel.elliptic(F7, 0, 2)
    point = next(pt for pt in rational_points(E)[1:] if pt[1])
    with pytest.raises(DomainError, match="uniformizer"):
        uniformizer(Place.rational_point(E, point))


# ---------------------------------------------------------------------------
# h1 from the pivots: the principal-parts map at the base place, its rank
# against the rref of expand_at windows, and its image against L(K - D)*omega


def _support(curve):
    """Places of degree 1 and 2 away from the base place, in an order fixed
    by the curve's equation: on P^1 the x - c and one x^2 - r, on the
    elliptic model the places above every x - c."""
    spec, p = curve.spec, curve.spec.p
    lines = [Polynomial.from_ints(spec, [-c, 1]) for c in range(p)]
    if curve.kind == "p1":
        r = min(set(range(1, p)) - {c * c % p for c in range(p)})
        return [Place.finite(curve, g) for g in lines + [Polynomial.from_ints(spec, [-r, 0, 1])]]
    return [v for g in lines for v in _places_above_x_factor(curve, g, 2)]


def _divisor(curve, spec):
    """The divisor spec = (affine, n) on a given curve object: n times the
    base place plus the multiplicities of ``affine``, (index, m) pairs into
    ``_support(curve)``."""
    affine, n = spec
    support = _support(curve)
    mults = {curve.base_place(): n}
    for i, m in affine:
        v = support[i % len(support)]
        mults[v] = mults.get(v, 0) + m
    return Divisor(curve, mults)


def _model(p, model, a, b):
    spec = prime_field(p)
    if model == "p1":
        return CurveModel.projective_line(spec)
    assume((4 * a**3 + 27 * b * b) % p)
    return CurveModel.elliptic(spec, a, b)


def _h1(curve, D, m):
    v1 = curve.base_place()
    return adelic._h1_estimate(curve, D, v1, m, riemann_roch_dimension(D), DEFAULT_EXT_BOUND)


def _principal_parts(curve, D, m):
    """The matrix of L(E) -> O(E)/O(D) at v1, E = D + m*v1, from expand_at:
    for each basis element of L(E), its coefficients at v1 for the exponents
    -E(v1) .. -D(v1) - 1, as ints."""
    v1 = curve.base_place()
    lo, hi = -D.multiplicity(v1) - m, -D.multiplicity(v1)
    rows = []
    for f in riemann_roch_space(D + Divisor(curve, {v1: m})):
        ser = expand_at(f, v1, hi)
        rows.append([ser.coefficient(e).val[0] for e in range(lo, hi)])
    return rows


def _rank(rows, p):
    return len(rref(rows, p)[1])


def _omega(curve, prec):
    """omega/dt at the base place, known below prec, with t its local
    parameter: omega = dx on P^1 (K = -2*infinity), where x = 1/t, and
    omega = dx/2y on the elliptic model (K = 0)."""
    spec, p = curve.spec, curve.spec.p
    if curve.kind == "p1":
        return LaurentSeries(spec, -2, [p - 1], prec)
    x, y = curves._ec_expansions(curve, curve.base_place(), prec + 8)
    dx = LaurentSeries(spec, x.start - 1, [(x.start + i) * c % p for i, c in enumerate(x.coeffs)], x.prec - 1)
    return (dx * (y + y).inverse()).truncate(prec)


_DIVISORS = st.tuples(st.lists(st.tuples(st.integers(0, 30), st.integers(-2, 2)), max_size=2), st.integers(-6, 6))


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from([5, 7, 11, 13]),
    model=st.sampled_from(["p1", "elliptic"]),
    a=st.integers(0, 12),
    b=st.integers(0, 12),
    spec=st.tuples(st.lists(st.tuples(st.integers(0, 30), st.integers(-2, 2)), max_size=2), st.integers(-8, 1)),
    extra=st.integers(1, 4),
)
def test_principal_parts_image_is_the_annihilator_of_l_k_minus_d(p, model, a, b, spec, extra):
    # Serre duality at the base place v1: f*g*omega, f in L(D + m*v1) and g
    # in L(K - D), has its only pole at v1, so its residue there, the
    # pairing of the window of f with that of g*omega/dt, is 0; and the
    # pairing is perfect, rank R + rank C = m.  A base multiplicity of at
    # most 1 and m past -deg D leave R and C nonzero in most draws.
    curve = _model(p, model, a, b)
    D = _divisor(curve, spec)
    m = max(-D.degree, 0) + extra
    v1 = curve.base_place()
    K = Divisor(curve, {v1: -2} if model == "p1" else {})
    n = D.multiplicity(v1)
    R = _principal_parts(curve, D, m)
    omega = _omega(curve, m + 6)
    C = []
    for g in riemann_roch_space(K - D):
        ser = expand_at(g, v1, n + m + 6) * omega
        C.append([ser.coefficient(-1 - e).val[0] for e in range(-n - m, -n)])
    for r in R:
        for c in C:
            assert sum(x * y for x, y in zip(r, c)) % p == 0, (D, m)
    assert _rank(R, p) + _rank(C, p) == m, (D, m)


@settings(max_examples=15, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7, 11]),
    model=st.sampled_from(["p1", "elliptic"]),
    a=st.integers(0, 10),
    b=st.integers(0, 10),
    spec=_DIVISORS,
)
def test_h1_estimate_is_the_rref_rank_of_the_expand_at_windows(p, model, a, b, spec):
    curve = _model(p, model, a, b)
    D = _divisor(curve, spec)
    for m in (2, 4, 8, 16):
        assert _h1(curve, D, m) == m - _rank(_principal_parts(curve, D, m), p), (D, m)


# two P^1 divisors whose doubling loops once asked a memo for series at
# precisions <= 0
_P1_PREC_AT_MOST_ZERO = dict(p=3, model="p1", a=0, b=0, items=[(([], 0), 0), (([(0, -2)], 2), 0)])


@settings(max_examples=30, deadline=None)
@example(order=Random(0), **_P1_PREC_AT_MOST_ZERO)
@given(
    p=st.sampled_from([3, 5, 7, 11]),
    model=st.sampled_from(["p1", "elliptic"]),
    a=st.integers(0, 10),
    b=st.integers(0, 10),
    items=st.lists(
        st.tuples(
            st.tuples(st.lists(st.tuples(st.integers(0, 30), st.integers(-2, 2)), max_size=2), st.integers(-20, 6)),
            st.sampled_from([0, 2, 4, 8, 16, 32]),
        ),
        min_size=2,
        max_size=5,
    ),
    order=st.randoms(use_true_random=False),
)
def test_shared_base_series_match_a_fresh_curve_in_any_order(p, model, a, b, items, order):
    # one curve object answers every divisor, in a shuffled order, as a
    # fresh curve object per divisor does; the doubling loop of a degree
    # down to -28 runs several rounds
    shared = _model(p, model, a, b)
    calls = [(kind, i) for kind in ("dims", "h1") for i in range(len(items))]
    order.shuffle(calls)
    got = {}
    for kind, i in calls:
        spec, m = items[i]
        if kind == "dims":
            got[kind, i] = cohomology_dims(shared, _divisor(shared, spec))
        else:
            got[kind, i] = _h1(shared, _divisor(shared, spec), m)
    for i, (spec, m) in enumerate(items):
        fresh = _model(p, model, a, b)
        D = _divisor(fresh, spec)
        rep, want = got["dims", i], cohomology_dims(fresh, D)
        assert (rep.h0, rep.h1, rep.bound) == (want.h0, want.h1, want.bound)
        assert rep.h0 - rep.h1 == D.degree + 1 - fresh.genus
        assert got["h1", i] == _h1(_model(p, model, a, b), _divisor(fresh, spec), m)


def test_doubling_loop_reads_the_series_its_first_round_computed(monkeypatch):
    # work, not time: at n*O and n*infinity the rank of every round of the
    # doubling loop is a count of valuations, so no round computes an
    # expansion or a miss of the (x(t), y(t)) cache, where the first round
    # used to compute one series for the rounds after it
    real = curves.expand_at
    calls = []
    monkeypatch.setattr(curves, "expand_at", lambda f, place, prec: calls.append(prec) or real(f, place, prec))
    for n in (-2, 0, 3, 9, 400):
        E = CurveModel.elliptic(F5, 1, 1)
        curves._ec_expansions.cache_clear()
        rep = cohomology_dims(E, Divisor(E, {Place.origin(E): n}))
        assert rep.bound == 8 and rep.h0 - rep.h1 == n
        assert curves._ec_expansions.cache_info().misses == 0, n
        P1 = CurveModel.projective_line(F5)
        rep = cohomology_dims(P1, Divisor(P1, {Place.infinity(P1): n}))
        assert rep.bound == 4 and rep.h0 - rep.h1 == n + 1
        assert calls == [], (n, calls)


def test_rr_table_window_costs_its_top_degree_and_a_few_products(monkeypatch):
    # work, not time: series products and misses of the (x(t), y(t)) cache
    # for rr-table on E over GF(5).  The rank is read off the valuations of
    # the Riemann-Roch basis, so no degree of the window [6, 9] multiplies a
    # series; reading it off rows cost 29 products and one miss
    mul = LaurentSeries.__mul__
    count = [0]

    def counted(self, other):
        count[0] += 1
        return mul(self, other)

    monkeypatch.setattr(LaurentSeries, "__mul__", counted)

    def cost(lo, hi):
        curves._ec_expansions.cache_clear()
        count[0] = 0
        doc = {"task": "rr-table", "field": {"p": 5}, "curve": {"model": "elliptic", "a": 1, "b": 1}}
        assert run_config(dict(doc, degrees=[lo, hi]))["oracle"]["riemann_roch_closed_form"] == "match"
        info = curves._ec_expansions.cache_info()
        return count[0], info.hits + info.misses

    top, window = cost(9, 9), cost(6, 9)
    assert (top, window) == ((0, 0), (0, 0))
    assert window[0] <= top[0] and window[1] <= top[1]
