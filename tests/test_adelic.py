import copy
import gc
from random import Random

import pytest
from hypothesis import assume, given, settings
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
    rational_points,
    riemann_roch_rows,
    valuation,
)
from adele_forge.cli import run_config
from adele_forge.curves import _places_above_x_factor
from adele_forge.errors import DomainError
from adele_forge.fields import Polynomial, prime_field
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
    from adele_forge.curves import riemann_roch_space

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
# the series at the base place, shared by every divisor through the curve memo


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


def _rows(curve, spec, m):
    """riemann_roch_rows of E = D + m*v1 on the window -E(v1) .. -D(v1) - 1
    that ``_h1_estimate`` reads, and one exponent on either side."""
    D = _divisor(curve, spec)
    v1 = curve.base_place()
    n = D.multiplicity(v1)
    return riemann_roch_rows(D + Divisor(curve, {v1: m}), v1, -n - m - 1, -n + 1)


def _model(p, model, a, b):
    spec = prime_field(p)
    if model == "p1":
        return CurveModel.projective_line(spec)
    assume((4 * a**3 + 27 * b * b) % p)
    return CurveModel.elliptic(spec, a, b)


@settings(max_examples=30, deadline=None)
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
    # down to -28 runs several rounds, and a later call may need more
    # precision or higher powers than every earlier one
    shared = _model(p, model, a, b)
    calls = [(kind, i) for kind in ("dims", "rows") for i in range(len(items))]
    order.shuffle(calls)
    got = {}
    for kind, i in calls:
        spec, m = items[i]
        if kind == "dims":
            got[kind, i] = cohomology_dims(shared, _divisor(shared, spec))
        else:
            got[kind, i] = _rows(shared, spec, m)
    for i, (spec, m) in enumerate(items):
        fresh = _model(p, model, a, b)
        D = _divisor(fresh, spec)
        rep, want = got["dims", i], cohomology_dims(fresh, D)
        assert (rep.h0, rep.h1, rep.bound) == (want.h0, want.h1, want.bound)
        assert rep.h0 - rep.h1 == D.degree + 1 - fresh.genus
        assert got["rows", i] == _rows(_model(p, model, a, b), spec, m)


def test_rr_table_window_costs_its_top_degree_and_a_few_products(monkeypatch):
    # work, not time: series products and misses of the (x(t), y(t)) cache
    # for rr-table on E over GF(5).  Each degree of the window [6, 9] below
    # its top adds at most x^i and x^i*y for one new i; rebuilding the
    # monomials per degree and per m cost 120 products here
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
        run_config(dict(doc, degrees=[lo, hi]))
        return count[0], curves._ec_expansions.cache_info().misses

    top, window = cost(9, 9), cost(6, 9)
    assert (top, window) == ((48, 2), (45, 2))
    assert window[0] <= top[0] + 2 * (9 - 6) and window[1] <= top[1]


def test_base_series_memo_refers_to_no_curve_or_place():
    # the memo holds ints and series only, so nothing in it keeps a curve
    # or a place alive; the walk does not enter classes
    E = CurveModel.elliptic(F7, 1, 1)
    P = Place.rational_point(E, rational_points(E)[1])
    v_t = Place.finite(P17, Polynomial.x(F7))
    for D in (Divisor(E, {P: 2, Place.origin(E): -1}), Divisor(P17, {v_t: 2, Place.infinity(P17): -1})):
        cohomology_dims(D.curve, D)
        memo = D.curve._memo.base
        seen, stack, kinds = set(), [memo], set()
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (CurveModel, Place)), obj
            kinds.add(type(obj))
            stack += gc.get_referents(obj)
        assert LaurentSeries in kinds
        assert len(memo) == (2 if D.curve.kind == "elliptic" else 1)
