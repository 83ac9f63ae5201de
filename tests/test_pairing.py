import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adele_forge import curves, pairing, selfcheck, signs, surface
from adele_forge.curves import (
    CurveModel,
    Divisor,
    FunctionFieldElement,
    Place,
    ec_add,
    ec_neg,
    principal_divisor,
    rational_points,
    torsion_points,
)
from adele_forge.curves import _places_above_x_factor
from adele_forge.errors import AuditError, DomainError
from adele_forge.fields import Polynomial, factor_polynomial, norm_to_prime_field, prime_field
from adele_forge.milnor import GerstenCochain, direct_image
from adele_forge.pairing import (
    MillerFunction,
    massey_triple,
    massey_triple_curve,
    miller_function,
    sign_audit,
    weil_pairing_idelic,
    weil_pairing_miller,
)

F5 = prime_field(5)
F7 = prime_field(7)
E2 = CurveModel.elliptic(F5, -1, 0)  # y^2 = x^3 - x: full 2-torsion
E3 = CurveModel.elliptic(F7, 0, 2)  # y^2 = x^3 + 2: full 3-torsion

P00 = (F5.element(0), F5.element(0))
P10 = (F5.element(1), F5.element(0))


def test_miller_function_examples():
    mf = miller_function(E2, P00, 2)
    x = FunctionFieldElement.x_function(E2)
    assert mf.factors == {x: 1}
    assert mf.divisor == Divisor(
        E2, {Place.rational_point(E2, P00): 2, Place.origin(E2): -2}
    )

    assert miller_function(E2, None, 4).factors == {}

    E7 = CurveModel.elliptic(F7, 0, 1)
    mf3 = miller_function(E7, (F7.element(0), F7.element(1)), 3)
    y = FunctionFieldElement.y_function(E7)
    one = FunctionFieldElement.one(E7)
    assert mf3.factors == {y - one: 1}

    with pytest.raises(DomainError):
        miller_function(E2, (F5.element(2), F5.element(1)), 2)  # not 2-torsion


def test_miller_function_divisor_check():
    x = FunctionFieldElement.x_function(E2)
    with pytest.raises(DomainError):
        MillerFunction(E2, {x: 1}, Divisor(E2))  # wrong declared divisor


def test_miller_function_rejects_non_torsion():
    T = (F5.element(2), F5.element(1))  # of order 4
    for P, l in ((T, 2), (P00, 9)):  # 9 * P00: the chain doubles O at 4 * P00
        for R in (None, P10):
            with pytest.raises(DomainError, match="not l-torsion"):
                miller_function(E2, P, l, R)


def test_miller_chain_through_O():
    # l = 4 on 2-torsion: 2P = O, and the last doubling step squares f_2
    x = FunctionFieldElement.x_function(E2)
    assert miller_function(E2, P00, 4).factors == {x: 2}
    pts = rational_points(E2)  # E(GF(5)) = Z/2 x Z/4 lies in E[4]
    for P in pts:
        for Q in pts:
            a = weil_pairing_idelic(E2, P, Q, 4)
            assert a.value == weil_pairing_miller(E2, P, Q, 4).value
            if P in torsion_points(E2, 2) and Q in torsion_points(E2, 2):
                assert a.value == F5.one()  # e_4(P, Q) = e_2(P, 2Q)


def _counting_computations(monkeypatch):
    """The (f, ext_bound) of every principal divisor computed from here on,
    memo hits left out."""
    computed = []
    compute = curves._principal_divisor

    def counting(f, ext_bound):
        computed.append((f, ext_bound))
        return compute(f, ext_bound)

    monkeypatch.setattr(curves, "_principal_divisor", counting)
    return computed


def test_shared_divisor_memo_keeps_the_check(monkeypatch):
    curve = CurveModel.elliptic(F5, -1, 0)
    fresh = CurveModel.elliptic(F5, -1, 0)
    R = (F5.element(2), F5.element(1))
    mf = miller_function(curve, P00, 2, R)
    for f in mf.factors:
        assert principal_divisor(f) == principal_divisor(FunctionFieldElement._raw(fresh, *f.abc))
    computed = _counting_computations(monkeypatch)
    # every factor is memoized: the sum is still compared with the declaration
    MillerFunction(curve, mf.factors, mf.divisor)
    with pytest.raises(DomainError):
        MillerFunction(curve, mf.factors, Divisor(curve))
    with pytest.raises(DomainError):
        MillerFunction(curve, mf.factors, mf.divisor * 2)
    assert computed == []


def test_weil_check_computes_each_miller_divisor_once(monkeypatch):
    calls = []

    def calling(f, *args):
        calls.append(f)
        return principal_divisor(f, *args)

    monkeypatch.setattr(pairing, "principal_divisor", calling)
    computed = _counting_computations(monkeypatch)
    assert selfcheck.check_weil_pairing()[0]
    assert len(calls) == 403
    assert len(computed) == 29
    assert len(set(computed)) == len(computed)
    computed.clear()
    assert selfcheck.check_massey()[0]
    assert computed and len(set(computed)) == len(computed)


PAIRING_FIXTURES = [(E2, 2, torsion_points(E2, 2)), (E3, 3, torsion_points(E3, 3))]


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_weil_pairing_laws(data):
    curve, l, tor = data.draw(st.sampled_from(PAIRING_FIXTURES))
    P1, P2, Q1, Q2 = (data.draw(st.sampled_from(tor)) for _ in range(4))
    values = {}

    def e(P, Q):
        if (P, Q) not in values:
            warm = weil_pairing_idelic(curve, P, Q, l).value
            fresh = CurveModel.elliptic(curve.spec, curve.a, curve.b)
            assert warm == weil_pairing_idelic(fresh, P, Q, l).value
            assert warm == weil_pairing_miller(curve, P, Q, l).value
            values[P, Q] = warm
        return values[P, Q]

    assert e(ec_add(curve, P1, P2), Q1) == e(P1, Q1) * e(P2, Q1)
    assert e(P1, ec_add(curve, Q1, Q2)) == e(P1, Q1) * e(P1, Q2)
    assert e(P1, Q1) * e(Q1, P1) == curve.spec.one()


def _norm_product(mf, D):
    """prod over the places of D of N(k(v)/k)(value of mf at v)^D(v): the
    chain evaluated at a divisor, as a reference for the Massey image."""
    result = mf.curve.spec.one()
    for v, m in D.items():
        result = result * norm_to_prime_field(mf.value_at_place(v)) ** m
    return result


def _idelic_reference(curve, P, Q, l):
    """f(D_Q)/g(D_P) with div f = l*D_P and div g = l*D_Q, on the first
    disjoint-support representatives."""
    if P is None or Q is None:
        return curve.spec.one()
    R, S = next(pairing._disjoint_offsets(curve, P, Q))
    f = miller_function(curve, P, l, R)
    g = miller_function(curve, Q, l, S)
    D_P = pairing._scale_div(f.divisor, l)
    D_Q = pairing._scale_div(g.divisor, l)
    return _norm_product(f, D_Q) / _norm_product(g, D_P)


@pytest.mark.parametrize("curve, l", [(E2, 2), (E2, 4), (E3, 3)], ids=["E2-l2", "E2-l4", "E3-l3"])
def test_idelic_pairing_is_the_inverse_massey_image(curve, l):
    tor = torsion_points(curve, l)
    for P in tor:
        for Q in tor:
            assert weil_pairing_idelic(curve, P, Q, l).value == _idelic_reference(curve, P, Q, l)


def test_miller_function_with_offset():
    R = (F5.element(2), F5.element(1))  # a point on y^2 = x^3 - x? 8-2=6=1 yes
    assert E2.contains_affine(*R)
    mf = miller_function(E2, P00, 2, R)
    PR = ec_add(E2, P00, R)
    want = Divisor(
        E2, {Place.rational_point(E2, PR): 2, Place.rational_point(E2, R): -2}
    )
    assert mf.divisor == want


def test_weil_pairing_examples():
    a = weil_pairing_idelic(E2, P00, P10, 2)
    assert a.value == F5.element(4) and a.order == 2
    b = weil_pairing_miller(E2, P00, P10, 2)
    assert b.value == F5.element(4)
    assert weil_pairing_idelic(E2, P00, P00, 2).value == F5.one()
    assert weil_pairing_idelic(E2, P00, None, 2).value == F5.one()
    with pytest.raises(DomainError):
        weil_pairing_idelic(E2, (F5.element(2), F5.element(1)), P10, 2)
    with pytest.raises(DomainError):
        weil_pairing_idelic(E2, P00, P10, 5)  # l = p


def test_pairing_full_torsion_agreement():
    for curve, l in ((E2, 2), (E3, 3)):
        tor = torsion_points(curve, l)
        assert len(tor) == l * l
        for P in tor:
            for Q in tor:
                a = weil_pairing_idelic(curve, P, Q, l)
                b = weil_pairing_miller(curve, P, Q, l)
                assert a.value == b.value
                assert a.value ** l == curve.spec.one()
                if P == Q:
                    assert a.value == curve.spec.one()


def test_pairing_bilinear_and_nondegenerate():
    tor = [T for T in torsion_points(E3, 3)]
    vals = set()
    for P in tor:
        for Q in tor:
            vals.add(weil_pairing_miller(E3, P, Q, 3).value.encoding())
    assert len(vals) == 3  # all of mu_3 is hit
    P1, P2, Q = tor[1], tor[2], tor[5]
    lhs = weil_pairing_idelic(E3, ec_add(E3, P1, P2), Q, 3).value
    rhs = weil_pairing_idelic(E3, P1, Q, 3).value * weil_pairing_idelic(E3, P2, Q, 3).value
    assert lhs == rhs
    # antisymmetry
    assert (
        weil_pairing_miller(E3, P1, Q, 3).value
        * weil_pairing_miller(E3, Q, P1, 3).value
        == F7.one()
    )


def test_massey_examples():
    out = massey_triple_curve(E2, P00, P10, 2)
    assert out.image == F5.element(4)
    psi = weil_pairing_miller(E2, P00, P10, 2)
    assert out.image == psi.value ** signs.MASSEY_PAIRING_EXPONENT


def test_massey_matches_pairing_l3():
    tor = [T for T in torsion_points(E3, 3) if T is not None]
    count = 0
    for P in tor[:3]:
        for Q in tor[3:6]:
            psi = weil_pairing_miller(E3, P, Q, 3)
            out = massey_triple_curve(E3, P, Q, 3)
            assert out.image == psi.value ** signs.MASSEY_PAIRING_EXPONENT
            count += 1
    assert count >= 3


def test_massey_invariances():
    base = massey_triple_curve(E2, P00, P10, 2).image
    # different representative offsets
    for r, s in ((1, 0), (0, 1), (2, 1), (1, 2), (3, 0)):
        assert massey_triple_curve(E2, P00, P10, 2, r_index=r, s_index=s).image == base
    # scaling a chain by a constant does not change the image
    for R in rational_points(E2)[1:]:
        supY = {ec_add(E2, P00, R), R}
        f = miller_function(E2, P00, 2, R)
        break
    # build plain representative data and perturb the chain
    from adele_forge.pairing import _scale_div

    for S in rational_points(E2)[1:]:
        QS = ec_add(E2, P10, S)
        if QS is None or S is None:
            continue
        keys = {QS, S} & {ec_add(E2, P00, R), R}
        if keys:
            continue
        g = miller_function(E2, P10, 2, S)
        break
    Y = _scale_div(f.divisor, 2)
    Z = _scale_div(g.divisor, 2)
    base2 = massey_triple(E2, Y, f, Z, g).image
    for c in (2, 3, 4):
        assert massey_triple(E2, Y, _scaled(f, c), Z, g).image == base2
        assert massey_triple(E2, Y, f, Z, _scaled(g, c)).image == base2


def _scaled(mf, c):
    """The chain times the constant c, through the checked constructor: a
    constant has divisor 0, so the declared divisor is unchanged."""
    const = FunctionFieldElement.constant(mf.curve, c)
    return MillerFunction(mf.curve, {**mf.factors, const: 1}, mf.divisor)


def test_massey_trivial_class():
    # beta trivial: Z = div(h), g = h^l --> direct image 1
    x = FunctionFieldElement.x_function(E2)
    h = x - FunctionFieldElement.constant(E2, 3)  # div = (3,2)+(3,3)-2O
    Z = principal_divisor(h)
    g = MillerFunction(E2, {h: 2}, Z * 2)
    R = (F5.element(2), F5.element(1))
    f = miller_function(E2, P00, 2, R)  # div supported on (2,4), (2,1)
    Y = _div_of(f)
    out = massey_triple(E2, Y, f, Z, g)
    assert out.image == F5.one()


def test_massey_shift_by_principal():
    # adding div(h) to Z (and h^l to the chain) leaves the image unchanged
    R = (F5.element(2), F5.element(1))
    f = miller_function(E2, P00, 2, R)  # Y supported on (2,4), (2,1)
    Y = _div_of(f)
    S = (F5.element(0), F5.element(0))
    g = miller_function(E2, P10, 2, S)  # Z supported on (4,0), (0,0)
    Z = _div_of(g)
    base = massey_triple(E2, Y, f, Z, g).image
    x = FunctionFieldElement.x_function(E2)
    h = x - FunctionFieldElement.constant(E2, 4)  # div = 2(4,0) - 2O
    Z2 = Z + principal_divisor(h)
    factors = dict(g.factors)
    factors[h] = factors.get(h, 0) + 2
    g2 = MillerFunction(E2, factors, Z2 * 2)
    assert not set(v for v, _ in Z2.items()) & set(v for v, _ in Y.items())
    assert massey_triple(E2, Y, f, Z2, g2).image == base


def _div_of(mf):
    from adele_forge.pairing import _scale_div

    return _scale_div(mf.divisor, 2)


def test_direct_image_examples():
    def image(payload):
        return direct_image(GerstenCochain(E2, 2, payload))

    v1 = Place.rational_point(E2, P00)
    assert image({v1: F5.element(3)}) == F5.element(3)
    # a degree-2 place: x^2 + x + 1 is irreducible over GF(5)
    g = Polynomial.from_ints(F5, [1, 1, 1])
    place = _places_above_x_factor(E2, g, 6)[0]
    field = place.residue_field()
    alpha = field.gen() + field.one()
    got = image({place: alpha})
    # the norm is the product of the Frobenius conjugates of alpha
    norm = alpha
    conj = alpha
    for _ in range(field.k - 1):
        conj = conj.frobenius()
        norm = norm * conj
    assert norm == field.element(got.val[0])
    assert image({v1: F5.one()}) == F5.one()
    assert image({}) == F5.one()
    # an entry of value 1 leaves the product unchanged
    v2 = Place.rational_point(E2, P10)
    assert image({v1: F5.element(3), v2: F5.one(), place: alpha}) == image({v1: F5.element(3), place: alpha})
    assert image({v1: F5.element(3), place: alpha}) == F5.element(3) * got


def test_sign_audit():
    report = sign_audit()
    assert report.consistent
    assert report.resolved == {
        "nu_weight2_exponent": signs.NU_WEIGHT2_EXPONENT,
        "surface_cycle_sign": signs.SURFACE_CYCLE_SIGN,
        "massey_pairing_exponent": signs.MASSEY_PAIRING_EXPONENT,
    }
    # determinism
    report2 = sign_audit()
    assert report2.as_dict() == report.as_dict()


@pytest.mark.parametrize(
    "key", ["nu_weight2_exponent", "surface_cycle_sign", "massey_pairing_exponent"]
)
def test_sign_audit_perturbation(key, monkeypatch):
    monkeypatch.setattr(signs, key.upper(), -getattr(signs, key.upper()))
    with pytest.raises(AuditError):
        sign_audit()


# ---------------------------------------------------------------------------
# explicit checks that hold under python -O


def test_scale_div_divides_or_raises():
    vP, vQ, vO = (Place.rational_point(E2, T) for T in (P00, P10, None))
    D = Divisor(E2, {vP: 4, vQ: -2, vO: -2})
    assert pairing._scale_div(D, 2) == Divisor(E2, {vP: 2, vQ: -1, vO: -1})
    assert pairing._scale_div(D, 1) == D
    assert pairing._scale_div(Divisor(E2), 3) == Divisor(E2)
    with pytest.raises(DomainError, match="not divisible by 4"):
        pairing._scale_div(D, 4)


def test_sign_audit_without_an_order_3_pair_raises(monkeypatch):
    # every pairing value 1: fixture 4 finds no pair of order 3
    monkeypatch.setattr(
        pairing, "weil_pairing_miller", lambda curve, P, Q, l: pairing.PairingValue(curve.spec.one(), l)
    )
    with pytest.raises(AuditError, match="no pair of order 3"):
        sign_audit()


# ---------------------------------------------------------------------------
# Miller factors built as reduced triples


LINE_CURVES = [E2, E3, CurveModel.elliptic(F7, 3, 2), CurveModel.elliptic(prime_field(11), 1, 4)]
LINE_CURVE_IDS = ["gf5-a4-b0", "gf7-a0-b2", "gf7-a3-b2", "gf11-a1-b4"]


def _line_by_arithmetic(curve, A, B):
    """The same factor through FunctionFieldElement arithmetic: x - x_A for
    A + B = O, else y - lam*x - (y_A - lam*x_A)."""
    x = FunctionFieldElement.x_function(curve)
    if A[0] == B[0] and A[1] == -B[1]:
        return x - A[0]
    if A == B:
        lam = (3 * A[0] * A[0] + curve.a) / (A[1] + A[1])
    else:
        lam = (B[1] - A[1]) / (B[0] - A[0])
    return FunctionFieldElement.y_function(curve) - x * lam - (A[1] - lam * A[0])


@pytest.mark.parametrize("curve", LINE_CURVES, ids=LINE_CURVE_IDS)
def test_reduced_factors_match_function_arithmetic(curve):
    pts = [T for T in rational_points(curve) if T is not None]
    kinds = set()
    for A in pts:
        want = _line_by_arithmetic(curve, A, ec_neg(curve, A))
        got = pairing._vertical(curve, A)
        assert got == want and hash(got) == hash(want)
        for B in pts:
            want = _line_by_arithmetic(curve, A, B)
            got = pairing._line_through(curve, A, B)
            assert got == want and hash(got) == hash(want), (A, B)
            kinds.add("vertical" if ec_add(curve, A, B) is None else "tangent" if A == B else "chord")
            if A == B and not A[1]:
                kinds.add("two-torsion tangent")
    assert kinds >= {"chord", "tangent", "vertical"}
    assert ("two-torsion tangent" in kinds) == any(not T[1] for T in pts)


@pytest.mark.parametrize("curve", LINE_CURVES, ids=LINE_CURVE_IDS)
def test_reduced_factor_divisors(curve):
    pts = [T for T in rational_points(curve) if T is not None]

    def point(T):
        return Divisor.of_place(Place.rational_point(curve, T))

    O = Divisor.of_place(Place.origin(curve))
    for A in pts:
        assert principal_divisor(pairing._vertical(curve, A)) == point(A) + point(ec_neg(curve, A)) - O * 2
        for B in pts:
            C = ec_add(curve, A, B)
            want = point(A) + point(B) + (point(ec_neg(curve, C)) if C is not None else O) - O * 3
            assert principal_divisor(pairing._line_through(curve, A, B)) == want, (A, B)


def test_vertical_rejects_a_point_of_another_field():
    with pytest.raises(DomainError):
        pairing._vertical(E2, (F7.element(0), F7.element(0)))


def test_miller_values_off_the_support_strip_nothing(monkeypatch):
    """Every factor of these chains is a unit at the places evaluated, so
    each leading term is read off by evaluation: _strip never runs."""
    cases = []
    for curve, l, R in ((E2, 2, (F5.element(2), F5.element(1))), (E3, 3, (F7.element(5), F7.element(1)))):
        tor = [T for T in torsion_points(curve, l) if T is not None]
        for P in tor:
            for offset in (None, R):
                if offset is not None and ec_add(curve, P, offset) in (None, offset):
                    continue
                mf = miller_function(curve, P, l, offset)
                support = set()
                for f in mf.factors:
                    support |= set(principal_divisor(f).support())
                places = [Place.rational_point(curve, T) for T in rational_points(curve)]
                x = Polynomial.x(curve.spec)
                for c in range(curve.spec.p):  # places of degree 2 and 4 above x^2 - c
                    for g, _ in factor_polynomial(x * x - Polynomial.from_ints(curve.spec, [c]))[1]:
                        if g.degree == 2:
                            places += _places_above_x_factor(curve, g, 4)
                places = [v for v in places if v not in support]
                assert any(v.residue_degree > 1 for v in places)
                D = Divisor(curve, {v: i + 1 for i, v in enumerate(places)})
                cases.append((mf, D, _norm_product(mf, D)))
    assert len(cases) == 21

    def no_strip(*args):
        raise AssertionError("a leading term stripped a factor")

    # a zero of a factor, where a leading term does strip
    mf = cases[0][0]
    zero = next(v for v in principal_divisor(next(iter(mf.factors))).support() if v.kind == "ec-affine")
    monkeypatch.setattr(curves, "_strip", no_strip)
    for mf, D, want in cases:
        assert _norm_product(mf, D) == want
    with pytest.raises(AssertionError, match="stripped"):
        cases[0][0].value_at_place(zero)


# ---------------------------------------------------------------------------
# one Miller chain


def test_offset_miller_function_builds_only_its_places(monkeypatch):
    """With an offset R the divisor is l(P+R) - l(R): on a warm curve the
    second call builds those two affine places and no origin."""
    curve = CurveModel.elliptic(F5, -1, 0)
    R = (F5.element(2), F5.element(1))
    miller_function(curve, P00, 2, R)
    built = []
    affine, origin = Place.affine_orbit, Place.origin

    def counting_affine(cls, *args):
        built.append("affine")
        return affine(*args)

    def counting_origin(cls, *args):
        built.append("origin")
        return origin(*args)

    monkeypatch.setattr(Place, "affine_orbit", classmethod(counting_affine))
    monkeypatch.setattr(Place, "origin", classmethod(counting_origin))
    miller_function(curve, P00, 2, R)
    assert built == ["affine", "affine"]


def _int_value(f, S):
    """(A + B*y)/C at the rational point S, on the coefficients' ints."""
    p = f.curve.spec.p
    x, y = S[0].val[0], S[1].val[0]

    def at(poly):
        return sum(c * x**i for i, c in enumerate(poly.vec)) % p

    a, b, c = f.abc
    return (at(a) + at(b) * y) * pow(at(c), p - 2, p) % p


@pytest.mark.parametrize("curve, l", [(E2, 2), (E2, 4), (E3, 3)], ids=["E2-l2", "E2-l4", "E3-l3"])
def test_point_evaluation_matches_the_factored_chain(curve, l):
    """The point-evaluated chain at S is the product of the factored chain's
    factors at S, or is degenerate because a line or vertical of the walk
    vanishes at S."""
    p = curve.spec.p
    affine = [T for T in rational_points(curve) if T is not None]
    outcomes = set()
    for P in torsion_points(curve, l):
        if P is None:
            continue
        factors = miller_function(curve, P, l).factors
        walk = []
        for step in pairing._miller_steps(curve, P, l):
            if step is not None:
                A, B, C = step
                walk.append(pairing._line_through(curve, A, B))
                if C is not None:
                    walk.append(pairing._vertical(curve, C))
        for S in affine:
            try:
                got = pairing._miller_point_eval(curve, P, l, S)
            except pairing._Degenerate:
                assert any(_int_value(f, S) == 0 for f in walk), (P, S)
                outcomes.add("degenerate")
                continue
            want = 1
            for f, e in factors.items():
                want = want * pow(_int_value(f, S), e, p) % p
            assert got.val[0] == want, (P, S)
            outcomes.add("value")
    assert outcomes == {"value", "degenerate"}


def test_one_miller_chain_and_one_slope():
    """pairing walks bin(l) once, in _miller_steps; the chord-tangent slope
    on FieldElements is curves.ec_slope, which the lines, the point
    evaluation and ec_add call."""
    trees = {m: ast.parse(Path(m.__file__).read_text()) for m in (curves, pairing, surface)}
    defs = {node.name: node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def bin_calls(tree):
        return sum(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "bin" for node in ast.walk(tree))

    assert bin_calls(trees[pairing]) == bin_calls(defs["_miller_steps"]) == 1
    assert "_miller_chain_factors" not in defs and "bipoly_multiplicity" not in defs
    for name in ("_line_through", "_miller_point_eval", "ec_add"):
        assert any(getattr(node, "id", None) == "ec_slope" for node in ast.walk(defs[name])), name
