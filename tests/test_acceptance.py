"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated time budget.  All comparisons are exact."""

import json
import time
from random import Random

from adele_forge import signs
from adele_forge.adelic import cohomology_dims
from adele_forge.cli import run_config
from adele_forge.curves import (
    CurveModel,
    Divisor,
    FunctionFieldElement,
    Place,
    ec_add,
    principal_divisor,
    rational_points,
    riemann_roch_space,
    torsion_points,
)
from adele_forge.errors import DomainError
from adele_forge.fields import Polynomial, prime_field
from adele_forge.milnor import MilnorSymbol, dlog_k1, dlog_pole_order_check, form_residue, weil_reciprocity_check
from adele_forge.pairing import massey_triple_curve, miller_function, sign_audit, weil_pairing_idelic, weil_pairing_miller
from adele_forge.selfcheck import miller_symbols
from adele_forge.surface import (
    FactoredFunction,
    HomForm,
    PlaneCurve,
    SurfaceDivisor,
    SurfaceSymbol,
    bezout_number,
    cycle_degree,
    dlog2_pole_check,
    fulton_intersection_cycle,
    intersection_number,
    parshin_point_reciprocity,
    surface_product_cycle,
)

F5 = prime_field(5)
F7 = prime_field(7)


def _report(criterion, ok, budget, elapsed):
    status = "PASS" if ok else "FAIL"
    print("[%s] criterion %s (%.2fs of %ds budget)" % (status, criterion, elapsed, budget))
    assert ok, "criterion %s failed" % criterion


def _rand_fn(curve, rng, deg=3):
    spec = curve.spec
    while True:
        num = Polynomial.from_ints(spec, [rng.randrange(spec.p) for _ in range(deg + 1)])
        den = Polynomial.from_ints(spec, [rng.randrange(spec.p) for _ in range(deg + 1)])
        if num and den:
            return FunctionFieldElement(curve, num, None, den)


def test_criterion_1_riemann_roch():
    """h0 - h1 = deg D + 1 - g and h1(D) = h0(K - D) on 20 fixed divisors."""
    start = time.monotonic()
    rng = Random(1001)
    curves = [CurveModel.projective_line(F5), CurveModel.elliptic(F5, 1, 1)]
    fixtures = []
    for curve in curves:
        if curve.kind == "p1":
            places = [
                Place.infinity(curve),
                Place.finite(curve, Polynomial.x(F5)),
                Place.finite(curve, Polynomial.from_ints(F5, [1, 1])),
                Place.finite(curve, Polynomial.from_ints(F5, [2, 0, 1])),
            ]
            K = Divisor(curve, {Place.infinity(curve): -2})
        else:
            pts = rational_points(curve)
            places = [Place.origin(curve)] + [
                Place.rational_point(curve, P) for P in pts[1:4]
            ]
            K = Divisor(curve)
        count = 0
        while count < 10:
            D = Divisor(curve, {v: rng.randrange(-2, 3) for v in places})
            if abs(D.degree) > 6:
                continue
            fixtures.append((curve, K, D))
            count += 1
    assert len(fixtures) == 20
    ok = True
    for curve, K, D in fixtures:
        rep = cohomology_dims(curve, D)
        ok = ok and (rep.h0 - rep.h1 == D.degree + 1 - curve.genus)
        ok = ok and (rep.h1 == len(riemann_roch_space(K - D)))
    _report("1 (Riemann-Roch via the adelic complex)", ok, 5, time.monotonic() - start)
    assert time.monotonic() - start < 5


def test_criterion_2_weil_reciprocity():
    """100 random K2 symbols on P1/GF(7), 20 Miller symbols on an elliptic curve."""
    start = time.monotonic()
    rng = Random(1002)
    curve = CurveModel.projective_line(F7)
    ok = True
    for _ in range(100):
        s = MilnorSymbol.pair(_rand_fn(curve, rng), _rand_fn(curve, rng))
        ok = ok and weil_reciprocity_check(s) == F7.one()
    E = CurveModel.elliptic(F5, -1, 0)
    symbols = miller_symbols(E, 2, 14)
    E3 = CurveModel.elliptic(F7, 0, 2)
    symbols += miller_symbols(E3, 3, 6)
    assert len(symbols) == 20
    for s in symbols:
        ok = ok and weil_reciprocity_check(s, 12) == s.curve.spec.one()
    _report("2 (Weil reciprocity)", ok, 10, time.monotonic() - start)
    assert time.monotonic() - start < 10


def test_criterion_3_intersection_formula():
    """Adelic intersection numbers against Bezout and Fulton on 10 pairs."""
    start = time.monotonic()
    p = 7
    X0 = PlaneCurve(HomForm.line(p, 1, 0, 0))
    X1 = PlaneCurve(HomForm.line(p, 0, 1, 0))
    X2 = PlaneCurve(HomForm.line(p, 0, 0, 1))
    L111 = PlaneCurve(HomForm.line(p, 1, 1, 1))
    L121 = PlaneCurve(HomForm.line(p, 1, 2, 1))
    tangent_conic = PlaneCurve(HomForm(p, {(0, 1, 1): 1, (2, 0, 0): -1}))
    circle = PlaneCurve(HomForm(p, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1}))
    conic3 = PlaneCurve(HomForm(p, {(2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): -3}))
    gf49_conic = PlaneCurve(HomForm(p, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -3}))
    cubic = PlaneCurve(HomForm(p, {(0, 2, 1): 1, (3, 0, 0): -1, (1, 0, 2): -1, (0, 0, 3): -1}))
    pairs = [
        (SurfaceDivisor({X0: 1}), SurfaceDivisor({X1: 1}), 1),
        (SurfaceDivisor({X0: 1}), SurfaceDivisor({L111: 1}), 1),
        (SurfaceDivisor({X1: 1}), SurfaceDivisor({tangent_conic: 1}), 2),  # tangency, mult 2
        (SurfaceDivisor({X0: 1}), SurfaceDivisor({gf49_conic: 1}), 2),  # point in GF(49)
        (SurfaceDivisor({circle: 1}), SurfaceDivisor({conic3: 1}), 4),
        (SurfaceDivisor({tangent_conic: 1}), SurfaceDivisor({circle: 1}), 4),
        (SurfaceDivisor({X0: 1, X1: 1}), SurfaceDivisor({L121: 2}), 4),
        (SurfaceDivisor({L111: 1}), SurfaceDivisor({cubic: 1}), 3),
        (SurfaceDivisor({circle: 1}), SurfaceDivisor({cubic: 1}), 6),
        (SurfaceDivisor({X2: 1, circle: 1}), SurfaceDivisor({L121: 1}), 3),
    ]
    ok = True
    tangency_seen = False
    gf49_seen = False
    for D1, D2, expected in pairs:
        n = intersection_number(D1, D2, ext_bound=8)
        fulton = fulton_intersection_cycle(D1, D2, ext_bound=8)
        cycle = surface_product_cycle(D1, D2, ext_bound=8)
        ok = ok and n == expected == bezout_number(D1, D2)
        ok = ok and n == sum(pt.degree * m for pt, m in fulton.items())
        ok = ok and cycle == fulton and cycle_degree(cycle) == n
        tangency_seen = tangency_seen or any(m == 2 for m in fulton.values())
        gf49_seen = gf49_seen or any(pt.degree == 2 for pt in fulton)
    ok = ok and tangency_seen and gf49_seen
    _report("3 (intersection formula vs Bezout and Fulton)", ok, 30, time.monotonic() - start)
    assert time.monotonic() - start < 30


def test_criterion_4_parshin_reciprocity():
    """>= 20 seeded admissible symbols sum to zero around each point."""
    start = time.monotonic()
    rng = Random(1004)
    p = 7
    field = prime_field(p)
    X0 = PlaneCurve(HomForm.line(p, 1, 0, 0))
    X1 = PlaneCurve(HomForm.line(p, 0, 1, 0))
    X2 = PlaneCurve(HomForm.line(p, 0, 0, 1))
    lines = [X0, X1, X2, PlaneCurve(HomForm.line(p, 1, 1, 1)), PlaneCurve(HomForm.line(p, 1, 2, 1)),
             PlaneCurve(HomForm.line(p, 1, 0, 3)), PlaneCurve(HomForm.line(p, 0, 1, 4))]
    conic = PlaneCurve(HomForm(p, {(0, 1, 1): 1, (2, 0, 0): -1}))
    pool = lines + [conic]
    from adele_forge.surface import ProjPoint

    points = [
        ProjPoint((field.zero(), field.zero(), field.one())),
        ProjPoint((field.one(), field.zero(), field.one())),
        ProjPoint((field.zero(), field.one(), field.one())),
        ProjPoint((field.one(), field.one(), field.one())),
    ]
    checked = 0
    ok = True
    while checked < 20:
        a, b = rng.sample(pool, 2)
        la = rng.choice([l for l in lines if l not in (a, b)])
        lb = rng.choice([l for l in lines if l not in (a, b)])
        f = FactoredFunction(p, rng.randrange(1, p), {a: 1, la: -a.degree})
        g = FactoredFunction(p, rng.randrange(1, p), {b: 1, lb: -b.degree})
        sym = SurfaceSymbol.pair(f, g, rng.choice([1, 2]))
        pt = rng.choice(points)
        try:
            total = parshin_point_reciprocity(sym, pt)
        except DomainError:
            continue  # inadmissible configuration; not counted
        ok = ok and total == 0
        checked += 1
    _report("4 (Parshin point reciprocity)", ok, 10, time.monotonic() - start)
    assert time.monotonic() - start < 10


def test_criterion_5_weil_pairing_identity():
    """idelic == miller on full l-torsion, l in {2,3}; massey matches."""
    start = time.monotonic()
    E2 = CurveModel.elliptic(F5, -1, 0)
    E3 = CurveModel.elliptic(F7, 0, 2)
    ok = True
    for curve, l in ((E2, 2), (E3, 3)):
        tor = torsion_points(curve, l)
        ok = ok and len(tor) == l * l
        for P in tor:
            for Q in tor:
                a = weil_pairing_idelic(curve, P, Q, l)
                b = weil_pairing_miller(curve, P, Q, l)
                ok = ok and a.value == b.value
                ok = ok and a.value ** l == curve.spec.one()
                if P == Q:
                    ok = ok and a.value == curve.spec.one()
    # bilinearity and alternation on the l = 3 fixture
    tor = torsion_points(E3, 3)
    for (P1, P2, Q) in ((tor[1], tor[2], tor[5]), (tor[3], tor[4], tor[7])):
        lhs = weil_pairing_miller(E3, ec_add(E3, P1, P2), Q, 3).value
        rhs = weil_pairing_miller(E3, P1, Q, 3).value * weil_pairing_miller(E3, P2, Q, 3).value
        ok = ok and lhs == rhs
    # massey matches the pairing on >= 3 configurations
    configs = [
        (E2, (F5.element(0), F5.element(0)), (F5.element(1), F5.element(0)), 2),
        (E3, tor[1], tor[5], 3),
        (E3, tor[2], tor[4], 3),
        (E3, tor[3], tor[8], 3),
    ]
    for curve, P, Q, l in configs:
        psi = weil_pairing_miller(curve, P, Q, l)
        image = massey_triple_curve(curve, P, Q, l).image
        ok = ok and image == psi.value ** signs.MASSEY_PAIRING_EXPONENT
    _report("5 (Weil pairing as a Massey product)", ok, 10, time.monotonic() - start)
    assert time.monotonic() - start < 10


def test_criterion_6_chain_invariance():
    """Massey image invariant under chain and representative changes."""
    start = time.monotonic()
    from adele_forge.curves import FunctionFieldElement as FFE
    from adele_forge.pairing import MillerFunction, _scale_div, massey_triple

    E2 = CurveModel.elliptic(F5, -1, 0)
    P = (F5.element(0), F5.element(0))
    Q = (F5.element(1), F5.element(0))
    base = massey_triple_curve(E2, P, Q, 2).image
    ok = True
    # five perturbations: three representative changes, two chain scalings
    for r, s in ((1, 0), (0, 1), (2, 2)):
        ok = ok and massey_triple_curve(E2, P, Q, 2, r_index=r, s_index=s).image == base
    R = (F5.element(2), F5.element(1))
    S = (F5.element(0), F5.element(0))
    f = miller_function(E2, P, 2, R)
    g = miller_function(E2, Q, 2, S)
    Y, Z = _scale_div(f.divisor, 2), _scale_div(g.divisor, 2)
    ref = massey_triple(E2, Y, f, Z, g).image
    for c in (2, 3):
        fc = MillerFunction(E2, {**f.factors, FFE.constant(E2, c): 1}, f.divisor)
        ok = ok and massey_triple(E2, Y, fc, Z, g).image == ref
    # trivial beta: Z principal, g = h^l
    x = FFE.x_function(E2)
    h = x - FFE.constant(E2, 3)
    Zt = principal_divisor(h)
    gt = MillerFunction(E2, {h: 2}, Zt * 2)
    ok = ok and massey_triple(E2, Y, f, Zt, gt).image == F5.one()
    _report("6 (chain invariance and kernel of the direct image)", ok, 5, time.monotonic() - start)
    assert time.monotonic() - start < 5


def test_criterion_7_dlog_bounds():
    """Pole bounds <= 1 on 50 seeded inputs each; residues sum to zero."""
    start = time.monotonic()
    rng = Random(1007)
    curve = CurveModel.projective_line(F7)
    ok = True
    for _ in range(50):
        f = _rand_fn(curve, rng)
        ok = ok and dlog_pole_order_check(f) <= 1
        form = dlog_k1(f)
        total = F7.zero()
        for v, _m in principal_divisor(f).items():
            total = total + form_residue(form, v)
        ok = ok and not total
    p = 7
    X0 = PlaneCurve(HomForm.line(p, 1, 0, 0))
    X1 = PlaneCurve(HomForm.line(p, 0, 1, 0))
    X2 = PlaneCurve(HomForm.line(p, 0, 0, 1))
    lines = [X0, X1, X2, PlaneCurve(HomForm.line(p, 1, 1, 1)), PlaneCurve(HomForm.line(p, 1, 2, 1))]
    conic = PlaneCurve(HomForm(p, {(0, 1, 1): 1, (2, 0, 0): -1}))
    pool = lines + [conic]
    rng2 = Random(1008)
    for _ in range(50):
        a, b = rng2.sample(pool, 2)
        la = rng2.choice([l for l in lines if l not in (a, b)])
        f = FactoredFunction(p, rng2.randrange(1, p), {a: rng2.choice([1, 2]), la: 0})
        f = FactoredFunction(p, f.constant, {a: f.powers[a], la: -f.powers[a] * a.degree})
        g = FactoredFunction(p, 1, {b: 1, la: -b.degree})
        ok = ok and dlog2_pole_check(SurfaceSymbol.pair(f, g)) <= 1
    _report("7 (dlog pole bounds)", ok, 5, time.monotonic() - start)
    assert time.monotonic() - start < 5


def test_criterion_8_sign_audit_and_determinism():
    """Consistent sign assignment; selfcheck deterministic twice in a row."""
    start = time.monotonic()
    report1 = sign_audit()
    ok = report1.consistent
    doc = {"task": "selfcheck"}
    r1 = run_config(doc)
    r2 = run_config(doc)
    ok = ok and json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    ok = ok and r1["status"] == "pass" and int(r1["failed"]) == 0
    ok = ok and sign_audit().as_dict() == report1.as_dict()
    _report("8 (sign audit and deterministic selfcheck)", ok, 60, time.monotonic() - start)
    assert time.monotonic() - start < 60
