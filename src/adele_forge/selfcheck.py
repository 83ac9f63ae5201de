"""The full invariant suite behind ``adele-forge selfcheck``.

Every check is deterministic (fixed seeds) and returns (name, ok, detail);
the CLI and the acceptance tests both drive these.
"""

from random import Random

from . import signs
from .adelic import AdeleCochain, adelic_differential, cochain_product, cohomology_dims, divisor_cocycle, nu_curve
from .curves import (
    CurveModel,
    Divisor,
    FunctionFieldElement,
    Place,
    ec_add,
    principal_divisor,
    rational_points,
    riemann_roch_space,
    scalar_multiple,
    torsion_points,
)
from .errors import AdeleForgeError
from .fields import (
    Polynomial,
    canonical_field,
    factor_polynomial,
    norm_to_prime_field,
    prime_field,
)
from .milnor import (
    MilnorSymbol,
    dlog_k1,
    dlog_pole_order_check,
    form_residue,
    tame_symbol,
    weil_reciprocity_check,
)
from .pairing import (
    massey_triple_curve,
    miller_function,
    sign_audit,
    weil_pairing_idelic,
    weil_pairing_miller,
)
from .surface import (
    FactoredFunction,
    HomForm,
    PlaneCurve,
    ProjPoint,
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


def random_polynomial(spec, rng, max_deg, nonzero=False):
    while True:
        poly = Polynomial.from_ints(
            spec, [rng.randrange(spec.p) for _ in range(max_deg + 1)]
        )
        if poly or not nonzero:
            return poly


def random_p1_function(curve, rng, max_deg=3):
    num = random_polynomial(curve.spec, rng, max_deg, nonzero=True)
    den = random_polynomial(curve.spec, rng, max_deg, nonzero=True)
    return FunctionFieldElement(curve, num, None, den)


def random_elliptic_function(curve, rng, max_deg=2):
    while True:
        a = random_polynomial(curve.spec, rng, max_deg)
        b = random_polynomial(curve.spec, rng, max_deg - 1)
        c = random_polynomial(curve.spec, rng, 1, nonzero=True)
        f = FunctionFieldElement(curve, a, b, c)
        if f:
            return f


def miller_symbols(curve, l, count):
    """K2 symbols whose entries are expanded Miller functions."""
    tor = [P for P in torsion_points(curve, l) if P is not None]
    offsets = rational_points(curve)[1:]
    out = []
    for P in tor:
        for Q in tor:
            for R in offsets[:2]:
                if len(out) >= count:
                    return out
                try:
                    f = _expanded(miller_function(curve, P, l, R))
                    g = _expanded(miller_function(curve, Q, l))
                except AdeleForgeError:
                    continue
                if f and g:
                    out.append(MilnorSymbol.pair(f, g))
    return out


def _expanded(mf):
    out = FunctionFieldElement.one(mf.curve)
    for f, e in mf.factors.items():
        out = out * f**e
    return out


# ---------------------------------------------------------------------------
# individual checks


def check_field_axioms():
    rng = Random(101)
    for p, k in ((2, 1), (3, 2), (5, 1), (7, 1), (11, 1), (3, 3)):
        spec = canonical_field(p, k)
        for _ in range(20):
            a = spec.from_encoding(rng.randrange(spec.order))
            b = spec.from_encoding(rng.randrange(spec.order))
            c = spec.from_encoding(rng.randrange(spec.order))
            if (a * b) * c != a * (b * c) or a * (b + c) != a * b + a * c:
                return False, "associativity/distributivity failed in %r" % spec
            if a and a * a.inverse() != spec.one():
                return False, "inverse failed in %r" % spec
    return True, "field axioms on random triples"


def check_factor_roundtrip():
    rng = Random(102)
    for p in (2, 3, 5, 7, 11):
        spec = prime_field(p)
        for _ in range(8):
            f = random_polynomial(spec, rng, rng.randrange(1, 13), nonzero=True)
            lc, factors = factor_polynomial(f)
            prod = Polynomial.constant(lc)
            for g, m in factors:
                if not g.is_irreducible():
                    return False, "reducible factor %r" % g
                prod = prod * g**m
            if prod != f:
                return False, "round-trip failed for %r" % f
    return True, "factorization round-trips, p in {2,3,5,7,11}"


def check_norm_multiplicativity():
    rng = Random(103)
    spec = canonical_field(5, 3)
    for _ in range(25):
        a = spec.from_encoding(rng.randrange(spec.order))
        b = spec.from_encoding(rng.randrange(spec.order))
        if norm_to_prime_field(a * b) != norm_to_prime_field(a) * norm_to_prime_field(b):
            return False, "norm not multiplicative"
    return True, "norm multiplicativity on random pairs"


def check_normalize_idempotent():
    rng = Random(104)
    curve = CurveModel.projective_line(prime_field(7))
    for _ in range(20):
        f = random_p1_function(curve, rng)
        again = FunctionFieldElement(curve, *f.abc)
        if again != f:
            return False, "normalization not idempotent"
    return True, "normalize_rational idempotent"


def _fixture_divisors(curve, count=10):
    rng = Random(105)
    spec = curve.spec
    if curve.kind == "p1":
        places = [
            Place.infinity(curve),
            Place.finite(curve, Polynomial.x(spec)),
            Place.finite(curve, Polynomial.from_ints(spec, [1, 1])),
            Place.finite(curve, Polynomial.from_ints(spec, [2, 0, 1])
                         if Polynomial.from_ints(spec, [2, 0, 1]).is_irreducible()
                         else Polynomial.from_ints(spec, [1, 0, 1])),
        ]
    else:
        pts = rational_points(curve)
        places = [Place.origin(curve)] + [
            Place.rational_point(curve, P) for P in pts[1:4]
        ]
    out = []
    while len(out) < count:
        entries = {}
        for v in places:
            m = rng.randrange(-2, 3)
            if m:
                entries[v] = m
        D = Divisor(curve, entries)
        if abs(D.degree) <= 6:
            out.append(D)
    return out


def _canonical_divisor(curve):
    if curve.kind == "p1":
        return Divisor(curve, {Place.infinity(curve): -2})
    return Divisor(curve)


def check_riemann_roch_adelic():
    F5 = prime_field(5)
    for curve in (CurveModel.projective_line(F5), CurveModel.elliptic(F5, 1, 1)):
        K = _canonical_divisor(curve)
        for D in _fixture_divisors(curve, 6):
            rep = cohomology_dims(curve, D)
            if rep.h0 - rep.h1 != D.degree + 1 - curve.genus:
                return False, "RR failed for %r" % D
            if rep.h1 != len(riemann_roch_space(K - D)):
                return False, "Serre duality failed for %r" % D
    return True, "h0-h1 = deg+1-g and h1 = h0(K-D) on both models"


def check_cohomology_invariance():
    F5 = prime_field(5)
    curve = CurveModel.projective_line(F5)
    rng = Random(106)
    D = Divisor(curve, {Place.infinity(curve): 1})
    base = cohomology_dims(curve, D)
    for _ in range(3):
        f = random_p1_function(curve, rng, 2)
        shifted = cohomology_dims(curve, D + principal_divisor(f))
        if (shifted.h0, shifted.h1) != (base.h0, base.h1):
            return False, "dims changed under principal shift"
    return True, "cohomology invariant under D -> D + div(f)"


def check_principal_divisors():
    rng = Random(107)
    F5 = prime_field(5)
    p1 = CurveModel.projective_line(F5)
    e = CurveModel.elliptic(F5, -1, 0)
    for _ in range(6):
        f = random_p1_function(p1, rng)
        g = random_p1_function(p1, rng)
        if principal_divisor(f).degree != 0:
            return False, "nonzero degree on P1"
        if principal_divisor(f * g) != principal_divisor(f) + principal_divisor(g):
            return False, "divisor not additive on P1"
    for _ in range(4):
        f = random_elliptic_function(e, rng)
        g = random_elliptic_function(e, rng)
        if principal_divisor(f, 12).degree != 0:
            return False, "nonzero degree on elliptic"
        if principal_divisor(f * g, 12) != principal_divisor(f, 12) + principal_divisor(g, 12):
            return False, "divisor not additive on elliptic"
    return True, "deg div(f) = 0 and div(fg) = div f + div g"


def check_group_law():
    rng = Random(108)
    p = 5
    # none of E[2] is rational on y^2 = x^3 + x + 1, all of it on y^2 = x^3 - x
    for a, b in ((1, 1), (-1, 0)):
        curve = CurveModel.elliptic(prime_field(p), a, b)
        pts = rational_points(curve)
        for _ in range(20):
            P, Q, R = (pts[rng.randrange(len(pts))] for _ in range(3))
            lhs = ec_add(curve, ec_add(curve, P, Q), R)
            rhs = ec_add(curve, P, ec_add(curve, Q, R))
            if lhs != rhs:
                return False, "associativity failed"
        for l in (1, 2, 3, 4):
            n = len(torsion_points(curve, l))
            if l * l % n:
                return False, "torsion count %d does not divide %d^2" % (n, l)
        # Lagrange, against counts on ints: E[2] is O and the points (x, 0),
        # and N*P = O for N = #E(GF(p))
        roots = sum(1 for x in range(p) if (x**3 + a * x + b) % p == 0)
        if len(torsion_points(curve, 2)) != 1 + roots:
            return False, "|E[2]| is not 1 + %d roots of x^3 + a*x + b" % roots
        order = 1 + sum(1 for x in range(p) for y in range(p) if (y * y - x**3 - a * x - b) % p == 0)
        if any(scalar_multiple(curve, order, P) is not None for P in pts):
            return False, "a point is not killed by #E(GF(p)) = %d" % order
    return True, "group law associativity; |E[l]| divides l^2"


def check_tame_symbol_identities():
    rng = Random(109)
    F7 = prime_field(7)
    curve = CurveModel.projective_line(F7)
    v = Place.finite(curve, Polynomial.x(F7))
    one = FunctionFieldElement.one(curve)
    for _ in range(12):
        f = random_p1_function(curve, rng, 2)
        g = random_p1_function(curve, rng, 2)
        h = random_p1_function(curve, rng, 2)
        lhs = tame_symbol(MilnorSymbol.pair(f * g, h), v)
        rhs = tame_symbol(MilnorSymbol.pair(f, h), v) * tame_symbol(MilnorSymbol.pair(g, h), v)
        if lhs != rhs:
            return False, "bimultiplicativity failed"
        anti = tame_symbol(MilnorSymbol.pair(f, g), v) * tame_symbol(MilnorSymbol.pair(g, f), v)
        if anti != F7.one():
            return False, "antisymmetry failed"
        if f != one and (one - f):
            st = tame_symbol(MilnorSymbol.pair(f, one - f), v)
            if st != F7.one():
                return False, "Steinberg failed"
    return True, "tame symbol bimultiplicative, antisymmetric, Steinberg"


def check_weil_reciprocity():
    rng = Random(110)
    F7 = prime_field(7)
    curve = CurveModel.projective_line(F7)
    for _ in range(25):
        s = MilnorSymbol.pair(random_p1_function(curve, rng), random_p1_function(curve, rng))
        if weil_reciprocity_check(s) != F7.one():
            return False, "reciprocity failed on P1"
    E = CurveModel.elliptic(prime_field(5), -1, 0)
    for s in miller_symbols(E, 2, 5):
        if weil_reciprocity_check(s, 12) != E.spec.one():
            return False, "reciprocity failed on elliptic Miller symbols"
    return True, "Weil reciprocity on random and Miller-built symbols"


def check_dlog_bounds():
    rng = Random(111)
    F7 = prime_field(7)
    curve = CurveModel.projective_line(F7)
    for _ in range(10):
        f = random_p1_function(curve, rng)
        if dlog_pole_order_check(f) > 1:
            return False, "dlog pole order above 1"
        form = dlog_k1(f)
        total = F7.zero()
        for v, _m in principal_divisor(f).items():
            total = total + form_residue(form, v)
        if total:
            return False, "dlog residues do not sum to zero"
    for s in _random_surface_symbols(Random(112), 7, 10):
        if dlog2_pole_check(s) > 1:
            return False, "dlog2 pole order above 1"
    return True, "dlog and dlog2 pole orders bounded by 1; residues sum to 0"


def _surface_pool(p):
    X0 = PlaneCurve(HomForm.line(p, 1, 0, 0))
    X1 = PlaneCurve(HomForm.line(p, 0, 1, 0))
    X2 = PlaneCurve(HomForm.line(p, 0, 0, 1))
    L1 = PlaneCurve(HomForm.line(p, 1, 1, 1))
    L2 = PlaneCurve(HomForm.line(p, 1, 2, 1))
    conic = PlaneCurve(HomForm(p, {(0, 1, 1): 1, (2, 0, 0): -1}))
    conic2 = PlaneCurve(HomForm(p, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1}))
    return [X0, X1, X2, L1, L2, conic, conic2]


def _random_degree_zero(pool, rng, p):
    lines = [c for c in pool if c.degree == 1]
    a = rng.choice(pool)
    e = rng.choice([1, 2, -1])
    line = rng.choice(lines)
    while line == a:
        line = rng.choice(lines)
    powers = {a: e, line: -e * a.degree}
    c = rng.randrange(1, p)
    return FactoredFunction(p, c, powers)


def _random_surface_symbols(rng, p, count):
    pool = _surface_pool(p)
    out = []
    for _ in range(count):
        f = _random_degree_zero(pool, rng, p)
        g = _random_degree_zero(pool, rng, p)
        out.append(SurfaceSymbol.pair(f, g, rng.choice([1, 1, 2])))
    return out


def check_parshin_reciprocity():
    rng = Random(113)
    p = 7
    field = prime_field(p)
    points = [
        ProjPoint((field.zero(), field.zero(), field.one())),
        ProjPoint((field.one(), field.zero(), field.one())),
        ProjPoint((field.zero(), field.one(), field.one())),
    ]
    for s in _random_surface_symbols(rng, p, 8):
        for pt in points:
            # a case that raises fails the check in run_selfcheck
            if parshin_point_reciprocity(s, pt) != 0:
                return False, "nonzero Parshin sum at %r" % pt
    return True, "Parshin point reciprocity vanishes"


def check_surface_intersections():
    p = 7
    pool = _surface_pool(p)
    X0, X1, X2, L1, L2, conic, conic2 = pool
    pairs = [
        (SurfaceDivisor({X0: 1}), SurfaceDivisor({X1: 1})),
        (SurfaceDivisor({X1: 1}), SurfaceDivisor({conic: 1})),
        (SurfaceDivisor({conic: 1}), SurfaceDivisor({conic2: 1})),
        (SurfaceDivisor({L1: 1, X0: 1}), SurfaceDivisor({conic: 1})),
    ]
    for D1, D2 in pairs:
        n = intersection_number(D1, D2)
        if n != bezout_number(D1, D2):
            return False, "Bezout mismatch: %r" % n
        if n != intersection_number(D2, D1):
            return False, "asymmetric intersection number"
        cyc = surface_product_cycle(D1, D2)
        if cycle_degree(cyc) != n:
            return False, "product cycle degree mismatch"
        if cyc != fulton_intersection_cycle(D1, D2):
            return False, "product cycle does not match Fulton multiplicities"
    return True, "intersection number == Bezout == Fulton; product cycle matches"


def check_weil_pairing():
    F5 = prime_field(5)
    E2 = CurveModel.elliptic(F5, -1, 0)
    F7 = prime_field(7)
    E3 = CurveModel.elliptic(F7, 0, 2)
    for curve, l in ((E2, 2), (E3, 3)):
        tor = torsion_points(curve, l)
        if len(tor) != l * l:
            return False, "torsion not full on fixture"
        for P in tor:
            for Q in tor:
                a = weil_pairing_idelic(curve, P, Q, l)
                b = weil_pairing_miller(curve, P, Q, l)
                if a.value != b.value:
                    return False, "idelic/miller mismatch"
                if a.value ** l != curve.spec.one():
                    return False, "value not in mu_l"
                if P == Q and a.value != curve.spec.one():
                    return False, "not alternating"
    return True, "idelic == miller, alternating, mu_l on full torsion"


def check_massey():
    F5 = prime_field(5)
    E = CurveModel.elliptic(F5, -1, 0)
    P = (F5.element(0), F5.element(0))
    Q = (F5.element(1), F5.element(0))
    base = massey_triple_curve(E, P, Q, 2).image
    psi = weil_pairing_miller(E, P, Q, 2).value
    if base != psi ** signs.MASSEY_PAIRING_EXPONENT:
        return False, "massey does not match the pairing"
    for r, s in ((1, 0), (0, 1), (2, 2)):
        out = massey_triple_curve(E, P, Q, 2, r_index=r, s_index=s)
        if out.image != base:
            return False, "image changed under representative change"
    return True, "massey image matches pairing and ignores representatives"


def check_sign_audit():
    report = sign_audit()
    want = {
        "nu_weight2_exponent": signs.NU_WEIGHT2_EXPONENT,
        "surface_cycle_sign": signs.SURFACE_CYCLE_SIGN,
        "massey_pairing_exponent": signs.MASSEY_PAIRING_EXPONENT,
    }
    if report.resolved != want:
        return False, "resolved constants differ from shipped ones"
    return True, "sign audit consistent: %r" % (report.resolved,)


def check_adelic_structure():
    F5 = prime_field(5)
    curve = CurveModel.projective_line(F5)
    rng = Random(114)
    t = FunctionFieldElement.x_function(curve)
    v = Place.finite(curve, Polynomial.x(F5))
    D = Divisor(curve, {v: 1})
    one = FunctionFieldElement.one(curve)
    zero = FunctionFieldElement.zero(curve)
    a = AdeleCochain(curve, 0, ("coh", D), global_part=one / t, tail=zero)
    b = AdeleCochain(curve, 0, ("coh", D), global_part=t, tail=t, exceptions={v: zero})
    da, db = adelic_differential(a), adelic_differential(b)
    ab = AdeleCochain(
        curve, 0, ("coh", D),
        global_part=a.global_part + b.global_part,
        tail=a.tail + b.tail,
        exceptions={v: a.local_component(v) + b.local_component(v)},
    )
    dab = adelic_differential(ab)
    if dab.tail != da.tail + db.tail or dab.local_component(v) != da.local_component(v) + db.local_component(v):
        return False, "differential not additive"
    # Leibniz-style twist: nu2(u . c) = tame{u, c_v}^eps with eps the audited
    # exponent, i.e. the twist of nu1(c) by the unit u
    cvals = {}
    for _ in range(4):
        u_val = F5.element(rng.randrange(1, 5))
        u = FunctionFieldElement.constant(curve, u_val)
        uc = AdeleCochain(curve, 0, ("k", 1), global_part=u, tail=u)
        c = divisor_cocycle(Divisor(curve, {v: rng.randrange(1, 3)}))
        n1 = nu_curve(c).payload
        n2 = nu_curve(cochain_product(uc, c)).payload
        for place, m in n1.items():
            # tame{u, comp_v} = u^(v(comp_v)) = u^(-nu1(c)(v))
            expect = (u_val ** (-m)) ** signs.NU_WEIGHT2_EXPONENT
            got = n2.get(place, F5.one())
            if got != expect:
                return False, "Leibniz twist failed"
    return True, "d additive; nu2 of unit product is the tame twist of nu1"


ALL_CHECKS = [
    check_field_axioms,
    check_factor_roundtrip,
    check_norm_multiplicativity,
    check_normalize_idempotent,
    check_riemann_roch_adelic,
    check_cohomology_invariance,
    check_principal_divisors,
    check_group_law,
    check_tame_symbol_identities,
    check_weil_reciprocity,
    check_dlog_bounds,
    check_parshin_reciprocity,
    check_surface_intersections,
    check_weil_pairing,
    check_massey,
    check_adelic_structure,
    check_sign_audit,
]


def run_selfcheck():
    """Run the whole invariant suite; returns (results, passed, failed)."""
    results = []
    for check in ALL_CHECKS:
        name = check.__name__
        try:
            ok, detail = check()
        except AdeleForgeError as exc:
            ok, detail = False, "%s: %s" % (exc.code, exc)
        except AssertionError as exc:
            ok, detail = False, "assertion: %s" % (exc,)
        results.append((name, ok, detail))
    passed = sum(1 for _, ok, _ in results if ok)
    return results, passed, len(results) - passed
