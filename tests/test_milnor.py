import ast
import copy
from collections import Counter
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adele_forge import milnor
from adele_forge.curves import CurveModel, FunctionFieldElement, Place, principal_divisor
from adele_forge.errors import DomainError
from adele_forge.fields import Polynomial, prime_field
from adele_forge.milnor import (
    GerstenCochain,
    MilnorSymbol,
    dlog_k1,
    dlog_pole_order_check,
    form_residue,
    gersten_boundary,
    tame_symbol,
    weil_reciprocity_check,
)
from adele_forge.selfcheck import random_elliptic_function, random_p1_function

F5 = prime_field(5)
F7 = prime_field(7)
P15 = CurveModel.projective_line(F5)
P17 = CurveModel.projective_line(F7)


def t_of(curve):
    return FunctionFieldElement(curve, Polynomial.x(curve.spec))


def rand_fn(curve, rng, deg=3):
    spec = curve.spec
    while True:
        num = Polynomial.from_ints(spec, [rng.randrange(spec.p) for _ in range(deg + 1)])
        den = Polynomial.from_ints(spec, [rng.randrange(spec.p) for _ in range(deg + 1)])
        if num and den:
            return FunctionFieldElement(curve, num, None, den)


def test_tame_symbol_examples():
    t = t_of(P15)
    v_t = Place.finite(P15, Polynomial.x(F5))
    assert tame_symbol(MilnorSymbol.pair(t, t), v_t) == F5.element(4)
    one = FunctionFieldElement.one(P15)
    assert tame_symbol(MilnorSymbol.pair(t, one - t), v_t) == F5.one()
    t7 = t_of(P17)
    v = Place.finite(P17, Polynomial.from_ints(F7, [5, 1]))  # t - 2
    assert tame_symbol(MilnorSymbol.pair(t7, t7 - 2), v) == F7.element(2)
    with pytest.raises(DomainError):
        MilnorSymbol.pair(FunctionFieldElement.zero(P15), t)


def test_gersten_boundary_examples():
    t7 = t_of(P17)
    s = MilnorSymbol.pair(t7, t7 - 1)
    b = gersten_boundary(s)
    v_t = Place.finite(P17, Polynomial.x(F7))
    v_inf = Place.infinity(P17)
    assert b.payload == {v_t: F7.element(6), v_inf: F7.element(6)}

    s2 = MilnorSymbol.pair(FunctionFieldElement.constant(P17, 3), t7)
    b2 = gersten_boundary(s2)
    assert b2.payload == {v_t: F7.element(3), v_inf: F7.element(5)}

    f = (t7 * t7 + 3) / (t7 - 1)
    b3 = gersten_boundary(MilnorSymbol.pair(f, -f))
    assert b3.payload == {}


def test_gersten_cochain_equality():
    v_t = Place.finite(P17, Polynomial.x(F7))
    v_t1 = Place.finite(P17, Polynomial.from_ints(F7, [6, 1]))
    v_inf = Place.infinity(P17)

    def level1(extra=None):
        return GerstenCochain(P17, 2, {v_t: F7.element(3), v_inf: F7.element(5), **(extra or {})})

    c = level1()
    assert c == level1()
    # a symbol compares by its curve and entries, not by identity
    t7 = t_of(P17)
    symbol = lambda g: MilnorSymbol.pair(t7, g)
    assert symbol(t7 - 1) == symbol(t7 - 1) and hash(symbol(t7 - 1)) == hash(symbol(t7 - 1))
    assert symbol(t7 - 1) != symbol(t7 - 2)
    # the filter drops an entry of value 1
    assert level1({v_t1: F7.one()}) == c
    assert level1({v_t1: F7.element(2)}) != c
    changes = {
        "curve": CurveModel.elliptic(F7, 0, 2),
        "weight": 1,
        "payload": {v_t: F7.element(3), v_inf: F7.element(6)},
    }
    for name, value in changes.items():
        other = copy.copy(c)
        setattr(other, name, value)
        assert other != c and c != other, name
    assert c != c.payload


def test_residues_are_read_in_one_place():
    """gersten_boundary and adelic.nu_curve read residues through
    milnor.residue and milnor.residue_support only; the plane's first
    residue is a FactoredFunction, and a Gersten cochain has one level."""
    package = Path(milnor.__file__).resolve().parent
    for module, name in (("milnor.py", "gersten_boundary"), ("adelic.py", "nu_curve")):
        tree = ast.parse((package / module).read_text())
        func = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)
        called = {getattr(n.func, "id", getattr(n.func, "attr", None)) for n in ast.walk(func) if isinstance(n, ast.Call)}
        assert {"residue", "residue_support"} <= called, name
        assert not called & {"valuation", "tame_symbol", "principal_divisor", "symbol_support"}, name
    surface = ast.parse((package / "surface.py").read_text())
    assert "RestrictedFunction" not in {n.name for n in ast.walk(surface) if isinstance(n, ast.ClassDef)}
    assert "level" not in GerstenCochain.__slots__


def test_direct_image_has_the_only_norm_loop():
    """Under src/adele_forge only milnor.direct_image and the selfcheck
    invariant check_norm_multiplicativity name norm_to_prime_field, apart
    from its definition and imports."""
    package = Path(milnor.__file__).resolve().parent
    users = set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(None, tree)]
        while scopes:
            scope, node = scopes.pop()
            for child in ast.iter_child_nodes(node):
                inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
                if getattr(child, "id", getattr(child, "attr", None)) == "norm_to_prime_field":
                    users.add((path.name, inner))
                scopes.append((inner, child))
    assert users == {("milnor.py", "direct_image"), ("selfcheck.py", "check_norm_multiplicativity")}


def test_weight1_boundary_is_divisor():
    t7 = t_of(P17)
    f = (t7 - 1) * (t7 - 1) / t7
    b = gersten_boundary(f)
    assert b.payload == dict(principal_divisor(f).items())


def test_tame_symbol_identities_randomized():
    rng = Random(21)
    v = Place.finite(P17, Polynomial.x(F7))
    one = FunctionFieldElement.one(P17)
    for _ in range(15):
        f = rand_fn(P17, rng, 2)
        g = rand_fn(P17, rng, 2)
        h = rand_fn(P17, rng, 2)
        assert tame_symbol(MilnorSymbol.pair(f * g, h), v) == tame_symbol(
            MilnorSymbol.pair(f, h), v
        ) * tame_symbol(MilnorSymbol.pair(g, h), v)
        assert tame_symbol(MilnorSymbol.pair(f, g), v) * tame_symbol(
            MilnorSymbol.pair(g, f), v
        ) == F7.one()
        if f != one and (one - f):
            assert tame_symbol(MilnorSymbol.pair(f, one - f), v) == F7.one()


def test_weil_reciprocity_examples():
    t7 = t_of(P17)
    assert weil_reciprocity_check(MilnorSymbol.pair(t7, t7 - 1)) == F7.one()
    t5 = t_of(P15)
    assert weil_reciprocity_check(MilnorSymbol.pair(t5, t5)) == F5.one()
    c = FunctionFieldElement.constant(P17, 3)
    g = (t7 - 1) * (t7 - 2)
    assert weil_reciprocity_check(MilnorSymbol.pair(c, g)) == F7.one()


def test_weil_reciprocity_randomized():
    rng = Random(22)
    for _ in range(40):
        s = MilnorSymbol.pair(rand_fn(P17, rng), rand_fn(P17, rng))
        assert weil_reciprocity_check(s) == F7.one()


def test_dlog_examples():
    t = t_of(P15)
    form = dlog_k1(t)
    v_t = Place.finite(P15, Polynomial.x(F5))
    assert form_residue(form, v_t) == F5.one()
    assert form_residue(form, Place.infinity(P15)) == F5.element(-1)
    t7 = t_of(P17)
    f = (t7 - 1) ** 3
    v1 = Place.finite(P17, Polynomial.from_ints(F7, [6, 1]))
    assert form_residue(dlog_k1(f), v1) == F7.element(3)
    with pytest.raises(DomainError):
        dlog_k1(FunctionFieldElement.zero(P15))


def test_dlog_residue_at_higher_degree_place():
    # residue at a degree-2 place is traced down to the prime field
    t7 = t_of(P17)
    f = t7 * t7 + 1
    quad = Place.finite(P17, Polynomial.from_ints(F7, [1, 0, 1]))
    assert form_residue(dlog_k1(f), quad) == F7.element(2)  # trace of 1 in GF(49)


def test_dlog_pole_order_examples():
    t7 = t_of(P17)
    assert dlog_pole_order_check(t7 ** 5) == 1
    assert dlog_pole_order_check((t7 - 1) * (t7 - 2)) == 1
    assert dlog_pole_order_check(FunctionFieldElement.constant(P17, 3)) == 0


def test_dlog_properties_randomized():
    rng = Random(23)
    for _ in range(25):
        f = rand_fn(P17, rng)
        assert dlog_pole_order_check(f) <= 1
        form = dlog_k1(f)
        total = F7.zero()
        for v, m in principal_divisor(f).items():
            res = form_residue(form, v)
            # res = Tr(valuation), i.e. the valuation weighted by the degree
            assert res == F7.element(m * v.residue_degree)
            total = total + res
        assert not total


def test_reciprocity_over_gf2():
    from random import Random

    F2 = prime_field(2)
    P12 = CurveModel.projective_line(F2)
    rng = Random(24)
    for _ in range(10):
        s = MilnorSymbol.pair(rand_fn(P12, rng, 4), rand_fn(P12, rng, 4))
        assert weil_reciprocity_check(s) == F2.one()


def test_elliptic_reciprocity_extension_places():
    # random (non-Miller) symbols whose supports include places of degree
    # up to 4: exercises tame symbols and norms over GF(5^d)
    from random import Random

    F5 = prime_field(5)
    E = CurveModel.elliptic(F5, -1, 0)
    rng = Random(77)

    def rand_ell(deg=2):
        while True:
            a = Polynomial.from_ints(F5, [rng.randrange(5) for _ in range(deg + 1)])
            b = Polynomial.from_ints(F5, [rng.randrange(5) for _ in range(deg)])
            c = Polynomial.from_ints(F5, [rng.randrange(5) for _ in range(2)])
            if not c:
                c = Polynomial.one(F5)
            f = FunctionFieldElement(E, a, b, c)
            if f:
                return f

    from adele_forge.milnor import symbol_support

    seen_higher = False
    for _ in range(4):
        s = MilnorSymbol.pair(rand_ell(), rand_ell())
        sup = symbol_support(s, 16)
        seen_higher = seen_higher or any(v.residue_degree > 1 for v in sup)
        assert weil_reciprocity_check(s, 16) == F5.one()
    assert seen_higher


@st.composite
def _curves(draw):
    """P^1 over GF(p), p <= 7, or a nonsingular y^2 = x^3 + a x + b over
    GF(p), p in {5, 7, 11}."""
    if draw(st.booleans()):
        return CurveModel.projective_line(prime_field(draw(st.sampled_from([2, 3, 5, 7]))))
    p = draw(st.sampled_from([5, 7, 11]))
    a, b = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    assume((4 * a**3 + 27 * b * b) % p)
    return CurveModel.elliptic(prime_field(p), a, b)


def test_weil_reciprocity_random_symbols():
    # the product over all places of the norms of the tame symbols of
    # sum e_i {f_i, g_i} is 1, with f_i, g_i drawn as selfcheck draws them;
    # a draw with a place above the extension bound is skipped and counted
    ext_bound = 6
    tally = Counter()

    @settings(deadline=None, max_examples=40)
    @given(_curves(), st.integers(0, 2**32), st.lists(st.sampled_from([-2, -1, 1, 3]), min_size=1, max_size=2))
    def check(curve, seed, exponents):
        rng = Random(seed)
        draw_fn = random_p1_function if curve.kind == "p1" else random_elliptic_function
        s = MilnorSymbol(curve, [(draw_fn(curve, rng), draw_fn(curve, rng), e) for e in exponents])
        try:
            value = weil_reciprocity_check(s, ext_bound)
        except DomainError as exc:
            assert "exceeds the extension bound" in str(exc)
            tally["skipped"] += 1
            assume(False)
        tally[curve.kind] += 1
        assert value == curve.spec.one()

    check()
    print("reciprocity: %d on P^1, %d elliptic, %d skipped (a place of degree > %d)"
          % (tally["p1"], tally["elliptic"], tally["skipped"], ext_bound))
    assert tally["p1"] and tally["elliptic"]
