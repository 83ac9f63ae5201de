import ast
import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adele_forge import fields
from adele_forge.curves import CurveModel, FunctionFieldElement
from adele_forge.errors import DomainError
from adele_forge.fields import (
    FieldSpec,
    Polynomial,
    _inverse,
    _mul,
    canonical_field,
    factor_polynomial,
    field_sqrt,
    frobenius_orbit,
    is_prime,
    norm_to_prime_field,
    poly_gcd,
    poly_roots,
    prime_field,
    root_in_field,
    roots_in_field,
    trace_to_prime_field,
)

F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)
M61 = 2**61 - 1


def test_field_spec_validation():
    with pytest.raises(DomainError):
        FieldSpec(4)
    with pytest.raises(DomainError):
        FieldSpec(5, 2, [1, 0, 1])  # x^2+1 = (x+2)(x+3) over GF(5)
    with pytest.raises(DomainError):
        FieldSpec(5, 1, [1, 1])
    spec = FieldSpec(3, 2, [1, 0, 1])
    assert spec.order == 9


def test_is_prime():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(-3, 5000) if is_prime(n)] == [n for n in range(-3, 5000) if trial(n)]
    # Carmichael numbers and strong pseudoprimes to the first few bases
    # 318665857834031151167461 is a strong pseudoprime to all bases 2..37
    for n in (561, 41041, 3215031751, 2152302898747, 3474749660383, 341550071728321,
              318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1) and is_prime(1000003)
    assert not is_prime((2**31 - 1) * 1000003)
    assert FieldSpec(2**61 - 1).order == 2**61 - 1


def test_element_arithmetic():
    F9 = FieldSpec(3, 2, [1, 0, 1])
    i = F9.gen()
    assert i * i == F9.element(-1)
    assert (i + 1) * (i + 1) == i + i  # (1+i)^2 = 2i
    assert i ** 4 == F9.one()
    with pytest.raises(DomainError):
        F9.zero().inverse()
    with pytest.raises(DomainError):
        F9.one() + F5.one()


def test_norm_examples():
    F9 = FieldSpec(3, 2, [1, 0, 1])
    i = F9.gen()
    assert norm_to_prime_field(i) == F3.one()
    assert norm_to_prime_field(F9.element([1, 1])) == F3.element(2)
    assert norm_to_prime_field(F9.element(2)) == F3.one()


def test_norm_multiplicative():
    rng = Random(1)
    spec = canonical_field(7, 3)
    for _ in range(40):
        a = spec.from_encoding(rng.randrange(spec.order))
        b = spec.from_encoding(rng.randrange(spec.order))
        assert norm_to_prime_field(a * b) == norm_to_prime_field(a) * norm_to_prime_field(b)


def test_canonical_field_raises_domain_error_without_an_irreducible(monkeypatch):
    monkeypatch.setattr(Polynomial, "is_irreducible", lambda self: False)
    with pytest.raises(DomainError, match="no irreducible polynomial found"):
        canonical_field.__wrapped__(3, 2)


def test_field_axioms_randomized():
    rng = Random(2)
    for p, k in ((2, 1), (3, 2), (5, 2), (7, 1), (11, 1)):
        spec = canonical_field(p, k)
        for _ in range(30):
            a = spec.from_encoding(rng.randrange(spec.order))
            b = spec.from_encoding(rng.randrange(spec.order))
            c = spec.from_encoding(rng.randrange(spec.order))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if a:
                assert a * a.inverse() == spec.one()


def test_factor_examples():
    lc, factors = factor_polynomial(Polynomial.from_ints(F5, [1, 0, 1]))
    assert lc == F5.one()
    assert [(repr(f), m) for f, m in factors] == [("x + 2", 1), ("x + 3", 1)]

    lc, factors = factor_polynomial(Polynomial.from_ints(F3, [1, 0, 1]))
    assert len(factors) == 1 and factors[0][1] == 1
    assert factors[0][0] == Polynomial.from_ints(F3, [1, 0, 1])

    lc, factors = factor_polynomial(Polynomial.from_ints(F7, [0, 0, 1]))
    assert factors == [(Polynomial.x(F7), 2)]

    with pytest.raises(DomainError):
        factor_polynomial(Polynomial.zero(F5))


def test_factor_roundtrip_randomized():
    rng = Random(3)
    for p in (2, 3, 5, 7, 11):
        spec = prime_field(p)
        for _ in range(10):
            deg = rng.randrange(1, 13)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            f = Polynomial.from_ints(spec, coeffs)
            lc, factors = factor_polynomial(f)
            prod = Polynomial.constant(lc)
            seen = set()
            for g, m in factors:
                assert g.is_irreducible()
                assert g not in seen
                seen.add(g)
                prod = prod * g ** m
            assert prod == f


def test_factor_deterministic():
    rng = Random(4)
    spec = prime_field(11)
    f = Polynomial.from_ints(spec, [rng.randrange(11) for _ in range(9)] + [1])
    assert factor_polynomial(f) == factor_polynomial(f)


def test_roots_and_sqrt():
    f = Polynomial.from_ints(F5, [1, 0, 1])
    assert [r.encoding() for r in poly_roots(f)] == [2, 3]
    F25 = canonical_field(5, 2)
    rs = roots_in_field(Polynomial.from_ints(F5, [3, 0, 1]), F25)  # x^2+3 over GF(25)
    assert len(rs) == 2
    for r in rs:
        assert r * r == F25.element(-3)
    s = field_sqrt(F7.element(2))
    assert s is not None and s * s == F7.element(2)
    assert field_sqrt(F7.element(3)) is None  # 3 is not a QR mod 7
    F4 = canonical_field(2, 2)
    g = F4.gen()
    s = field_sqrt(g)
    assert s * s == g


@st.composite
def _irreducible_in_field(draw):
    """An irreducible g over GF(p), p in {2, 3, 5, 7, 11}, of degree d <= 6
    with a random nonzero leading coefficient, and a field of degree d or 2d
    (at most 8) in which it splits."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    d = draw(st.sampled_from(range(1, 7)))
    k = draw(st.sampled_from([k for k in (d, 2 * d) if k <= 8]))
    spec = prime_field(p)
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
    g = Polynomial.from_ints(spec, coeffs + [draw(st.integers(1, p - 1))])
    assume(g.is_irreducible())
    return g, canonical_field(p, k)


@settings(deadline=None, max_examples=120)
@given(_irreducible_in_field())
def test_root_in_field_is_first_of_all_roots(case):
    g, field = case
    roots = roots_in_field(g, field)
    assert len(roots) == g.degree
    assert root_in_field(g, field) == roots[0]


# irreducible quadratics over GF(2^61 - 1), two of them not monic: -1 and
# 3 are non-residues (p = 3 mod 4, and p = 1 mod 3 with p = 3 mod 4 gives
# (3/p) = -1); the test checks the others
M61_QUADRATICS = [[1, 0, 1], [-3, 0, 1], [11, 3, 2], [2, 2, 5]]
M61_FIELDS = [FieldSpec(M61, 2, [1, 0, 1]), FieldSpec(M61, 4, [1, 1, 0, 0, 1])]


@pytest.mark.parametrize("field", M61_FIELDS, ids=repr)
@pytest.mark.parametrize("coeffs", M61_QUADRATICS, ids=str)
def test_root_in_field_large_p(coeffs, field):
    g = Polynomial.from_ints(prime_field(M61), coeffs)
    assert g.is_irreducible()
    roots = roots_in_field(g, field)
    assert len(roots) == 2 and not g.lift_to(field).evaluate(roots[0])
    assert root_in_field(g, field) == roots[0]


def test_root_in_field_takes_no_large_extension_power(monkeypatch):
    """The trace-map split raises polynomials over the extension field to
    at most (p - 1)/2, never to (q - 1)/2 or to p^i as Cantor-Zassenhaus
    and the characteristic-2 trace do."""
    powers = []
    powmod = Polynomial.powmod

    def recording(self, e, modulus):
        powers.append((self.spec, e))
        return powmod(self, e, modulus)

    monkeypatch.setattr(Polynomial, "powmod", recording)
    cases = [
        ([1, 1, 1], canonical_field(2, 2)),
        ([1, 1, 0, 1], canonical_field(2, 6)),
        ([2, 0, 1], canonical_field(5, 4)),
        ([1, 0, 0, 0, 4, 1], canonical_field(5, 5)),
        ([2, 0, 8, 2], canonical_field(11, 6)),
    ]
    for coeffs, field in cases:
        g = Polynomial.from_ints(prime_field(field.p), coeffs)
        assert g.is_irreducible()
        powers.clear()
        root = root_in_field(g, field)
        assert not g.lift_to(field).evaluate(root)
        ext = [e for spec, e in powers if spec.k > 1]
        assert all(e <= (field.p - 1) // 2 for e in ext), ext
        if field.p > 2:
            assert ext  # the split itself ran
    for coeffs in M61_QUADRATICS:
        root_in_field(Polynomial.from_ints(prime_field(M61), coeffs), M61_FIELDS[1])
    assert all(e <= (M61 - 1) // 2 for spec, e in powers if spec.k > 1)


def test_root_in_field_rejects_what_does_not_split():
    F125 = canonical_field(5, 3)
    for g in (Polynomial.zero(F5), Polynomial.from_ints(F5, [3])):
        with pytest.raises(DomainError, match="degree dividing"):
            root_in_field(g, F125)
    # x^2 + 2 is irreducible over GF(5) and has no root in GF(5^3)
    with pytest.raises(DomainError, match="degree dividing"):
        root_in_field(Polynomial.from_ints(F5, [2, 0, 1]), F125)
    # (x - 1)(x - 2) splits, but its roots are not one Frobenius orbit
    with pytest.raises(DomainError, match="irreducible"):
        root_in_field(Polynomial.from_ints(F5, [2, -3, 1]), canonical_field(5, 2))
    # (x - 1)^2 is not squarefree
    with pytest.raises(DomainError, match="irreducible"):
        root_in_field(Polynomial.from_ints(F5, [1, -2, 1]), canonical_field(5, 2))
    # (x^2 + 2)(x^3 + x + 1) has degree 5, but x^2 + 2 has no root in
    # GF(5^5); a split that keeps the quadratic half can never finish
    g = Polynomial.from_ints(F5, [2, 0, 1]) * Polynomial.from_ints(F5, [1, 1, 0, 1])
    with pytest.raises(DomainError, match="irreducible"):
        root_in_field(g, canonical_field(5, 5))
    # d >= 2 only over GF(p): x^2 + 2 has its roots in GF(5^6), but over
    # GF(5^3) it is refused by the degree check in GF(5^3) and by the lift
    # in GF(5^6)
    g = Polynomial.from_ints(F125, [2, 0, 1])
    with pytest.raises(DomainError, match="degree dividing"):
        root_in_field(g, F125)
    with pytest.raises(DomainError, match="prime subfield"):
        root_in_field(g, canonical_field(5, 6))
    g = Polynomial.from_ints(F5, [2, 0, 1])
    assert root_in_field(g, canonical_field(5, 6)) == roots_in_field(g, canonical_field(5, 6))[0]
    # a linear polynomial over the field itself
    F25 = canonical_field(5, 2)
    r = F25.gen() + F25.one()
    assert root_in_field(Polynomial.from_elements(F25, [-r * 3, F25.element(3)]), F25) == r


def test_splits_over_a_ring_that_is_not_a_field_raise(monkeypatch):
    # x^3 + 2x = x(x - 1)(x + 1) over GF(3): a "field" built on it while
    # is_irreducible is patched is the ring GF(3)^3, where the trace split of
    # root_in_field never finishes; the cap on its draws makes that an error
    with monkeypatch.context() as patched:
        patched.setattr(Polynomial, "is_irreducible", lambda self: True)
        ring = FieldSpec(3, 3, [0, 2, 0, 1])
    g = Polynomial.from_ints(prime_field(3), [1, 2, 0, 1])  # x^3 + 2x + 1, irreducible
    assert g.is_irreducible()
    start = time.perf_counter()
    with pytest.raises(DomainError, match="random draws"):
        root_in_field(g, ring)
    # a Cantor-Zassenhaus step on a polynomial with no split of the asked
    # degree (x^2 + 1 has no root in GF(3)) stops at the same cap
    with pytest.raises(DomainError, match="random draws"):
        fields._split_once(Polynomial.from_ints(prime_field(3), [1, 0, 1]), 1, Random(0))
    assert time.perf_counter() - start < 1.0


def test_canonical_field_deterministic():
    a = canonical_field(5, 4)
    b = canonical_field(5, 4)
    assert a is b
    assert a.modulus == canonical_field(5, 4).modulus


def _rabin_irreducible(mod, p):
    """Rabin's test: x^(p^k) = x mod f, and gcd(x^(p^(k/r)) - x, f) = 1 for
    every prime r | k."""
    spec = prime_field(p)
    f = Polynomial.from_ints(spec, mod)
    k = f.degree
    x = Polynomial.x(spec)

    def frob(e):
        return x.powmod(p**e, f)

    if frob(k) != x % f:
        return False
    for r in range(2, k + 1):
        if k % r == 0 and all(r % d for d in range(2, r)):
            if poly_gcd(frob(k // r) - x, f).degree > 0:
                return False
    return True


def test_canonical_field_matches_exhaustive_walk():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for k in range(2, 7):
            if p**k > 10**6:
                continue
            for n in range(p**k):
                mod = [(n // p**i) % p for i in range(k)] + [1]
                if _rabin_irreducible(mod, p):
                    break
            assert canonical_field(p, k).modulus == tuple(mod), (p, k)


def test_canonical_field_large_p():
    # p = 3 mod 4: no x^4 + c is irreducible, so the binomials are skipped
    start = time.perf_counter()
    spec = canonical_field(M61, 4)
    assert time.perf_counter() - start < 2
    assert spec.modulus == (1, 1, 0, 0, 1)


SQRT_FIELDS = [prime_field(p) for p in (2, 3, 5, 7, 13, 17, 41, 97)] + [
    canonical_field(3, 2),
    canonical_field(5, 2),
    canonical_field(17, 2),
    canonical_field(2, 3),
]


def test_field_sqrt_matches_brute_force():
    # q - 1 has 2-adic valuation 4, 3 and 5 for p = 17, 41, 97 and 5 for
    # GF(17^2): several rounds of the Tonelli-Shanks loop
    for spec in SQRT_FIELDS:
        roots = {}
        for r in spec.elements():
            roots.setdefault(r * r, []).append(r)
        for a in spec.elements():
            got = field_sqrt(a)
            if a in roots:
                assert got == min(roots[a], key=lambda r: r.encoding()), (spec, a)
            else:
                assert got is None, (spec, a)


@settings(deadline=None, max_examples=100)
@given(
    st.sampled_from([M61, 3 * 2**30 + 1, 2**64 - 2**32 + 1]),
    st.integers(1, 2**64),
)
def test_field_sqrt_large_p(p, n):
    # 2^61 - 1 = 3 mod 4; the other two have q - 1 divisible by 2^30, 2^32
    spec = prime_field(p)
    a = spec.element(n)
    if not a:
        return
    square = a * a
    r = field_sqrt(square)
    assert r * r == square
    assert r.encoding() <= (-r).encoding()
    nonresidue = next(
        spec.element(c) for c in range(2, p) if spec.element(c) ** ((p - 1) // 2) != 1
    )
    assert field_sqrt(square * nonresidue) is None


def test_field_sqrt_large_quadratic_extension():
    # every element of GF(p) is a square in GF(p^2), so the non-residue
    # must be found among the elements outside the prime field
    spec = FieldSpec(M61, 2, [1, 0, 1])
    rng = Random(11)
    nonresidue = next(
        a
        for a in (spec.element([rng.randrange(M61), 1]) for _ in range(100))
        if a ** ((spec.order - 1) // 2) != spec.one()
    )
    t0 = time.perf_counter()
    for _ in range(10):
        a = spec.element([rng.randrange(M61), rng.randrange(M61)])
        if not a:
            continue
        square = a * a
        r = field_sqrt(square)
        assert r in (a, -a)
        assert r.encoding() <= (-r).encoding()
        assert field_sqrt(square * nonresidue) is None
    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# GF(p^k)[x] laws against FieldElement schoolbook references.  Polynomials
# over extension fields compute on flat int vectors (packed products, Newton
# division); the references below use only FieldElement operators.

EXT_FIELDS = [canonical_field(p, k) for p in (2, 3, 5, 7) for k in (2, 3, 4, 5)] + [
    # explicit moduli, not only the canonical ones ([1, 1, 0, 0, 1] is
    # canonical_field(M61, 4)); FieldSpec checks these are irreducible.
    FieldSpec(M61, 2, [1, 0, 1]),
    FieldSpec(M61, 3, [5, 1, 0, 1]),
    FieldSpec(M61, 4, [1, 1, 0, 0, 1]),
    FieldSpec(M61, 5, [4, 1, 0, 0, 0, 1]),
]
POLY_LAWS = settings(deadline=None, max_examples=150)


def _ref_trim(elts):
    elts = list(elts)
    while elts and not elts[-1]:
        elts.pop()
    return elts


def _ref_mul(spec, a, b):
    if not a or not b:
        return []
    out = [spec.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _ref_trim(out)


def _ref_divmod(spec, a, b):
    r = list(a)
    q = [spec.zero()] * max(len(a) - len(b) + 1, 0)
    inv = b[-1].inverse()
    for i in range(len(q) - 1, -1, -1):
        c = r[i + len(b) - 1] * inv
        q[i] = c
        for j, y in enumerate(b):
            r[i + j] = r[i + j] - c * y
    return _ref_trim(q), _ref_trim(r[: len(b) - 1])


def _ref_powmod(spec, a, e, m):
    result = [spec.one()]
    base = _ref_divmod(spec, a, m)[1]
    for _ in range(e):
        result = _ref_divmod(spec, _ref_mul(spec, result, base), m)[1]
    return result


def _ref_gcd(spec, a, b):
    while b:
        a, b = b, _ref_divmod(spec, a, b)[1]
    if not a:
        return a
    inv = a[-1].inverse()
    return [c * inv for c in a]


@st.composite
def _ext_polys(draw, count, min_len=0, max_len=8):
    """A field and ``count`` coefficient lists: zeros anywhere, random
    (often non-monic) leading coefficients."""
    spec = draw(st.sampled_from(EXT_FIELDS))
    code = st.one_of(st.just(0), st.just(1), st.integers(0, spec.order - 1))
    out = []
    for _ in range(count):
        codes = draw(st.lists(code, min_size=min_len, max_size=max_len))
        out.append(_ref_trim(spec.from_encoding(c) for c in codes))
    return spec, out


@POLY_LAWS
@given(_ext_polys(2))
def test_ext_mul_matches_schoolbook(case):
    spec, (a, b) = case
    prod = Polynomial.from_elements(spec, a) * Polynomial.from_elements(spec, b)
    assert list(prod.coeffs) == _ref_mul(spec, a, b)


@POLY_LAWS
@given(_ext_polys(2, max_len=10).filter(lambda case: case[1][1]))
def test_ext_divmod_matches_schoolbook(case):
    spec, (a, b) = case
    q, r = divmod(Polynomial.from_elements(spec, a), Polynomial.from_elements(spec, b))
    rq, rr = _ref_divmod(spec, a, b)
    assert list(q.coeffs) == rq and list(r.coeffs) == rr


@POLY_LAWS
@given(_ext_polys(2, max_len=6).filter(lambda case: case[1][1]), st.integers(0, 40))
def test_ext_powmod_matches_schoolbook(case, e):
    spec, (a, m) = case
    got = Polynomial.from_elements(spec, a).powmod(e, Polynomial.from_elements(spec, m))
    # e = 0 gives the constant 1, unreduced, as the prime-field kernel does
    assert list(got.coeffs) == _ref_powmod(spec, a, e, m)


@POLY_LAWS
@given(_ext_polys(3, max_len=5))
def test_ext_gcd_and_exact_div(case):
    spec, (a, b, c) = case
    A, B, C = (Polynomial.from_elements(spec, x) for x in (a, b, c))
    assert list(poly_gcd(A * C, B * C).coeffs) == _ref_gcd(spec, _ref_mul(spec, a, c), _ref_mul(spec, b, c))
    if C:
        assert (A * C).exact_div(C) == A
        if C.degree > 0:
            with pytest.raises(DomainError):
                (A * C + Polynomial.one(spec)).exact_div(C)


def test_ext_division_edge_cases():
    for spec in EXT_FIELDS:
        g = spec.gen()
        f = Polynomial.from_elements(spec, [g, spec.one(), g + 1, g * g])
        for m in (
            Polynomial.constant(g + 2),  # degree 0: every remainder is 0
            Polynomial.from_elements(spec, [g, g + 1]),  # degree 1, not monic
            Polynomial.from_elements(spec, [spec.one()] * 6),  # longer than f
        ):
            q, r = divmod(f, m)
            rq, rr = _ref_divmod(spec, list(f.coeffs), list(m.coeffs))
            assert list(q.coeffs) == rq and list(r.coeffs) == rr
            for e in (0, 1, 2, 5, 17):
                assert list(f.powmod(e, m).coeffs) == _ref_powmod(spec, list(f.coeffs), e, list(m.coeffs))
        zero = Polynomial.zero(spec)
        assert divmod(zero, f) == (zero, zero)
        assert f * zero == zero and zero * f == zero
        assert zero.powmod(3, f) == zero


DIVISION_FIELDS = [canonical_field(p, k) for p in (2, 3, 5, 7, M61) for k in range(2, 7)]


@st.composite
def _division_case(draw):
    """A field GF(p^k), k in 2..6, a divisor b with a random (mostly not
    monic) leading coefficient and a dividend a with nq = 0..12 quotient
    coefficients: shorter than b (often empty) when nq = 0."""
    spec = draw(st.sampled_from(DIVISION_FIELDS))
    code = st.one_of(st.just(0), st.just(1), st.integers(0, spec.order - 1))
    nonzero = st.one_of(st.just(1), st.integers(1, spec.order - 1))
    nb = draw(st.integers(1, 6))
    nq = draw(st.integers(0, 12))
    b = draw(st.lists(code, min_size=nb - 1, max_size=nb - 1)) + [draw(nonzero)]
    if nq:
        a = draw(st.lists(code, min_size=nb + nq - 2, max_size=nb + nq - 2)) + [draw(nonzero)]
    else:
        a = draw(st.lists(code, max_size=nb - 1))
    return tuple(Polynomial.from_elements(spec, [spec.from_encoding(c) for c in v]) for v in (a, b))


def _reverse(vec, k):
    return [x for i in range(len(vec) - k, -1, -k) for x in vec[i : i + k]]


def _newton_divmod(spec, a, b):
    """rev(q) = rev(a) / rev(b) modulo t^(deg a - deg b + 1), by the series
    inverse of rev(b), and r = a - q b (von zur Gathen & Gerhard, Modern
    Computer Algebra, 9.1)."""
    p, k = spec.p, spec.k
    na, nb = len(a) // k, len(b) // k
    if na < nb:
        return [], a
    nq = na - nb + 1
    q = _reverse(_mul(spec, _reverse(a, k), _inverse(spec, _reverse(b, k), nq), nq), k)
    r = [(x - y) % p for x, y in zip(a, _mul(spec, q, b, nb - 1))]
    while r and not any(r[-k:]):
        del r[-k:]
    return q, r


@settings(deadline=None, max_examples=300)
@given(_division_case())
def test_ext_divmod_is_newton_division(case):
    """Long division over GF(p^k) gives exactly the quotient and remainder
    of division by a Newton inverse, and a = q b + r, deg r < deg b."""
    a, b = case
    q, r = divmod(a, b)
    assert (q.vec, r.vec) == _newton_divmod(a.spec, a.vec, b.vec)
    assert q * b + r == a and r.degree < b.degree
    assert q.degree == (a.degree - b.degree if a.degree >= b.degree else -1)
    _assert_contract(q)
    _assert_contract(r)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_mul_by_one_coefficient(data):
    """``_mul`` with a one-coefficient operand, on either side, is the
    FieldElement product coefficient by coefficient, truncated or padded
    with zeros to n coefficients."""
    k = data.draw(st.integers(1, 6))
    spec = data.draw(st.sampled_from([canonical_field(p, k) for p in (2, 3, 5, 7, M61)]))
    code = st.one_of(st.just(0), st.just(1), st.integers(0, spec.order - 1))
    a = [spec.from_encoding(c) for c in data.draw(st.lists(code, max_size=10))]
    va = [x for e in a for x in e.val]
    for c in (spec.from_encoding(data.draw(code)), spec.zero(), -spec.one()):
        vc = list(c.val)
        for n in range(len(a) + 2):
            want = [x for e in a[:n] for x in (e * c).val] + [0] * (k * max(n - len(a), 0))
            assert _mul(spec, va, vc, n) == want
            assert _mul(spec, vc, va, n) == want
            assert _mul(spec, va, [], n) == _mul(spec, [], vc, n) == [0] * (k * n)


def test_powmod_rejects_negative_exponent():
    for spec in (FieldSpec(3, 2, [1, 0, 1]), F7):
        x = Polynomial.x(spec)
        m = Polynomial.from_elements(spec, [spec.one(), spec.zero(), spec.one()])
        with pytest.raises(DomainError, match="negative"):
            x.powmod(-1, m)
        with pytest.raises(DomainError, match="negative"):
            (x * x + x).powmod(-1, x)  # not coprime to the modulus
        with pytest.raises(DomainError):
            x.powmod(2, Polynomial.zero(spec))


# ---------------------------------------------------------------------------
# one power loop: fields._power


def _power_bases():
    F27 = canonical_field(3, 3)
    E = CurveModel.elliptic(prime_field(5), 1, 1)
    x, y = Polynomial.x(E.spec), Polynomial.one(E.spec)
    return [
        F7.element(3),
        F27.gen() + 1,
        Polynomial.from_ints(F7, [1, 3, 1]),
        Polynomial.from_elements(F27, [F27.gen(), F27.one()]),
        FunctionFieldElement(E, x, y),  # x + y: B != 0
    ]


@pytest.mark.parametrize("base", _power_bases(), ids=["GF(7)", "GF(27)", "GF(7)[x]", "GF(27)[x]", "x+y on E"])
def test_power_makes_popcount_plus_bitlength_minus_one_products(base, monkeypatch):
    """Square-and-multiply into 1 squares the base only while higher bits
    remain: no squaring after the top bit is thrown away."""
    cls = type(base)
    calls = []
    mul = cls.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    want = base
    for e in range(1, 65):
        monkeypatch.setattr(cls, "__mul__", counted)
        calls.clear()
        got = base**e
        monkeypatch.setattr(cls, "__mul__", mul)
        assert got == want and len(calls) == bin(e).count("1") + e.bit_length() - 1, e
        want = want * base


def test_ext_powmod_reduction_count(monkeypatch):
    """One reduction of the base, then one per squaring and one per other
    product into the result: no 1 * base product."""
    spec = canonical_field(3, 2)
    g = spec.gen()
    f = Polynomial.from_elements(spec, [g, spec.one(), g + 1, g, spec.one()])
    m = Polynomial.from_elements(spec, [g + 2, spec.zero(), g, spec.one()])
    divmods = []
    schoolbook = fields._schoolbook_divmod

    def counted(spec_, a, b):
        divmods.append(1)
        return schoolbook(spec_, a, b)

    for e in range(65):
        monkeypatch.setattr(fields, "_schoolbook_divmod", counted)
        divmods.clear()
        got = f.powmod(e, m)
        monkeypatch.setattr(fields, "_schoolbook_divmod", schoolbook)
        assert got == f**e % m if e else got == Polynomial.one(spec)
        assert len(divmods) == (e.bit_length() + bin(e).count("1") - 1 if e else 0), e


def test_power_is_the_one_square_and_multiply_loop():
    package = Path(fields.__file__).parent
    for module in ("fields.py", "curves.py"):
        tree = ast.parse((package / module).read_text())
        shifts = [n for n in ast.walk(tree) if isinstance(n, ast.AugAssign) and isinstance(n.op, ast.RShift)]
        power = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_power"]
        inside = {id(n) for f in power for n in ast.walk(f)}
        assert all(id(n) in inside for n in shifts), module
        if module == "fields.py":
            assert len(shifts) == 1
            calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
            assert "bin" not in {getattr(n.func, "id", None) for n in calls}


@settings(deadline=None, max_examples=30)
@given(_ext_polys(1, min_len=2, max_len=7).filter(lambda case: case[1][0]))
def test_ext_factor_roundtrip(case):
    spec, (a,) = case
    f = Polynomial.from_elements(spec, a)
    lc, factors = factor_polynomial(f)
    prod = Polynomial.constant(lc)
    for g, m in factors:
        assert g.lc() == spec.one() and g.is_irreducible()
        prod = prod * g**m
    assert prod == f
    assert len({g for g, _ in factors}) == len(factors)
    # the linear factors are exactly the roots
    roots = [-g.constant_term() for g, _ in factors if g.degree == 1]
    assert sorted(r.encoding() for r in roots) == [r.encoding() for r in poly_roots(f)]


# ---------------------------------------------------------------------------
# scalar GF(p^k) arithmetic against int-list polynomials mod the modulus

SCALAR_FIELDS = [canonical_field(p, k) for p in (2, 3, 5, 7, M61) for k in (1, 2, 3, 4)]
SCALAR_LAWS = settings(deadline=None, max_examples=200)


def _ref_reduce(spec, coeffs):
    """The coefficient tuple of an int polynomial modulo the field's modulus."""
    p, k = spec.p, spec.k
    c = [x % p for x in coeffs]
    if k > 1:
        for d in range(len(c) - 1, k - 1, -1):
            t = c[d]
            for j, m in enumerate(spec.modulus):
                c[d - k + j] = (c[d - k + j] - t * m) % p
    return tuple(c[:k] + [0] * (k - len(c)))


def _ref_int(spec, n):
    return _ref_reduce(spec, [n])


def _ref_add(spec, a, b):
    return _ref_reduce(spec, [x + y for x, y in zip(a, b)])


def _ref_neg(spec, a):
    return _ref_reduce(spec, [-x for x in a])


def _ref_scalar_mul(spec, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_reduce(spec, out)


def _ref_scalar_inv(spec, a):
    # a^(q - 2) by square and multiply
    result, base, e = _ref_int(spec, 1), a, spec.order - 2
    while e:
        if e & 1:
            result = _ref_scalar_mul(spec, result, base)
        base = _ref_scalar_mul(spec, base, base)
        e >>= 1
    return result


@st.composite
def _scalars(draw):
    """A field, two of its elements (zero and one often) and an int."""
    spec = draw(st.sampled_from(SCALAR_FIELDS))
    code = st.one_of(st.just(0), st.just(1), st.integers(0, spec.order - 1))
    a, b = spec.from_encoding(draw(code)), spec.from_encoding(draw(code))
    n = draw(st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70)))
    return spec, a, b, n


@SCALAR_LAWS
@given(_scalars())
def test_scalar_ops_match_int_reference(case):
    spec, a, b, n = case
    va, vb, vn = a.val, b.val, _ref_int(spec, n)
    for got, want in (
        (a + b, _ref_add(spec, va, vb)),
        (a - b, _ref_add(spec, va, _ref_neg(spec, vb))),
        (a * b, _ref_scalar_mul(spec, va, vb)),
        (-a, _ref_neg(spec, va)),
        (a + n, _ref_add(spec, va, vn)),
        (n + a, _ref_add(spec, va, vn)),
        (a - n, _ref_add(spec, va, _ref_neg(spec, vn))),
        (a * n, _ref_scalar_mul(spec, va, vn)),
        (n * a, _ref_scalar_mul(spec, va, vn)),
    ):
        assert got.spec is spec and got.val == want
    if b:
        assert (a / b).val == _ref_scalar_mul(spec, va, _ref_scalar_inv(spec, vb))
    else:
        with pytest.raises(DomainError):
            a / b
    if n % spec.p:
        assert (a / n).val == _ref_scalar_mul(spec, va, _ref_scalar_inv(spec, vn))
    # an int is coerced only as the right operand of - and /
    for op in (lambda: n - a, lambda: n / a):
        with pytest.raises(TypeError):
            op()
    assert (a == b) == (va == vb) and (a != b) == (va != vb)
    assert (a == n) == (va == vn) and (n == a) == (va == vn)


@SCALAR_LAWS
@given(_scalars(), st.sampled_from(SCALAR_FIELDS))
def test_scalar_ops_reject_mixed_fields(case, other_spec):
    spec, a, _, _ = case
    if other_spec == spec:
        return
    b = other_spec.one()
    for op in (
        lambda: a + b,
        lambda: a - b,
        lambda: a * b,
        lambda: a / b,
        lambda: b + a,
        lambda: b * a,
        lambda: other_spec.element(a),
        lambda: Polynomial.constant(b).evaluate(a),
    ):
        with pytest.raises(DomainError):
            op()
    assert a != b and not (a == b)


@pytest.mark.parametrize("p", [2, 5, M61])
def test_equal_distinct_specs_work_together(p):
    fresh, cached = FieldSpec(p), prime_field(p)
    assert fresh is not cached and fresh == cached and hash(fresh) == hash(cached)
    a, b = fresh.element(3), cached.element(p - 1)
    assert a == cached.element(3) and cached.element(3) == a
    assert (a + b).val == (2 % p,) and (b + a).val == (2 % p,)
    assert (a - b).val == (4 % p,) and (a * b).val == ((-3) % p,)
    if p > 3:
        assert (a / b).val == ((-3) % p,) and (b / a * a) == b
    ext = canonical_field(p, 2)
    twin = FieldSpec(p, 2, ext.modulus)
    g = twin.gen()
    assert twin is not ext and twin == ext
    assert g * ext.gen() == ext.gen() * ext.gen() and g == ext.gen()
    assert Polynomial.x(ext).evaluate(g) == g


# ---------------------------------------------------------------------------
# Polynomial.evaluate


@SCALAR_LAWS
@given(st.data())
def test_polynomial_evaluate_matches_naive_sum(data):
    spec = data.draw(st.sampled_from(SCALAR_FIELDS))
    code = st.one_of(st.just(0), st.just(1), st.integers(0, spec.order - 1))
    coeffs = [spec.from_encoding(c) for c in data.draw(st.lists(code, max_size=8))]
    f = Polynomial.from_elements(spec, coeffs)
    x = spec.from_encoding(data.draw(code))
    naive = spec.zero()
    for i, c in enumerate(coeffs):
        naive = naive + c * x**i
    assert f.evaluate(x) == naive and f.evaluate(x).spec == spec
    n = data.draw(st.integers(-(2**70), 2**70))
    assert f.evaluate(n) == f.evaluate(spec.element(n))
    for other in (canonical_field(spec.p, spec.k % 4 + 1), prime_field(3 if spec.p != 3 else 5)):
        with pytest.raises(DomainError, match="different field"):
            f.evaluate(other.one())


# ---------------------------------------------------------------------------
# the representation contract: a Polynomial is its flat vector ``vec``, k
# ints in [0, p) per coefficient with a nonzero top block, and ``coeffs``,
# ``lc``, ``constant_term``, ``degree``, ``repr`` and ``sort_key`` read the
# same polynomial


CONTRACT_FIELDS = [prime_field(p) for p in (2, 3, 5, 7, M61)] + [
    canonical_field(p, k) for p in (2, 3, 5, 7) for k in (2, 3)
] + [FieldSpec(M61, 2, [1, 0, 1]), FieldSpec(M61, 3, [5, 1, 0, 1])]


def _ref_repr(coeffs):
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i]:
            cs = repr(coeffs[i])
            xs = "" if i == 0 else "x" if i == 1 else "x^%d" % i
            parts.append(cs if not xs else xs if cs == "1" else cs + "*" + xs)
    return " + ".join(parts) or "0"


def _assert_contract(f):
    spec, vec = f.spec, f.vec
    p, k = spec.p, spec.k
    assert type(vec) is list and len(vec) % k == 0
    assert all(type(x) is int and 0 <= x < p for x in vec)
    assert not vec or any(vec[-k:])
    coeffs = f.coeffs
    assert [c.spec for c in coeffs] == [spec] * len(coeffs)
    assert [x for c in coeffs for x in c.val] == vec
    g = Polynomial(spec, coeffs)
    assert g == f and hash(g) == hash(f)
    assert f.degree == len(coeffs) - 1
    assert f.lc() == (coeffs[-1] if coeffs else spec.zero())
    assert f.constant_term() == (coeffs[0] if coeffs else spec.zero())
    assert repr(f) == _ref_repr(coeffs)
    assert f.sort_key() == (len(coeffs) - 1, tuple(c.encoding() for c in reversed(coeffs)))


@st.composite
def _contract_case(draw):
    spec = draw(st.sampled_from(CONTRACT_FIELDS))
    code = st.one_of(st.just(0), st.just(1), st.integers(0, spec.order - 1))

    def poly():
        codes = draw(st.lists(code, max_size=7))
        if spec.k == 1 and draw(st.booleans()):
            # the int constructors reduce mod p, so draw outside [0, p) too
            ints = [c - draw(st.integers(0, 2)) * spec.p for c in codes]
            return Polynomial.from_ints(spec, ints) if draw(st.booleans()) else Polynomial(spec, ints)
        return Polynomial.from_elements(spec, [spec.from_encoding(c) for c in codes])

    a, b, m = poly(), poly(), poly()
    assume(m)
    return a, b, m, spec.from_encoding(draw(code)), draw(st.integers(0, 30))


@POLY_LAWS
@given(_contract_case())
def test_polynomial_representation_contract(case):
    a, b, m, c, e = case
    results = [a, b, a + b, a - b, -a, a * b, a * c, a.scale(c), a.powmod(e, m), poly_gcd(a, b), a.monic()]
    results += divmod(a, m)
    spec = a.spec
    if spec.k == 1 and spec.p < 100:
        results += [a.lift_to(canonical_field(spec.p, d)) for d in (2, 3)]
    assert a.lift_to(spec) is a
    for f in results:
        _assert_contract(f)
    assert a + b - b == a and -(-a) == a


# ---------------------------------------------------------------------------
# Frobenius as a GF(p)-linear map, against powers


@st.composite
def _frobenius_case(draw):
    spec = canonical_field(draw(st.sampled_from([2, 3, 5, 7, 11, M61])), draw(st.integers(1, 6)))
    coeff = st.one_of(st.just(0), st.just(1), st.integers(0, spec.p - 1))
    x, y = (spec.element(draw(st.lists(coeff, min_size=spec.k, max_size=spec.k))) for _ in range(2))
    return spec, x, y


def _power_orbit(coords):
    """The Frobenius orbit of ``frobenius_orbit``, from ``**``."""
    p = coords[0].spec.p
    orbit = [tuple(coords)]
    while True:
        cur = tuple(c**p for c in orbit[-1])
        if cur == orbit[0]:
            return orbit
        orbit.append(cur)


@settings(deadline=None, max_examples=100)
@given(_frobenius_case())
def test_frobenius_matches_powers(case):
    spec, x, y = case
    p, k = spec.p, spec.k
    assert x.frobenius() == x**p
    assert frobenius_orbit((x, y)) == _power_orbit((x, y))
    assert len(frobenius_orbit((x,))) == len(_power_orbit((x,)))
    assert spec.k % len(frobenius_orbit((x,))) == 0
    norm = x ** sum(p**i for i in range(k))
    trace = sum((x ** (p**i) for i in range(k)), spec.zero())
    assert norm_to_prime_field(x) == prime_field(p).element(norm.lift_int())
    assert trace_to_prime_field(x) == prime_field(p).element(trace.lift_int())
    if k == 1:
        assert x.frobenius() is x
