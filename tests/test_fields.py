from random import Random

import pytest

from adele_forge.errors import DomainError
from adele_forge.fields import (
    FieldSpec,
    Polynomial,
    RationalFunction,
    canonical_field,
    factor_polynomial,
    field_sqrt,
    is_prime,
    norm_to_prime_field,
    normalize_rational,
    poly_roots,
    prime_field,
    roots_in_field,
)

F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)


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
    assert factor_polynomial(f, seed=5) == factor_polynomial(f, seed=5)


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


def test_normalize_rational_examples():
    r = normalize_rational(Polynomial.from_ints(F5, [4, 0, 1]), Polynomial.from_ints(F5, [4, 1]))
    assert r == RationalFunction(Polynomial.from_ints(F5, [1, 1]))
    assert not normalize_rational(Polynomial.zero(F5), Polynomial.x(F5))
    r = normalize_rational(Polynomial.from_ints(F5, [0, 2]), Polynomial.from_ints(F5, [4]))
    assert r == RationalFunction(Polynomial.from_ints(F5, [0, 3]))
    with pytest.raises(DomainError):
        normalize_rational(Polynomial.one(F5), Polynomial.zero(F5))


def test_normalize_idempotent_randomized():
    rng = Random(5)
    for _ in range(25):
        num = Polynomial.from_ints(F7, [rng.randrange(7) for _ in range(4)])
        den = Polynomial.from_ints(F7, [rng.randrange(7) for _ in range(4)])
        if not den:
            continue
        r = normalize_rational(num, den)
        assert normalize_rational(r.num, r.den) == r
        assert r.den.lc() == F7.one()


def test_canonical_field_deterministic():
    a = canonical_field(5, 4)
    b = canonical_field(5, 4)
    assert a is b
    assert a.modulus == canonical_field(5, 4).modulus
