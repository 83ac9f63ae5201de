"""Contracts of the GF(p) kernels in ``adele_forge._kernels``.

Each kernel is checked against a reference written here or against an
algebraic identity, over primes from 2 up to 2^61 - 1, so that no kernel
may assume its coefficients or their products fit in a machine word.
Polynomials are lists of ints in [0, p), lowest degree first, with no
trailing zeros; kernels must not mutate their inputs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adele_forge import _kernels as K

PRIMES = (2, 3, 7, 101, 32749, 2**31 - 1, 2**61 - 1)

KERNELS = settings(deadline=None, max_examples=150)


def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def ref_mul(a, b, p):
    c = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] = (c[i + j] + x * y) % p
    return trim(c)


def ref_add(a, b, p):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return trim((x + y) % p for x, y in zip(a, b))


def ref_mod(a, m, p):
    r = trim(a)
    inv = pow(m[-1], -1, p)
    while len(r) >= len(m):
        c, shift = r[-1] * inv % p, len(r) - len(m)
        for j, y in enumerate(m):
            r[shift + j] = (r[shift + j] - c * y) % p
        r = trim(r)
    return r


def ref_rank(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def field_polys(draw, n=2, max_len=8):
    """A prime p and n normalized polynomials over GF(p)."""
    p = draw(st.sampled_from(PRIMES))
    coeff = st.integers(0, p - 1)
    polys = []
    for _ in range(n):
        a = draw(st.lists(coeff, max_size=max_len))
        if a and a[-1] == 0:
            a[-1] = draw(st.integers(1, p - 1))
        polys.append(a)
    return (p, *polys)


def modulus(p, draw):
    """A polynomial of degree >= 1 over GF(p) (not necessarily monic)."""
    m = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=5))
    return m + [draw(st.integers(1, p - 1))]


def unchanged(fn, *args):
    """Call ``fn(*args)`` and check that no list argument was mutated."""
    before = [list(x) if isinstance(x, list) else x for x in args]
    out = fn(*args)
    assert list(args) == before
    return out


@KERNELS
@given(field_polys())
def test_add_sub_neg(case):
    p, a, b = case
    s = unchanged(K.poly_add, a, b, p)
    assert s == ref_add(a, b, p)
    assert unchanged(K.poly_sub, s, b, p) == a
    neg = unchanged(K.poly_neg, b, p)
    assert ref_add(b, neg, p) == []
    assert K.poly_sub(a, b, p) == ref_add(a, neg, p)


@KERNELS
@given(field_polys(n=1), st.integers(-(2**62), 2**62))
def test_scale(case, s):
    p, a = case
    assert unchanged(K.poly_scale, a, s, p) == trim(x * s % p for x in a)


@KERNELS
@given(field_polys())
def test_mul_schoolbook(case):
    p, a, b = case
    assert unchanged(K.poly_mul, a, b, p) == ref_mul(a, b, p)


@KERNELS
@given(field_polys(), st.integers(0, 3))
def test_divmod_identity(case, pad):
    p, a, b = case
    b_padded = b + [0] * pad  # divisors need not be trimmed
    if not b:
        with pytest.raises(ZeroDivisionError):
            K.poly_divmod(a, b_padded, p)
        return
    q, r = unchanged(K.poly_divmod, a, b_padded, p)
    assert q == trim(q) and r == trim(r)
    assert len(r) < len(b)
    assert ref_add(ref_mul(q, b, p), r, p) == a
    assert unchanged(K.poly_mod, a, b_padded, p) == r


@KERNELS
@given(field_polys(n=3, max_len=5))
def test_gcd_monic_common_divisor(case):
    p, a, b, c = case
    g = unchanged(K.poly_gcd, a, b, p)
    if not a and not b:
        assert g == []
        return
    assert g and g[-1] == 1
    assert ref_mod(a, g, p) == [] and ref_mod(b, g, p) == []
    # every common divisor divides the gcd
    if c:
        g = K.poly_gcd(ref_mul(a, c, p), ref_mul(b, c, p), p)
        assert ref_mod(g, c, p) == []


@KERNELS
@given(st.data())
def test_invmod(data):
    p, a = data.draw(field_polys(n=1))
    m = modulus(p, data.draw)
    unit = K.poly_gcd(a, m, p) == [1]
    if not unit:
        with pytest.raises(ZeroDivisionError):
            K.poly_invmod(a, m, p)
        return
    inv = unchanged(K.poly_invmod, a, m, p)
    assert len(inv) < len(m)
    assert ref_mod(ref_mul(a, inv, p), m, p) == [1]


@KERNELS
@given(st.data(), st.integers(-6, 12))
def test_powmod_repeated_multiplication(data, e):
    p, a = data.draw(field_polys(n=1))
    m = modulus(p, data.draw)
    base = a
    if e < 0:
        if K.poly_gcd(a, m, p) != [1]:
            with pytest.raises(ZeroDivisionError):
                K.poly_powmod(a, e, m, p)
            return
        base = K.poly_invmod(a, m, p)
    want = [1]
    for _ in range(abs(e)):
        want = ref_mod(ref_mul(want, base, p), m, p)
    assert unchanged(K.poly_powmod, a, e, m, p) == want


@KERNELS
@given(st.data())
def test_eval_horner(data):
    p, a = data.draw(field_polys(n=1))
    x = data.draw(st.integers(0, p - 1))
    assert unchanged(K.poly_eval, a, x, p) == sum(c * pow(x, i, p) for i, c in enumerate(a)) % p


@KERNELS
@given(st.data())
def test_rref_reduced_and_same_row_space(data):
    p = data.draw(st.sampled_from(PRIMES))
    ncols = data.draw(st.integers(1, 6))
    # small entries make dependent rows likely at large p
    row = st.lists(st.integers(0, min(p - 1, 3)) | st.integers(0, p - 1), min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(row, min_size=1, max_size=5))
    original = [list(r) for r in rows]
    out, pivots = K.mat_rref(rows, p)
    assert len(out) == len(original)
    assert all(0 <= x < p for r in out for x in r)
    # reduced echelon form: increasing pivots, unit pivot entries, zero
    # columns above and below each pivot, zero rows last
    assert pivots == sorted(set(pivots))
    for i, col in enumerate(pivots):
        assert out[i][:col] == [0] * col and out[i][col] == 1
        assert all(out[j][col] == 0 for j in range(len(out)) if j != i)
    assert all(not any(r) for r in out[len(pivots):])
    # same row space: every input row is the combination of the pivot rows
    # given by its own pivot-column entries, and there are rank many of them
    for r in original:
        combo = [0] * ncols
        for i, col in enumerate(pivots):
            combo = [(x + r[col] * y) % p for x, y in zip(combo, out[i])]
        assert combo == r
    assert len(pivots) == ref_rank(original, p)


def test_rref_empty():
    assert K.mat_rref([], 7) == ([], [])
