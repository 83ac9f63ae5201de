"""Exact arithmetic over GF(p) and GF(p^k), univariate polynomials over such
fields, and polynomial factorization.

Extension fields are realized as GF(p)[x]/(modulus); elements carry their
FieldSpec and coefficient vector.  A polynomial stores one flat list of GF(p)
ints, k per coefficient, low degree first: the format of ``series`` too.
FieldElements appear only at its edge (the constructors, ``lc``,
``constant_term``, ``evaluate`` and the read-only ``coeffs`` view).  Sums,
negation and scaling work on the ints for every k.  Over a prime field,
products, division, powers modulo a polynomial and gcds are the kernel
backend's (see ``_kernels``).  Over GF(p^k), k > 1:

- a product is ``_mul`` (shared with ``series``): coefficient by
  coefficient when either operand has one coefficient (``scale``, series
  times a constant), else one Kronecker-packed integer product;
- ``divmod``, and so ``%``, ``exact_div``, ``poly_gcd`` and every
  reduction step of ``powmod``, is long division on k-tuples
  (``_schoolbook_divmod``), one scalar inverse each.

The Frobenius map a -> a^p is GF(p)-linear (Lidl and Niederreiter, *Finite
Fields*, 2.1): FieldSpec holds its matrix, column j the class of x^(p*j).

Factorization is Cantor-Zassenhaus (``factor_polynomial``, ``poly_roots``);
the one root of an irreducible prime-field polynomial that a place or point
needs comes from the trace map instead (``root_in_field``), which takes no
extension-field power above (p - 1)/2.
"""

from functools import lru_cache, reduce
from itertools import zip_longest
from operator import add, mul
from random import Random

from . import _kernels as K
from .errors import DomainError

DEFAULT_EXT_BOUND = 6  # largest degree of a place or point searched for by default
# random draws one split may take: over a field a draw splits with
# probability about 1/2 or more, over a ring that is not a field perhaps never
SPLIT_DRAWS = 64


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the 13 bases of _WITNESSES is exact below this bound
# (OEIS A014233)
_MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n):
    """Whether n is prime, decided exactly.  DomainError for an n at or
    above _MILLER_RABIN_BOUND that has no factor in _WITNESSES."""
    if n < 2:
        return False
    if n in _WITNESSES:
        return True
    if any(n % a == 0 for a in _WITNESSES):
        return False
    if n >= _MILLER_RABIN_BOUND:
        raise DomainError(
            "characteristic %d is above %d, the largest the exact primality test decides"
            % (n, _MILLER_RABIN_BOUND - 1)
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """A finite field GF(p^k), with k > 1 presented as GF(p)[x]/(modulus);
    ``_frobenius`` holds the rows of the matrix of a -> a^p (None at k = 1)."""

    __slots__ = ("p", "k", "modulus", "_frobenius", "_hash")

    def __init__(self, p, k=1, modulus=None):
        if not is_prime(p):
            raise DomainError("characteristic %r is not prime" % (p,))
        if k < 1:
            raise DomainError("extension degree must be >= 1")
        if k == 1:
            if modulus is not None:
                raise DomainError("modulus must be absent for a prime field")
            self.modulus = self._frobenius = None
        else:
            if modulus is None:
                raise DomainError("extension field needs a modulus")
            mod = [c % p for c in modulus]
            while mod and mod[-1] == 0:
                mod.pop()
            if len(mod) != k + 1 or mod[-1] != 1:
                raise DomainError("modulus must be monic of degree %d" % k)
            if not Polynomial.from_ints(prime_field(p), mod).is_irreducible():
                raise DomainError("modulus is reducible over GF(%d)" % p)
            self.modulus = tuple(mod)
            cols = [K.poly_powmod([0, 1], p * j, mod, p) for j in range(k)]
            self._frobenius = tuple(zip(*[c + [0] * (k - len(c)) for c in cols]))
        self.p = p
        self.k = k
        self._hash = hash((p, k, self.modulus))

    @property
    def order(self):
        return self.p**self.k

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.k == 1:
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.k)

    def _elt(self, val):
        # val: reduced tuple of length k, no validation
        e = FieldElement.__new__(FieldElement)
        e.spec = self
        e.val = val
        return e

    def element(self, value):
        """Build an element from an int or a coefficient list (low first)."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise DomainError("field mismatch")
            return value
        if isinstance(value, int):
            return self._elt((value % self.p,) + (0,) * (self.k - 1))
        vals = [c % self.p for c in value]
        if len(vals) > self.k:
            raise DomainError("coefficient vector too long")
        vals += [0] * (self.k - len(vals))
        return self._elt(tuple(vals))

    def zero(self):
        return self._elt((0,) * self.k)

    def one(self):
        return self._elt((1,) + (0,) * (self.k - 1))

    def gen(self):
        """The class of x (for k > 1), or 1 for a prime field."""
        if self.k == 1:
            return self.one()
        return self._elt((0, 1) + (0,) * (self.k - 2))

    def elements(self):
        for n in range(self.order):
            yield self.from_encoding(n)

    def from_encoding(self, n):
        vals = []
        for _ in range(self.k):
            n, r = divmod(n, self.p)
            vals.append(r)
        return self._elt(tuple(vals))


@lru_cache(maxsize=None)
def prime_field(p):
    return FieldSpec(p)


def _binomial_can_be_irreducible(p, k):
    """Whether some x^k + c is irreducible over GF(p): iff every prime
    factor of k divides p - 1, and p = 1 mod 4 when 4 | k (Lidl and
    Niederreiter, Finite Fields, Thm 3.75)."""
    if k % 4 == 0 and p % 4 != 1:
        return False
    m, r = k, 2
    while m > 1:
        if m % r == 0:
            if (p - 1) % r:
                return False
            while m % r == 0:
                m //= r
        r += 1
    return True


@lru_cache(maxsize=None)
def canonical_field(p, k):
    """GF(p^k) with the lexicographically first monic irreducible modulus.

    Moduli are tried by encoding n = sum c_i p^i of their low coefficients;
    the encodings n < p are the binomials x^k + n, skipped as a family when
    none of them can be irreducible."""
    if k == 1:
        return prime_field(p)
    for n in range(0 if _binomial_can_be_irreducible(p, k) else p, p**k):
        mod = [n // p**i % p for i in range(k)] + [1]
        if Polynomial.from_ints(prime_field(p), mod).is_irreducible():
            return FieldSpec(p, k, mod)
    raise DomainError("no irreducible polynomial found")  # unreachable: one exists in every degree


def _power(base, e, result, mul=mul):
    """result * base^e for an int e >= 0, by square-and-multiply from the
    low bit; the base is squared only while higher bits remain.  The one
    power loop of field elements, polynomials, functions and points of E."""
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def _mulmod(a, b, modulus, p):
    """The product of two GF(p^k) coefficient tuples (length k, low degree
    first) reduced by the monic degree-k ``modulus``, as a reduced tuple."""
    k = len(a)
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    # x^d = -x^(d-k) * (modulus - x^k), from the top degree down
    for d in range(2 * k - 2, k - 1, -1):
        t = prod[d] % p
        if t:
            for j in range(k):
                prod[d - k + j] -= t * modulus[j]
    return tuple([c % p for c in prod[:k]])


def _form_values(coords, terms, n, d):
    """The values at ``coords`` = (x, y, z) of n ternary forms over GF(p), by
    ``terms``: triples (m, c, (i, j, l)) adding c * x^i y^j z^l to form m, no
    exponent above d.  The work is on the coordinates' ``val`` tuples: c is
    an int scalar, a power of a coordinate equal to 1 costs no ``_mulmod``,
    and only the n values become FieldElements."""
    spec = coords[0].spec
    if any(x.spec != spec for x in coords):
        raise DomainError("coordinates in different fields")
    p, k, modulus = spec.p, spec.k, spec.modulus
    if k == 1:
        t0, t1, t2 = ([pow(x.val[0], e, p) for e in range(d + 1)] for x in coords)
        sums = [0] * n
        for m, c, (i, j, l) in terms:
            sums[m] += c * t0[i] * t1[j] * t2[l]
        return [spec._elt((s % p,)) for s in sums]
    one = spec.one().val
    tables = [[one] * (d + 1) for _ in coords]
    for x, table in zip(coords, tables):
        for e in range(d if x.val != one else 0):
            table[e + 1] = _mulmod(table[e], x.val, modulus, p)
    sums = [[0] * k for _ in range(n)]
    for m, c, exps in terms:
        mono = one
        for table, e in zip(tables, exps):
            y = table[e]
            if y is not one:
                mono = y if mono is one else _mulmod(mono, y, modulus, p)
        sums[m] = [s + c * y for s, y in zip(sums[m], mono)]
    return [spec._elt(tuple([s % p for s in row])) for row in sums]


class FieldElement:
    """An element of a FieldSpec: ``val`` is its reduced coefficient tuple
    of length k over GF(p), low degree first.

    Every element comes from ``FieldSpec._elt`` or ``FieldSpec.element``.
    Operands of the same FieldSpec object take a fast path; an int operand
    is coerced into the field when it is the right operand, or either
    operand of + and * (``1 - x`` and ``1 / x`` raise TypeError), and an
    element of an equal but distinct spec (compared by value) is accepted
    too.  Elements of different fields raise DomainError.  At k = 1 the
    operators compute on ``val[0]`` with one reduction mod p; at k > 1 a
    product is a schoolbook product of the two tuples reduced by the monic
    modulus in the same routine (``_mulmod``).
    """

    __slots__ = ("spec", "val")

    def __bool__(self):
        return any(self.val)

    def __eq__(self, other):
        if other.__class__ is FieldElement and other.spec is self.spec:
            return self.val == other.val
        if isinstance(other, int):
            return self == self.spec.element(other)
        return (
            isinstance(other, FieldElement)
            and self.spec == other.spec
            and self.val == other.val
        )

    def __hash__(self):
        return hash((self.spec._hash, self.val))

    def __repr__(self):
        if self.spec.k == 1:
            return str(self.val[0])
        return "(" + ",".join(str(c) for c in self.val) + ")"

    def encoding(self):
        n = 0
        for c in reversed(self.val):
            n = n * self.spec.p + c
        return n

    def lift_int(self):
        if self.spec.k != 1 and any(self.val[1:]):
            raise DomainError("element not in the prime subfield")
        return self.val[0]

    def _coerce(self, other):
        if other.__class__ is FieldElement and other.spec is self.spec:
            return other
        if isinstance(other, int):
            return self.spec.element(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.spec != self.spec:
            raise DomainError("field mismatch: %r vs %r" % (self.spec, other.spec))
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        spec = self.spec
        p = spec.p
        if spec.k == 1:
            return spec._elt(((self.val[0] + other.val[0]) % p,))
        return spec._elt(tuple([(a + b) % p for a, b in zip(self.val, other.val)]))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        spec = self.spec
        p = spec.p
        if spec.k == 1:
            return spec._elt(((self.val[0] - other.val[0]) % p,))
        return spec._elt(tuple([(a - b) % p for a, b in zip(self.val, other.val)]))

    def __neg__(self):
        spec = self.spec
        p = spec.p
        if spec.k == 1:
            return spec._elt(((-self.val[0]) % p,))
        return spec._elt(tuple([(-a) % p for a in self.val]))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        spec = self.spec
        if spec.k == 1:
            return spec._elt(((self.val[0] * other.val[0]) % spec.p,))
        return spec._elt(_mulmod(self.val, other.val, spec.modulus, spec.p))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise DomainError("division by zero in %r" % (self.spec,))
        spec = self.spec
        if spec.k == 1:
            return spec._elt((pow(self.val[0], spec.p - 2, spec.p),))
        inv = K.poly_invmod(list(self.val), list(spec.modulus), spec.p)
        inv += [0] * (spec.k - len(inv))
        return spec._elt(tuple(inv))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return _power(self, e, self.spec.one())

    def frobenius(self):
        """The p-th power: ``self`` at k = 1, else the Frobenius matrix times ``val``."""
        spec = self.spec
        if spec.k == 1:
            return self
        return spec._elt(tuple([sum(map(mul, row, self.val)) % spec.p for row in spec._frobenius]))


def frobenius_orbit(coords):
    """The Frobenius orbit of a tuple of elements of one field: the tuple,
    then its coordinatewise p-th powers, and so on until the tuple itself
    comes back (which it does not repeat)."""
    orbit = [tuple(coords)]
    while True:
        cur = tuple(c.frobenius() for c in orbit[-1])
        if cur == orbit[0]:
            return orbit
        orbit.append(cur)


def _conjugates(a):
    """The k Frobenius conjugates a, a^p, ..., a^(p^(k-1)), k = a.spec.k."""
    out = [a]
    for _ in range(a.spec.k - 1):
        out.append(out[-1].frobenius())
    return out


def norm_to_prime_field(a):
    """Product of the Frobenius conjugates a * a^p * ... * a^(p^(k-1))."""
    return prime_field(a.spec.p)._elt((reduce(mul, _conjugates(a)).lift_int(),))


def trace_to_prime_field(a):
    return prime_field(a.spec.p)._elt((reduce(add, _conjugates(a)).lift_int(),))


def field_sqrt(a):
    """A square root of a in its own field, or None if a is not a square.

    In odd characteristic the root comes from Tonelli-Shanks; of the two
    roots +-r the one of smaller encoding is returned, so the choice of
    non-residue does not matter.  The non-residue is searched from encoding
    2, or from encoding p (the elements x + c) when k is even, since then
    every prime-field element is a square.  In characteristic 2 the root
    a^(q/2) is unique.
    """
    spec = a.spec
    q = spec.order
    if not a:
        return spec.zero()
    if spec.p == 2:
        return a ** (q // 2)
    one = spec.one()
    if a ** ((q - 1) // 2) != one:
        return None
    # q - 1 = 2^s * t with t odd
    s, t = 0, q - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    r = a ** ((t + 1) // 2)
    if s > 1:
        n = spec.p if spec.k % 2 == 0 else 2
        while spec.from_encoding(n) ** ((q - 1) // 2) == one:
            n += 1
        c = spec.from_encoding(n) ** t  # a generator of the 2-Sylow subgroup
        b = a ** t
        m = s
        while b != one:
            # least i with b^(2^i) = 1; then i < m
            i, b2 = 0, b
            while b2 != one:
                b2 = b2 * b2
                i += 1
            for _ in range(m - i - 1):
                c = c * c
            r = r * c
            c = c * c
            b = b * c
            m = i
    neg = -r
    return neg if neg.encoding() < r.encoding() else r


# ---------------------------------------------------------------------------
# flat GF(p) vectors: a sequence of GF(p^k) coefficients stored as k ints
# each (the coefficient vectors of the field elements, low degree first).
# Every polynomial and every Laurent series is stored as one.


def _slots(vec, count, k, stride):
    """The first ``count`` coefficients of a flat vector, component j of
    coefficient i in slot i*stride+j and zeros between."""
    out = [0] * (count * stride)
    for j in range(k):
        out[j::stride] = vec[j : count * k : k]
    return out


def _pack(slots, width):
    """The slots as one int, ``width`` bytes each, slot 0 lowest."""
    return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in slots]), "little")


def _unpack(n, total, count, width, p):
    """The lowest ``count`` of the ``total`` slots of n, reduced mod p."""
    raw = n.to_bytes(total * width, "little")
    frombytes = int.from_bytes
    return [frombytes(raw[i : i + width], "little") % p for i in range(0, count * width, width)]


def _mul(spec, a, b, n):
    """The first n coefficients (n*k ints, zero-padded) of the product of
    the flat vectors a and b.

    Which algorithm runs depends only on the operands' lengths (truncated
    to n): with one coefficient in either operand the product is taken
    coefficient by coefficient (one comprehension at k = 1, ``_mulmod`` per
    coefficient at k > 1), which serves ``scale`` over GF(p^k) and series
    times a constant; longer operands are Kronecker-packed into two ints and
    multiplied once, with each chunk reduced by the modulus."""
    p, k = spec.p, spec.k
    la = min(len(a) // k, n)
    lb = min(len(b) // k, n)
    out = [0] * (max(n, 0) * k)
    if not la or not lb:
        return out
    if la == 1 or lb == 1:
        if la == 1:
            a, b, la = b, a, lb
        if k == 1:
            c = b[0]
            out[:la] = [x * c % p for x in a[:la]]
        else:
            c, modulus = b[:k], spec.modulus
            out[: la * k] = [x for i in range(0, la * k, k) for x in _mulmod(c, a[i : i + k], modulus, p)]
        return out
    stride = 2 * k - 1
    m = min(n, la + lb - 1)
    # a slot sums at most min(la, lb) * k products of two ints below p
    width = ((min(la, lb) * k * (p - 1) ** 2).bit_length() + 7) >> 3
    prod = _pack(_slots(a, la, k, stride), width) * _pack(_slots(b, lb, k, stride), width)
    slots = _unpack(prod, (la + lb - 1) * stride, m * stride, width, p)
    # x^d -> x^d - x^(d-k) * modulus for d = 2k-2 .. k in every chunk
    modulus = spec.modulus
    for d in range(2 * k - 2, k - 1, -1):
        top = slots[d::stride]
        for j in range(k):
            c = modulus[j]
            if c:
                col = d - k + j
                slots[col::stride] = [(x - c * t) % p for x, t in zip(slots[col::stride], top)]
    for j in range(k):
        out[j : m * k : k] = slots[j::stride]
    return out


def _newton_steps(n):
    """Precision pairs (m, m2) with m2 <= 2m, climbing from 1 to n."""
    precs = [n]
    while precs[-1] > 1:
        precs.append((precs[-1] + 1) // 2)
    precs.reverse()
    return list(zip(precs, precs[1:]))


def _inverse(spec, a, n):
    """The first n coefficients of 1/a, for a flat vector with a unit
    constant term: the series inverse (``series``)."""
    p, k = spec.p, spec.k
    b = list(spec._elt(tuple(a[:k])).inverse().val)
    for m, m2 in _newton_steps(n):
        # a*b = 1 + t^m * e, so b - b*(a*b - 1) adds -b*e at t^m
        e = _mul(spec, a, b, m2)[m * k :]
        b += [(-c) % p for c in _mul(spec, b, e, m2 - m)]
    return b


def _trim(vec, k):
    """vec without its trailing zero coefficients, in place."""
    n = len(vec)
    while n and not vec[n - 1]:
        n -= 1
    del vec[n + (-n % k) :]
    return vec


def _poly_mul(spec, a, b):
    """The full product of two flat polynomials without trailing zeros."""
    if not a or not b:
        return []
    k = spec.k
    return _mul(spec, a, b, len(a) // k + len(b) // k - 1)


def _schoolbook_divmod(spec, a, b):
    """Quotient and remainder, without trailing zeros, of the flat
    polynomials a by b (both without trailing zeros, b nonzero) over
    GF(p^k): the prime-field kernel's long division on k-tuples, with one
    scalar inverse of lc(b) and one ``_mulmod`` per divisor coefficient for
    each quotient coefficient."""
    p, k, modulus = spec.p, spec.k, spec.modulus
    nb = len(b) // k
    nq = len(a) // k - nb + 1
    if nq <= 0:
        return [], a
    lead = b[-k:]
    inv = None if lead == [1] + [0] * (k - 1) else spec._elt(tuple(lead)).inverse().val
    low = [b[j : j + k] for j in range(0, (nb - 1) * k, k)]
    r = [a[i : i + k] for i in range(0, len(a), k)]
    q = []
    for i in range(nq - 1, -1, -1):
        c = r[i + nb - 1] if inv is None else _mulmod(inv, r[i + nb - 1], modulus, p)
        q.append(c)
        if any(c):
            for j, y in enumerate(low):
                r[i + j] = [(u - v) % p for u, v in zip(r[i + j], _mulmod(c, y, modulus, p))]
    return [x for c in reversed(q) for x in c], _trim([x for c in r[: nb - 1] for x in c], k)


class Polynomial:
    """Univariate polynomial over a FieldSpec, stored as ``vec``: one flat
    list of GF(p) ints, k per coefficient, low degree first, with no
    trailing zero coefficient (the format of ``series``).  ``coeffs`` is a
    read-only view of it as FieldElements."""

    __slots__ = ("spec", "vec")

    def __init__(self, spec, coeffs):
        self.spec = spec
        self.vec = _trim([x for c in coeffs for x in spec.element(c).val], spec.k)

    @classmethod
    def _raw(cls, spec, vec):
        """The polynomial of a flat vector without trailing zero coefficients."""
        poly = cls.__new__(cls)
        poly.spec = spec
        poly.vec = vec
        return poly

    @classmethod
    def from_elements(cls, spec, elts):
        return cls._raw(spec, _trim([x for c in elts for x in c.val], spec.k))

    @classmethod
    def from_ints(cls, spec, ints):
        ints = [c % spec.p for c in ints]
        return cls._raw(spec, _trim(_slots(ints, len(ints), 1, spec.k), spec.k))

    @classmethod
    def zero(cls, spec):
        return cls._raw(spec, [])

    @classmethod
    def one(cls, spec):
        return cls._raw(spec, list(spec.one().val))

    @classmethod
    def x(cls, spec):
        return cls._raw(spec, [0] * spec.k + list(spec.one().val))

    @classmethod
    def constant(cls, c):
        return cls._raw(c.spec, list(c.val) if c else [])

    @property
    def coeffs(self):
        spec, vec, k = self.spec, self.vec, self.spec.k
        return tuple(spec._elt(tuple(vec[i : i + k])) for i in range(0, len(vec), k))

    @property
    def degree(self):
        return len(self.vec) // self.spec.k - 1

    def __bool__(self):
        return bool(self.vec)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.spec == other.spec
            and self.vec == other.vec
        )

    def __hash__(self):
        return hash((self.spec._hash, tuple(self.vec)))

    def __repr__(self):
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if not c:
                continue
            cs = repr(c)
            if i == 0:
                parts.append(cs)
            else:
                xs = "x" if i == 1 else "x^%d" % i
                parts.append(xs if cs == "1" else "%s*%s" % (cs, xs))
        return " + ".join(parts)

    def lc(self):
        if not self.vec:
            return self.spec.zero()
        return self.spec._elt(tuple(self.vec[-self.spec.k :]))

    def constant_term(self):
        if not self.vec:
            return self.spec.zero()
        return self.spec._elt(tuple(self.vec[: self.spec.k]))

    def _check(self, other):
        if self.spec != other.spec:
            raise DomainError("polynomial field mismatch")

    def __add__(self, other):
        self._check(other)
        p = self.spec.p
        vec = [(x + y) % p for x, y in zip_longest(self.vec, other.vec, fillvalue=0)]
        return Polynomial._raw(self.spec, _trim(vec, self.spec.k))

    def __sub__(self, other):
        self._check(other)
        p = self.spec.p
        vec = [(x - y) % p for x, y in zip_longest(self.vec, other.vec, fillvalue=0)]
        return Polynomial._raw(self.spec, _trim(vec, self.spec.k))

    def __neg__(self):
        p = self.spec.p
        return Polynomial._raw(self.spec, [(-x) % p for x in self.vec])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        self._check(other)
        spec = self.spec
        if spec.k == 1:
            return Polynomial._raw(spec, K.poly_mul(self.vec, other.vec, spec.p))
        return Polynomial._raw(spec, _poly_mul(spec, self.vec, other.vec))

    def scale(self, c):
        spec = self.spec
        c = spec.element(c)
        if spec.k == 1:
            return Polynomial._raw(spec, K.poly_scale(self.vec, c.val[0], spec.p))
        return Polynomial._raw(spec, _trim(_mul(spec, self.vec, c.val, self.degree + 1), spec.k))

    def __divmod__(self, other):
        """Quotient and remainder by long division: the kernel backend's
        over GF(p), ``_schoolbook_divmod`` over GF(p^k).  The same division
        serves ``%``, ``exact_div``, ``poly_gcd``, ``root_multiplicity`` and
        every reduction step of ``powmod``."""
        self._check(other)
        if not other:
            raise DomainError("polynomial division by zero")
        spec = self.spec
        if spec.k == 1:
            q, r = K.poly_divmod(self.vec, other.vec, spec.p)
        else:
            q, r = _schoolbook_divmod(spec, self.vec, other.vec)
        return Polynomial._raw(spec, q), Polynomial._raw(spec, r)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if r:
            raise DomainError("inexact polynomial division")
        return q

    def __pow__(self, e):
        if e < 0:
            raise DomainError("negative polynomial power")
        return _power(self, e, Polynomial.one(self.spec))

    def powmod(self, e, modulus):
        """self^e mod modulus for e >= 0 (the constant 1 when e = 0)."""
        self._check(modulus)
        if e < 0:
            raise DomainError("negative polynomial power")
        if not modulus:
            raise DomainError("polynomial division by zero")
        spec = self.spec
        if spec.k == 1:
            return Polynomial._raw(spec, K.poly_powmod(self.vec, e, modulus.vec, spec.p))
        if not e:
            return Polynomial.one(spec)
        m = modulus.vec

        def mulmod(a, b):  # the first product into the result is b itself
            return b if a is None else _schoolbook_divmod(spec, _poly_mul(spec, a, b), m)[1]

        return Polynomial._raw(spec, _power(_schoolbook_divmod(spec, self.vec, m)[1], e, None, mulmod))

    def monic(self):
        if not self:
            return self
        if self.lc() == self.spec.one():
            return self
        return self.scale(self.lc().inverse())

    def evaluate(self, x):
        """The value at x (an int or an element of this field), by Horner
        on the flat vector: on ints over GF(p), on k-tuples reduced by the
        modulus over GF(p^k)."""
        spec = self.spec
        if isinstance(x, int):
            x = spec.element(x)
        if x.spec != spec:
            raise DomainError("evaluation point in a different field")
        p, k, vec = spec.p, spec.k, self.vec
        if k == 1:
            return spec._elt((K.poly_eval(vec, x.val[0], p),))
        y = (0,) * k
        for i in range(len(vec) - k, -1, -k):
            y = tuple([(a + c) % p for a, c in zip(_mulmod(y, x.val, spec.modulus, p), vec[i : i + k])])
        return spec._elt(y)

    def derivative(self):
        coeffs, spec = self.coeffs, self.spec
        return Polynomial.from_elements(spec, [coeffs[i] * spec.element(i) for i in range(1, len(coeffs))])

    def compose(self, other):
        """self(other) for a polynomial argument, by Horner on the flat
        coefficient blocks."""
        self._check(other)
        spec, k, vec = self.spec, self.spec.k, self.vec
        result = Polynomial.zero(spec)
        for i in range(len(vec) - k, -1, -k):
            result = result * other + Polynomial._raw(spec, _trim(vec[i : i + k], k))
        return result

    def shift(self, a):
        """self(x + a)."""
        x_plus = Polynomial.from_elements(self.spec, [a, self.spec.one()])
        return self.compose(x_plus)

    def lift_to(self, spec):
        """Reinterpret a prime-field polynomial over an extension of GF(p)."""
        if self.spec == spec:
            return self
        if self.spec.k != 1 or spec.p != self.spec.p:
            raise DomainError("can only lift from the prime subfield")
        return Polynomial._raw(spec, _slots(self.vec, len(self.vec), 1, spec.k))

    def root_multiplicity(self, x0):
        """Multiplicity of the root x0 (0 if not a root)."""
        m = 0
        f = self
        lin = Polynomial.from_elements(self.spec, [-x0, self.spec.one()])
        while f and not f.evaluate(x0):
            f = f.exact_div(lin)
            m += 1
        return m

    def sort_key(self):
        return (self.degree, tuple(c.encoding() for c in reversed(self.coeffs)))

    def is_irreducible(self):
        if self.degree < 1:
            return False
        f = self.monic()
        return next(_distinct_degree(f)) == (f, f.degree)


def poly_gcd(a, b):
    if a.spec != b.spec:
        raise DomainError("polynomial field mismatch")
    if a.spec.k == 1:
        return Polynomial._raw(a.spec, K.poly_gcd(a.vec, b.vec, a.spec.p))
    while b:
        a, b = b, a % b
    return a.monic()


def _pth_root(f):
    """For f with f' = 0, the polynomial g with g(x)^p = f(x): the inverse
    of Frobenius, sigma^(k-1), on every p-th coefficient."""
    return Polynomial.from_elements(f.spec, [_conjugates(c)[-1] for c in f.coeffs[:: f.spec.p]])


def _squarefree_decomposition(f):
    """Monic f -> list of (monic squarefree g, multiplicity), pairwise coprime."""
    spec = f.spec
    p = spec.p
    out = []
    df = f.derivative()
    if not df:
        for g, m in _squarefree_decomposition(_pth_root(f)):
            out.append((g, m * p))
        return out
    c = poly_gcd(f, df)
    w = f.exact_div(c)
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        z = w.exact_div(y)
        if z.degree > 0:
            out.append((z, i))
        w = y
        c = c.exact_div(y)
        i += 1
    if c.degree > 0:
        for g, m in _squarefree_decomposition(_pth_root(c)):
            out.append((g, m * p))
    return out


def _distinct_degree(f):
    """Squarefree monic f -> its blocks (product of irreducibles of degree
    d, d), by increasing d.  For any monic f of positive degree the first
    block is (f, deg f) exactly when f is irreducible (``is_irreducible``)."""
    q = f.spec.order
    h = x = Polynomial.x(f.spec)
    d = 0
    while f.degree > 0:
        d += 1
        if f.degree < 2 * d:
            yield f, f.degree
            return
        h = h.powmod(q, f)
        g = poly_gcd(h - x, f)
        if g.degree > 0:
            yield g, d
            f = f.exact_div(g)
            h = h % f


def _split_once(f, d, rng):
    """A proper monic factor of f, a squarefree product of at least two
    degree-d irreducibles: one Cantor-Zassenhaus step, drawing random
    polynomials until one splits f, at most SPLIT_DRAWS of them.  It serves
    ``_equal_degree_split`` (``factor_polynomial`` and ``poly_roots``);
    ``root_in_field`` splits by the trace map instead."""
    spec = f.spec
    q = spec.order
    n = f.degree
    for _ in range(SPLIT_DRAWS):
        a = Polynomial.from_elements(
            spec, [spec.from_encoding(rng.randrange(q)) for _ in range(n)]
        )
        if a.degree < 1:
            continue
        g = poly_gcd(a, f)
        if 0 < g.degree < n:
            return g
        if spec.p == 2:
            t = a % f
            acc = t
            for _ in range(spec.k * d - 1):
                t = t.powmod(2, f)
                acc = (acc + t) % f
            g = poly_gcd(acc, f)
        else:
            b = a.powmod((q**d - 1) // 2, f)
            g = poly_gcd(b - Polynomial.one(spec), f)
        if 0 < g.degree < n:
            return g
    raise DomainError("no split in %d random draws: the coefficients are not a field" % SPLIT_DRAWS)


def _equal_degree_split(f, d, rng):
    """Split a squarefree product of degree-d irreducibles (Cantor-Zassenhaus)."""
    if f.degree == d:
        return [f]
    g = _split_once(f, d, rng)
    return _equal_degree_split(g, d, rng) + _equal_degree_split(f.exact_div(g), d, rng)


def factor_polynomial(f):
    """Full factorization over the coefficient field.

    Returns (leading coefficient, [(monic irreducible, multiplicity), ...])
    with factors in a deterministic order (degree, then coefficient order).
    The randomized splitting draws from Random(0).
    """
    if not f:
        raise DomainError("cannot factor zero")
    lc = f.lc()
    f = f.monic()
    rng = Random(0)
    factors = []
    if f.degree == 0:
        return lc, []
    for g, mult in _squarefree_decomposition(f):
        for part, d in _distinct_degree(g):
            for irr in _equal_degree_split(part, d, rng):
                factors.append((irr, mult))
    factors.sort(key=lambda fm: fm[0].sort_key())
    return lc, factors


def poly_roots(f):
    """All roots of f in its own coefficient field (each listed once)."""
    if not f:
        raise DomainError("cannot take roots of zero")
    spec = f.spec
    q = spec.order
    x = Polynomial.x(spec)
    g = poly_gcd(f, x.powmod(q, f) - x)
    roots = []
    rng = Random(0)
    if g.degree > 0:
        for lin in _equal_degree_split(g, 1, rng):
            roots.append(-lin.constant_term())
    roots.sort(key=lambda r: r.encoding())
    return roots


def roots_in_field(f, field):
    """Roots in ``field`` of a prime-field polynomial f."""
    return poly_roots(f.lift_to(field))


def root_in_field(g, field):
    """``roots_in_field(g, field)[0]``: the root of smallest encoding in
    ``field`` of g, a linear polynomial over ``field`` or an irreducible
    prime-field polynomial whose degree d divides ``field.k``.

    g's roots are one Frobenius orbit, so one root found in any way gives
    the answer.  It is found by the trace map (von zur Gathen & Gerhard,
    Modern Computer Algebra, 14.3): with X_i = x^(p^i) mod g over GF(p),
    computed by prime-field ``powmod``, the polynomial
    T = sum_i sigma^i(beta) X_i over ``field`` has T(r) = Tr(beta r) in GF(p)
    at every root r.  For random beta (and c), gcd(f, (T + c)^((p-1)/2) - 1)
    (gcd(f, T) when p = 2) splits f; each split keeps the smaller half
    until one linear factor is left.  No extension-field power above
    (p - 1)/2 is taken.  x^(p^d) = x mod g is checked first: it holds iff g
    divides x^(p^d) - x, so a g that is not squarefree or does not split
    raises DomainError instead of looping, as does a split past SPLIT_DRAWS.
    """
    d = g.degree
    if d < 1 or field.k % (g.spec.k * d):
        raise DomainError(
            "root_in_field needs a degree dividing %d, not %d" % (field.k, d)
        )
    f = g.lift_to(field).monic()
    if d == 1:
        return -f.constant_term()
    # so g is over GF(p): over ``field`` itself d >= 2 fails the degree
    # check, and ``lift_to`` raises for every other subfield
    p, k = field.p, field.k
    # x^(p^i) mod g for i <= d; they repeat with period d once x^(p^d) = x
    g0 = g.monic()
    xs = [Polynomial.x(g.spec)]
    for _ in range(d):
        xs.append(xs[-1].powmod(p, g0))
    if xs.pop() != xs[0]:
        raise DomainError("root_in_field needs an irreducible polynomial")
    cols = [x.vec + [0] * (d - len(x.vec)) for x in xs]
    rng = Random(0)
    one = Polynomial.one(field)
    while f.degree > 1:
        for _ in range(SPLIT_DRAWS):
            conj = _conjugates(field.from_encoding(rng.randrange(1, field.order)))
            # conj[i] = sigma^i(beta), beta random; T_j = sum_i X_i[j] * conj[i], k ints each
            t = [
                sum(cols[i % d][j] * conj[i].val[s] for i in range(k)) % p
                for j in range(d)
                for s in range(k)
            ]
            T = Polynomial._raw(field, _trim(t, k)) % f
            if p == 2:
                h = poly_gcd(f, T)
            else:
                T += Polynomial.constant(field.element(rng.randrange(p)))
                h = poly_gcd(f, T.powmod((p - 1) // 2, f) - one)
            if 0 < h.degree < f.degree:
                break
        else:
            raise DomainError("no split in %d random draws: the coefficients are not a field" % SPLIT_DRAWS)
        rest = f.exact_div(h)
        f = h if h.degree <= rest.degree else rest
    orbit = frobenius_orbit((-f.constant_term(),))
    if len(orbit) != d:
        raise DomainError("root_in_field needs an irreducible polynomial")
    return min((r for (r,) in orbit), key=lambda r: r.encoding())
