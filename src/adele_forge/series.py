"""Truncated Laurent series over a finite field.

Used for local expansions at places of a curve: principal parts for the
adelic cohomology computation, vanishing conditions for Riemann-Roch bases
and residues of 1-forms.  Leading values of functions at places need no
series (``curves.leading_term``).

A series holds coefficients for exponents start, start+1, ..., prec-1 and
knows nothing beyond prec.  Arithmetic tracks the resulting precision
honestly; callers take a working precision large enough for the result
they need and raise ``DomainError`` if it still falls short.

Representation: a series over GF(p^k) stores its coefficients as one flat
list of GF(p) ints, k per coefficient (the coefficient vector of the field
element, low degree first); over a prime field that is just the list of
coefficients.  Every operation works on these ints through one code path
for all k:

- the truncated product packs each operand into one Python int (Kronecker
  substitution: coefficient i, component j in slot i*(2k-1)+j, each slot
  wide enough for the largest sum of products), multiplies once, unpacks
  only the slots below the truncation and reduces each (2k-1)-slot chunk
  modulo the field's modulus (nothing to reduce when k = 1);
- the inverse is Newton's iteration on that product, doubling the number
  of correct coefficients per step (von zur Gathen & Gerhard, Modern
  Computer Algebra, ch. 9).  The one scalar field operation left is the
  inverse of the leading coefficient.

Local expansions at a smooth point of a plane curve F(t, v) = 0 are its
branch v(t) in a local parameter t (Fulton, *Algebraic Curves*, 3.3), and
``_newton_root`` is the one routine that lifts a branch: F is given by its
rows, the polynomials in t of each power of v, and F(v) and F_v(v) come
from one Horner helper, ``_horner``.  The elliptic expansions (``curves``)
and the flag valuations (``surface``) both call it.

The product and the Newton inverse live in ``fields`` (``_mul``,
``_inverse``); it multiplies polynomials over GF(p^k) by the same product,
while the inverse serves only this module.  A
``fields.Polynomial`` stores its coefficients in this same format, so
``from_polynomial`` copies its vector.

FieldElements appear only at the boundary: the constructors take them
and ``coefficient`` returns one.
"""

from .errors import DomainError
from .fields import _inverse, _mul


class LaurentSeries:
    __slots__ = ("spec", "start", "coeffs", "prec")

    def __init__(self, spec, start, coeffs, prec):
        # coeffs: flat GF(p) ints, spec.k per coefficient.  Drop leading
        # zero coefficients, clamp to the precision window, drop trailing.
        k = spec.k
        n = len(coeffs)
        lo = 0
        while lo < n and not coeffs[lo]:
            lo += 1
        lo -= lo % k
        start += lo // k
        hi = min(n, lo + max(0, prec - start) * k)
        while hi > lo and not coeffs[hi - 1]:
            hi -= 1
        hi += (lo - hi) % k
        if hi == lo:
            start = prec
        self.spec = spec
        self.start = start
        self.coeffs = coeffs[lo:hi]
        self.prec = prec

    @classmethod
    def zero(cls, spec, prec):
        return cls(spec, prec, [], prec)

    @classmethod
    def constant(cls, c, prec):
        return cls(c.spec, 0, list(c.val), prec)

    @classmethod
    def var(cls, spec, prec, exponent=1):
        """The series t^exponent."""
        return cls(spec, exponent, list(spec.one().val), prec)

    @classmethod
    def from_polynomial(cls, poly, prec, var=None):
        """poly(t) as a series, or poly(var) for a series argument."""
        spec, vec = poly.spec, poly.vec
        if var is None or not vec:
            return cls(spec, 0, vec, prec)
        k = spec.k
        result = cls(spec, 0, vec[-k:], prec)
        for i in range(len(vec) - 2 * k, -1, -k):
            result = result * var + cls(spec, 0, vec[i : i + k], prec)
        return result

    def is_zero_to_precision(self):
        return not self.coeffs

    def valuation(self):
        if not self.coeffs:
            return None
        return self.start

    def coefficient(self, n):
        if n >= self.prec:
            raise DomainError("coefficient beyond series precision")
        k = self.spec.k
        i = (n - self.start) * k
        if i < 0 or i >= len(self.coeffs):
            return self.spec.zero()
        return self.spec._elt(tuple(self.coeffs[i : i + k]))

    def __repr__(self):
        k = self.spec.k
        terms = [
            "%r*t^%d" % (self.spec._elt(tuple(self.coeffs[i : i + k])), self.start + i // k)
            for i in range(0, len(self.coeffs), k)
            if any(self.coeffs[i : i + k])
        ]
        body = " + ".join(terms) if terms else "0"
        return "<%s + O(t^%d)>" % (body, self.prec)

    def _check_field(self, other):
        if other.spec is not self.spec and other.spec != self.spec:
            raise DomainError("field mismatch: %r vs %r" % (self.spec, other.spec))

    def __add__(self, other):
        self._check_field(other)
        p, k = self.spec.p, self.spec.k
        prec = min(self.prec, other.prec)
        start = min(self.start, other.start, prec)
        n = (prec - start) * k
        out = [0] * n
        for s in (self, other):
            lo = (s.start - start) * k
            c = s.coeffs[: max(n - lo, 0)]
            hi = lo + len(c)
            out[lo:hi] = [(x + y) % p for x, y in zip(out[lo:hi], c)]
        return LaurentSeries(self.spec, start, out, prec)

    def __neg__(self):
        p = self.spec.p
        return LaurentSeries(self.spec, self.start, [(-c) % p for c in self.coeffs], self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_field(other)
        if not self.coeffs or not other.coeffs:
            prec = min(
                self.prec + (other.start if other.coeffs else other.prec),
                other.prec + (self.start if self.coeffs else self.prec),
            )
            return LaurentSeries.zero(self.spec, prec)
        prec = min(self.prec + other.start, other.prec + self.start)
        start = self.start + other.start
        return LaurentSeries(self.spec, start, _mul(self.spec, self.coeffs, other.coeffs, prec - start), prec)

    def truncate(self, prec):
        return LaurentSeries(self.spec, self.start, self.coeffs, min(prec, self.prec))

    def inverse(self):
        if not self.coeffs:
            raise DomainError("cannot invert a series that is zero to precision")
        v = self.start
        rel = self.prec - v  # number of known unit-part coefficients
        return LaurentSeries(self.spec, -v, _inverse(self.spec, self.coeffs, rel), self.prec - 2 * v)


def _horner(rows, v, prec):
    """sum_j rows[j](t) * v^j below t^prec, for polynomials rows[j] in t and
    a series v: Horner in v."""
    out = LaurentSeries.from_polynomial(rows[-1], prec)
    for row in reversed(rows[:-1]):
        out = out * v + LaurentSeries.from_polynomial(row, prec)
    return out


def _newton_root(rows, v, m, n):
    """Lift v, a root below t^m of F(t, v) = sum_j rows[j](t) * v^j = 0, to
    the root below t^n: the branch of the plane curve F = 0 through the
    smooth point (0, v(0)) in the local parameter t (Fulton, *Algebraic
    Curves*, 3.3).  Newton's step v - F(v)/F_v(v) with precision doubling;
    F_v(v) is a unit, so each step doubles the number of correct
    coefficients."""
    drows = [row.scale(j) for j, row in enumerate(rows) if j]
    while m < n:
        m = min(2 * m, n)
        v = LaurentSeries(v.spec, v.start, v.coeffs, m)
        v = v - _horner(rows, v, m) * _horner(drows, v, m).inverse()
    return v
