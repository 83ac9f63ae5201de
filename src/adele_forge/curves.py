"""Function fields, places, divisors, Riemann-Roch spaces and the elliptic
group law for the two supported curve models: the projective line and a
smooth Weierstrass curve y^2 = x^3 + a*x + b over a prime field.

Places of the projective line are monic irreducible polynomials or the
point at infinity.  Places of an elliptic curve are the origin O or Galois
orbits of affine points with coordinates in a canonical GF(p^d).  A function
on either model is (A + B*y)/C for polynomials A, B, C in x (B = 0 on P^1).
"""

from functools import lru_cache

from . import _kernels as K
from .errors import DomainError
from .fields import (
    DEFAULT_EXT_BOUND,
    FieldElement,
    FieldSpec,
    Polynomial,
    _power,
    canonical_field,
    factor_polynomial,
    field_sqrt,
    frobenius_orbit,
    poly_gcd,
    root_in_field,
)
from .linalg import kernel_basis
from .series import LaurentSeries, _newton_root


class CurveModel:
    """The projective line or y^2 = x^3 + a*x + b over a prime field.

    Equal models compare and hash equal.  Each instance also keeps a
    ``_CurveMemo`` of what it derives (its affine points, the places above
    x-factors and principal divisors), so that work is done once per curve
    object; the memo takes no part in equality.
    """

    __slots__ = ("kind", "spec", "a", "b", "_hash", "_memo")

    def __init__(self, kind, spec, a=None, b=None):
        if spec.k != 1:
            raise DomainError("curve models require a prime base field")
        self.kind = kind
        self.spec = spec
        if kind == "p1":
            self.a = None
            self.b = None
        elif kind == "elliptic":
            a = spec.element(a)
            b = spec.element(b)
            four = spec.element(4)
            disc = spec.element(-16) * (four * a**3 + spec.element(27) * b * b)
            if not disc:
                raise DomainError("singular Weierstrass equation (discriminant 0)")
            self.a = a
            self.b = b
        else:
            raise DomainError("unknown curve model %r" % (kind,))
        self._hash = hash((kind, spec, self.a, self.b))
        self._memo = _CurveMemo()

    @classmethod
    def projective_line(cls, spec):
        return cls("p1", spec)

    @classmethod
    def elliptic(cls, spec, a, b):
        return cls("elliptic", spec, a, b)

    @property
    def genus(self):
        return 0 if self.kind == "p1" else 1

    def base_place(self):
        """The place at infinity on P^1, the origin O on the elliptic model."""
        return Place.infinity(self) if self.kind == "p1" else Place.origin(self)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, CurveModel)
            and self.kind == other.kind
            and self.spec == other.spec
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.kind == "p1":
            return "P1/%r" % (self.spec,)
        return "E[y^2=x^3+%r*x+%r]/%r" % (self.a, self.b, self.spec)

    def rhs_poly(self, field=None):
        """x^3 + a*x + b over the base field or an extension of it."""
        if self.kind != "elliptic":
            raise DomainError("rhs only defined for the elliptic model")
        return Polynomial.from_ints(field or self.spec, [self.b.val[0], self.a.val[0], 0, 1])

    def contains_affine(self, x, y):
        """Whether y^2 = x^3 + a*x + b, for x and y in one field over the
        base field; an x and a y of different fields are never a point.

        Compares y^2 with (x^2 + a)*x + b directly, on ints at k = 1,
        without building ``rhs_poly``.
        """
        if self.kind != "elliptic":
            raise DomainError("rhs only defined for the elliptic model")
        a, b = self.a.val[0], self.b.val[0]
        spec = x.spec
        if spec.k == 1:
            if y.spec != spec:
                return False
            xv, yv = x.val[0], y.val[0]
            return (yv * yv - (xv * xv + a) * xv - b) % spec.p == 0
        return y * y == (x * x + a) * x + b


class _CurveMemo:
    """What one curve object derives once.

    points: the affine points over the base field in ``affine_points``
    order, found lazily; next_x is the first x not yet examined.
    places: ``_places_above_x_factor``'s places, by the irreducible factor.
    divisors: ``principal_divisor``'s divisors, by (f, ext_bound).
    """

    __slots__ = ("points", "next_x", "places", "divisors")

    def __init__(self):
        self.points = []
        self.next_x = 0
        self.places = {}
        self.divisors = {}


class Place:
    """A closed point of a curve model.

    kind is one of "p1-finite" (data: monic irreducible Polynomial),
    "p1-infinity", "ec-origin", "ec-affine" (data: (orbit frozenset, field)).
    """

    __slots__ = ("curve", "kind", "data", "_hash")

    def __init__(self, curve, kind, data=None):
        self.curve = curve
        self.kind = kind
        self.data = data
        self._hash = hash((curve, kind, data))

    @classmethod
    def finite(cls, curve, poly):
        if curve.kind != "p1":
            raise DomainError("finite polynomial places live on the projective line")
        poly = poly.monic()
        if not poly.is_irreducible():
            raise DomainError("place polynomial must be irreducible")
        return cls(curve, "p1-finite", poly)

    @classmethod
    def infinity(cls, curve):
        if curve.kind != "p1":
            raise DomainError("infinity is a place of the projective line")
        return cls(curve, "p1-infinity")

    @classmethod
    def origin(cls, curve):
        if curve.kind != "elliptic":
            raise DomainError("O is a place of the elliptic model")
        return cls(curve, "ec-origin")

    @classmethod
    def affine_orbit(cls, curve, x0, y0):
        """Galois orbit of an affine point on the elliptic model.

        Coordinates must generate their field: the Frobenius orbit size has
        to equal the coordinate field degree.
        """
        field = x0.spec
        if not curve.contains_affine(x0, y0):
            raise DomainError("point is not on the curve")
        orbit = frobenius_orbit((x0, y0))
        if len(orbit) != field.k:
            raise DomainError("orbit does not generate its coordinate field")
        return cls(curve, "ec-affine", (frozenset(orbit), field))

    @classmethod
    def rational_point(cls, curve, point):
        if point is None:
            return cls.origin(curve)
        return cls.affine_orbit(curve, point[0], point[1])

    @property
    def residue_degree(self):
        if self.kind == "p1-finite":
            return self.data.degree
        if self.kind == "ec-affine":
            return self.data[1].k
        return 1

    def residue_field(self):
        if self.kind == "p1-finite":
            d = self.data.degree
            if d == 1:
                return self.curve.spec
            return _place_field(self.curve.spec.p, tuple(self.data.vec))
        if self.kind == "ec-affine":
            return self.data[1]
        return self.curve.spec

    def representative(self):
        """Deterministic representative point of an ec-affine orbit: the
        orbit's only point, or its least by encoding."""
        orbit = self.data[0]
        if len(orbit) == 1:
            (point,) = orbit
            return point
        return min(orbit, key=lambda q: (q[0].encoding(), q[1].encoding()))

    def sort_key(self):
        if self.kind == "p1-infinity":
            return (0,)
        if self.kind == "p1-finite":
            return (1,) + self.data.sort_key()
        if self.kind == "ec-origin":
            return (0,)
        x0, y0 = self.representative()
        return (1, self.residue_degree, x0.encoding(), y0.encoding())

    def __eq__(self, other):
        return (
            isinstance(other, Place)
            and self.curve == other.curve
            and self.kind == other.kind
            and self.data == other.data
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.kind == "p1-finite":
            return "(%r)" % (self.data,)
        if self.kind == "p1-infinity":
            return "(inf)"
        if self.kind == "ec-origin":
            return "(O)"
        x0, y0 = self.representative()
        return "[%r:%r deg %d]" % (x0, y0, self.residue_degree)


@lru_cache(maxsize=None)
def _place_field(p, modulus):
    return FieldSpec(p, len(modulus) - 1, list(modulus))


class Divisor:
    __slots__ = ("curve", "_map")

    def __init__(self, curve, data=None):
        self.curve = curve
        self._map = {}
        if data:
            for place, mult in (data.items() if isinstance(data, dict) else data):
                if mult:
                    self._map[place] = self._map.get(place, 0) + mult
                    if not self._map[place]:
                        del self._map[place]

    @classmethod
    def of_place(cls, place, mult=1):
        return cls(place.curve, {place: mult})

    def support(self):
        return sorted(self._map, key=lambda v: v.sort_key())

    def multiplicity(self, place):
        return self._map.get(place, 0)

    def items(self):
        return [(v, self._map[v]) for v in self.support()]

    @property
    def degree(self):
        return sum(m * v.residue_degree for v, m in self._map.items())

    def __bool__(self):
        return bool(self._map)

    def __eq__(self, other):
        return (
            isinstance(other, Divisor)
            and self.curve == other.curve
            and self._map == other._map
        )

    def __hash__(self):
        return hash((self.curve, frozenset(self._map.items())))

    def __add__(self, other):
        if self.curve != other.curve:
            raise DomainError("divisors on different curves")
        out = dict(self._map)
        for v, m in other._map.items():
            out[v] = out.get(v, 0) + m
            if not out[v]:
                del out[v]
        d = Divisor(self.curve)
        d._map = out
        return d

    def __neg__(self):
        d = Divisor(self.curve)
        d._map = {v: -m for v, m in self._map.items()}
        return d

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, n):
        d = Divisor(self.curve)
        if n:
            d._map = {v: n * m for v, m in self._map.items()}
        return d

    __rmul__ = __mul__

    def __repr__(self):
        if not self._map:
            return "0"
        return " + ".join("%d*%r" % (m, v) for v, m in self.items())


def _reduce(spec, a, b, c):
    """The reduced triple of (a + b*y)/c: gcd(a, b, c) divided out and c
    made monic, (0, 0, 1) for the zero function."""
    if not c:
        raise DomainError("zero denominator")
    if not a and not b:
        return a, b, Polynomial.one(spec)
    if c.degree > 0:
        g = poly_gcd(c, a)
        if b and g.degree > 0:
            g = poly_gcd(g, b)
        if g.degree > 0:
            a, b, c = a.exact_div(g), b.exact_div(g), c.exact_div(g)
    lc = c.lc()
    if lc != spec.one():
        inv = lc.inverse()
        a, b, c = a.scale(inv), b.scale(inv), c.scale(inv)
    return a, b, c


def _norm(a, b, rhs):
    """A^2 - B^2*rhs: the norm of A + B*y along x: E -> P^1, times its
    conjugate A - B*y, with rhs = x^3 + a*x + b over the field of A and B."""
    return a * a - b * b * rhs


class FunctionFieldElement:
    """An element f = (A + B*y)/C of k(P^1) or k(E), stored as one reduced
    triple abc = (A, B, C) of polynomials in x: gcd(A, B, C) = 1, C monic,
    and B = 0 on the projective line, whose coordinate t is x.  The reduced
    triple of f is unique, so == and hash compare values.

    The constructor takes f = (a + b*y)/c as any triple of polynomials over
    the curve's base field with c != 0 (b = 0 and c = 1 when absent) and
    reduces it.
    """

    __slots__ = ("curve", "abc")

    def __init__(self, curve, a, b=None, c=None):
        spec = curve.spec
        if b is None:
            b = Polynomial.zero(spec)
        elif b and curve.kind == "p1":
            raise DomainError("no y component on the projective line")
        if c is None:
            c = Polynomial.one(spec)
        if a.spec != spec or b.spec != spec or c.spec != spec:
            raise DomainError("function coefficients outside the curve's base field")
        self.curve = curve
        self.abc = _reduce(spec, a, b, c)

    @classmethod
    def _raw(cls, curve, a, b, c):
        """(a + b*y)/c from a triple that is already reduced."""
        f = cls.__new__(cls)
        f.curve = curve
        f.abc = (a, b, c)
        return f

    @classmethod
    def _reduced(cls, curve, a, b, c):
        """(a + b*y)/c for any c != 0, from polynomials of the base field."""
        return cls._raw(curve, *_reduce(curve.spec, a, b, c))

    @classmethod
    def constant(cls, curve, c):
        spec = curve.spec
        return cls._raw(
            curve, Polynomial.constant(spec.element(c)), Polynomial.zero(spec), Polynomial.one(spec)
        )

    @classmethod
    def zero(cls, curve):
        return cls.constant(curve, 0)

    @classmethod
    def one(cls, curve):
        return cls.constant(curve, 1)

    @classmethod
    def x_function(cls, curve):
        spec = curve.spec
        return cls._raw(curve, Polynomial.x(spec), Polynomial.zero(spec), Polynomial.one(spec))

    @classmethod
    def y_function(cls, curve):
        if curve.kind != "elliptic":
            raise DomainError("y lives on the elliptic model")
        spec = curve.spec
        return cls._raw(curve, Polynomial.zero(spec), Polynomial.one(spec), Polynomial.one(spec))

    def is_constant(self):
        a, b, c = self.abc
        return not b and a.degree < 1 and c.degree < 1

    def __bool__(self):
        return bool(self.abc[0]) or bool(self.abc[1])

    def __eq__(self, other):
        return (
            isinstance(other, FunctionFieldElement)
            and self.curve == other.curve
            and self.abc == other.abc
        )

    def __hash__(self):
        return hash((self.curve, self.abc))

    def __repr__(self):
        a, b, c = self.abc
        if not b:
            num = repr(a)
        elif not a:
            num = "(%r)*y" % (b,)
        else:
            num = "%r + (%r)*y" % (a, b)
        return num if c.degree == 0 else "(%s)/(%r)" % (num, c)

    def _coerce(self, other):
        if isinstance(other, FunctionFieldElement):
            if other.curve != self.curve:
                raise DomainError("functions on different curves")
            return other
        if isinstance(other, (int, FieldElement)):
            return FunctionFieldElement.constant(self.curve, other)
        raise DomainError("cannot combine function with %r" % (other,))

    def __add__(self, other):
        a1, b1, c1 = self.abc
        a2, b2, c2 = self._coerce(other).abc
        if c1 == c2:
            return self._reduced(self.curve, a1 + a2, b1 + b2, c1)
        return self._reduced(self.curve, a1 * c2 + a2 * c1, b1 * c2 + b2 * c1, c1 * c2)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __neg__(self):
        a, b, c = self.abc
        return self._raw(self.curve, -a, -b, c)

    def __mul__(self, other):
        a1, b1, c1 = self.abc
        a2, b2, c2 = self._coerce(other).abc
        a = a1 * a2
        if b1 and b2:
            a = a + b1 * b2 * self.curve.rhs_poly()
        return self._reduced(self.curve, a, a1 * b2 + a2 * b1, c1 * c2)

    def inverse(self):
        """1/f = C*(A - B*y) / (A^2 - B^2*(x^3 + a*x + b)), over the norm of
        A + B*y; C/A when B = 0."""
        if not self:
            raise DomainError("inverting the zero function")
        a, b, c = self.abc
        if not b:
            return self._reduced(self.curve, c, b, a)
        return self._reduced(self.curve, c * a, -(c * b), _norm(a, b, self.curve.rhs_poly()))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        a, b, c = self.abc
        if not b:
            # gcd(A, C) = 1, so A^e/C^e is reduced too
            return self._raw(self.curve, a**e, b, c**e)
        return _power(self, e, FunctionFieldElement.one(self.curve))


# ---------------------------------------------------------------------------
# elliptic group law


def on_curve(curve, point):
    if point is None:
        return True
    x, y = point
    return curve.contains_affine(x, y)


def ec_neg(curve, point):
    if point is None:
        return None
    return (point[0], -point[1])


def ec_slope(curve, P, Q):
    """The chord-tangent slope through affine P and Q with P + Q != O, on
    FieldElements: the tangent's at P when the x-coordinates agree."""
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        field = x1.spec
        return (field.element(3) * x1 * x1 + field.element(curve.a.val[0])) / (y1 + y1)
    return (y2 - y1) / (x2 - x1)


def ec_add(curve, P, Q):
    """P + Q by the chord-tangent formula, with O as None.  Both operands
    are checked to lie on the curve.  Over the base field (k = 1) the
    formula runs on the coordinates' ints with one inversion by
    pow(., p - 2, p); points over GF(p^k), k > 1, and points of two
    different fields go through FieldElement arithmetic."""
    if not on_curve(curve, P) or not on_curve(curve, Q):
        raise DomainError("point is not on the curve")
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    field = x1.spec
    if field.k == 1 and x2.spec == field:
        p = field.p
        u1, v1, u2, v2 = x1.val[0], y1.val[0], x2.val[0], y2.val[0]
        if u1 == u2:
            if (v1 + v2) % p == 0:
                return None
            lam = (3 * u1 * u1 + curve.a.val[0]) * pow(2 * v1, p - 2, p) % p
        else:
            lam = (v2 - v1) * pow(u2 - u1, p - 2, p) % p
        u3 = (lam * lam - u1 - u2) % p
        return (field._elt((u3,)), field._elt(((lam * (u1 - u3) - v1) % p,)))
    if x1 == x2 and y1 == -y2:
        return None
    lam = ec_slope(curve, P, Q)
    x3 = lam * lam - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return (x3, y3)


def scalar_multiple(curve, n, P):
    if n < 0:
        return scalar_multiple(curve, -n, ec_neg(curve, P))
    # the first sum, O + P, is the one that checks P lies on the curve
    return _power(P, n, None, lambda A, B: ec_add(curve, A, B))


def affine_points(curve):
    """The affine points of the elliptic model over the base field, by x.

    Every iterator reads the curve's one memoized list and examines a new x
    only past its end, so each x is examined once per curve object, nested
    and interleaved iterators see the same sequence, and one that stops
    early leaves the rest of E(GF(p)) unexamined."""
    if curve.kind != "elliptic":
        raise DomainError("rhs only defined for the elliptic model")
    spec = curve.spec
    p, a, b = spec.p, curve.a.val[0], curve.b.val[0]
    memo = curve._memo
    points = memo.points
    i = 0
    while True:
        if i < len(points):
            yield points[i]
            i += 1
            continue
        n = memo.next_x
        if n == p:
            return
        x = spec.element(n)
        c = ((n * n + a) * n + b) % p
        if not c:
            points.append((x, spec.zero()))
        else:
            r = field_sqrt(spec._elt((c,)))
            if r is not None:
                points += [(x, r), (x, -r)]
        memo.next_x = n + 1


def rational_points(curve):
    """All points of the elliptic model over the base field, O first."""
    return [None] + list(affine_points(curve))


def torsion_points(curve, l):
    """Rational points with l*P = O, including O."""
    if l < 1:
        raise DomainError("l must be positive")
    if l % curve.spec.p == 0:
        raise DomainError("l must be prime to characteristic")
    if l == 1:
        return [None]
    return [P for P in rational_points(curve) if scalar_multiple(curve, l, P) is None]


# ---------------------------------------------------------------------------
# valuations


def _strip(poly, factor):
    """(m, q, r) with poly = factor^m * q and r = q mod factor nonzero, for
    a nonzero poly."""
    m = 0
    q, r = divmod(poly, factor)
    while not r:
        poly, m = q, m + 1
        q, r = divmod(poly, factor)
    return m, poly, r


def leading_term(f, place):
    """(v, u) with f = u*t^v + (higher terms) in the place's local parameter
    t: v is the normalized valuation of f and u, the leading coefficient, a
    unit of the residue field.

    t is pi at a finite place pi of P^1 (not ``expand_at``'s t - theta,
    which differs from pi by a unit once deg pi >= 2), 1/t at infinity, x/y
    at O, x - x0 at an affine point with y0 != 0 and y at one with y0 = 0.
    Over GF(7), with pi = t^2 + 1 and f = pi*(t + 3), u is (3,1) here while
    ``expand_at(f, v, 2).coefficient(1)`` is (5,6).  Tame symbols and Miller
    values have total valuation 0 at every place, so they do not depend on
    this choice.

    One pass over the reduced triple (A + B*y)/C, with no series: strip the
    place's factor from A, B and C and read u off what is left.  At an
    affine point (x0, y0) the triple is first evaluated there, on ints when
    the point is rational: when C(x0) and A(x0) + B(x0)*y0 are both
    nonzero, f is a unit at the point and the result is
    (0, (A(x0) + B(x0)*y0)/C(x0)) with nothing stripped; otherwise only
    those of A, B and C that vanish at x0 are divided by x - x0.
    """
    if not isinstance(f, FunctionFieldElement):
        raise DomainError("valuation expects a function field element")
    if not f:
        raise DomainError("valuation of zero undefined")
    if f.curve != place.curve:
        raise DomainError("function and place on different curves")
    a, b, c = f.abc
    if place.kind == "p1-finite":
        ma, _, ra = _strip(a, place.data)
        mc, _, rc = _strip(c, place.data)
        # the residue class of t generates the residue field, whose modulus is pi
        fieldv = place.residue_field()
        ra, rc = fieldv.element(ra.vec), fieldv.element(rc.vec)
        return ma - mc, ra / rc
    if place.kind == "p1-infinity":
        return c.degree - a.degree, a.lc() / c.lc()
    if place.kind == "ec-origin":
        # x = t^-2 + ... and y = t^-3 + ... with t = x/y, and C is monic
        if a and (not b or 2 * a.degree > 2 * b.degree + 3):
            return 2 * c.degree - 2 * a.degree, a.lc()
        return 2 * c.degree - 2 * b.degree - 3, b.lc()
    x0, y0 = place.representative()
    field = x0.spec
    if field.k == 1:
        # over GF(p) the three values are Horner evaluations on ints
        p, u = field.p, x0.val[0]
        a0, b0, c0 = (K.poly_eval(g.vec, u, p) for g in (a, b, c))
        n0 = (a0 + b0 * y0.val[0]) % p
        if c0 and n0:
            return 0, field._elt((n0 * pow(c0, p - 2, p) % p,))
        a0, b0, c0 = (field._elt((v,)) for v in (a0, b0, c0))
    else:
        a, b, c = (g.lift_to(field) for g in f.abc)
        a0, b0, c0 = a.evaluate(x0), b.evaluate(x0), c.evaluate(x0)
        if c0 and a0 + b0 * y0:
            return 0, (a0 + b0 * y0) / c0
    lin = Polynomial.from_elements(field, [-x0, field.one()])

    def strip(g, g0):
        # (m, g/(x - x0)^m, its value at x0), given g0 = g(x0): only a g
        # that vanishes at x0 is divided
        if g0:
            return 0, g, g0
        m, q, r = _strip(g, lin)
        return m, q, r.constant_term()

    mc, _, rc = strip(c, c0)
    # None for a zero A or B
    sa, sb = (strip(g, g0) if g else None for g, g0 in ((a, a0), (b, b0)))
    a_leads = sb is None or (sa is not None and sa[0] <= sb[0])
    if not y0:
        # t = y and x - x0 = t^2/rhs'(x0) + ...: A has even valuation and B*y
        # odd, so the smaller one leads
        m, _, r = sa if a_leads else sb
        d = 3 * x0 * x0 + f.curve.a.val[0]
        return 2 * (m - mc) + (not a_leads), r * d ** (mc - m) / rc
    # t = x - x0: a unit at x0 is left once the common power of t is stripped
    if a_leads and (sb is None or sa[0] < sb[0]):
        return sa[0] - mc, sa[2] / rc
    if not a_leads:
        return sb[0] - mc, sb[2] * y0 / rc
    (m, a1, ra), (_, b1, rb) = sa, sb
    if ra + rb * y0:
        return m - mc, (ra + rb * y0) / rc
    # A1 + B1*y vanishes at the point and A1 - B1*y does not (its value
    # -2*B1(x0)*y0 is a unit), so the order is the norm's
    mn, _, rn = _strip(_norm(a1, b1, f.curve.rhs_poly(field)), lin)
    return m + mn - mc, rn.constant_term() / ((ra - rb * y0) * rc)


def valuation(f, place):
    """The normalized discrete valuation of f at the place."""
    return leading_term(f, place)[0]


def _places_above_x_factor(curve, g, ext_bound):
    """Places of the elliptic model above the roots of an irreducible g(x),
    memoized on the curve by g.  A place of degree above ext_bound raises,
    whether it is found now or was found before under a larger bound."""
    _check_degree(g.degree, ext_bound)
    memo = curve._memo.places
    places = memo.get(g)
    if places is None:
        places = memo[g] = _find_places_above(curve, g, ext_bound)
    _check_degree(places[0].residue_degree, ext_bound)
    return list(places)


def _check_degree(d, ext_bound):
    if d > ext_bound:
        raise DomainError(
            "place of degree %d exceeds the extension bound %d" % (d, ext_bound)
        )


def _find_places_above(curve, g, ext_bound):
    """The places above the roots of g, from one root and one square root;
    raises when they need GF(p^2d) with 2d above ext_bound."""
    d = g.degree
    field = canonical_field(curve.spec.p, d)
    x0 = root_in_field(g, field)
    rhs0 = curve.rhs_poly(field).evaluate(x0)
    if not rhs0:
        return (Place.affine_orbit(curve, x0, field.zero()),)
    y0 = field_sqrt(rhs0)
    if y0 is not None:
        # distinct: only the identity power of Frobenius fixes x0, and y0 != -y0 (p is odd)
        return (Place.affine_orbit(curve, x0, y0), Place.affine_orbit(curve, x0, -y0))
    _check_degree(2 * d, ext_bound)
    field2 = canonical_field(curve.spec.p, 2 * d)
    x1 = root_in_field(g, field2)
    y1 = field_sqrt(curve.rhs_poly(field2).evaluate(x1))
    if y1 is None:
        raise DomainError("no square root of x^3 + a*x + b over GF(p^%d)" % (2 * d))
    return (Place.affine_orbit(curve, x1, y1),)


def principal_divisor(f, ext_bound=DEFAULT_EXT_BOUND):
    """div(f) as a Divisor; always of degree zero.  Memoized on f's curve
    by (f, ext_bound): each curve object computes each divisor once."""
    if not f:
        raise DomainError("divisor of zero undefined")
    memo = f.curve._memo.divisors
    key = (f, ext_bound)
    div = memo.get(key)
    if div is None:
        div = memo[key] = _principal_divisor(f, ext_bound)
    return div


def _principal_divisor(f, ext_bound):
    curve = f.curve
    a, b, c = f.abc
    entries = []
    if curve.kind == "p1":
        for poly, sign in ((a, 1), (c, -1)):
            if poly.degree < 1:
                continue
            _, factors = factor_polynomial(poly)
            # the factors are monic and irreducible already
            for irr, mult in factors:
                entries.append((Place(curve, "p1-finite", irr), sign * mult))
        vinf = c.degree - a.degree
        if vinf:
            entries.append((Place.infinity(curve), vinf))
    else:
        candidates = {}
        for poly in (_norm(a, b, curve.rhs_poly()), c):
            if poly.degree < 1:
                continue
            _, factors = factor_polynomial(poly)
            for irr, _ in factors:
                candidates[irr] = None
        places = {}
        for g in candidates:
            for place in _places_above_x_factor(curve, g, ext_bound):
                places[place] = None
        places[Place.origin(curve)] = None
        # Divisor drops the places where f has valuation 0
        entries = [(place, valuation(f, place)) for place in places]
    div = Divisor(curve, entries)
    if div.degree != 0:
        raise DomainError("principal divisor has nonzero degree")
    return div


# ---------------------------------------------------------------------------
# local expansions


@lru_cache(maxsize=512)
def _ec_expansions(curve, place, prec):
    """Laurent expansions (x(t), y(t)) at a place of the elliptic model:
    the branch of the cubic through the place in its local parameter t,
    lifted by ``series._newton_root`` from its value at the place."""
    a, b = curve.a.val[0], curve.b.val[0]
    if place.kind == "ec-origin":
        # chart Y = 1, t = x/y: z = 1/y is the root of
        # z - t^3 - a*t*z^2 - b*z^3 with z = t^3 + O(t^7)
        spec, work = curve.spec, prec + 8
        rows = [Polynomial.from_ints(spec, c) for c in ([0, 0, 0, -1], [1], [0, -a], [-b])]
        m = min(7, work)
        y = _newton_root(rows, LaurentSeries.var(spec, m, 3), m, work).inverse()
        x = LaurentSeries.var(spec, work) * y
        return x.truncate(prec), y.truncate(prec)
    field = place.data[1]
    x0, y0 = place.representative()
    t = LaurentSeries.var(field, prec)
    if y0:
        # t = x - x0: y is the root of y^2 - rhs(x0 + t) with y(0) = y0
        rows = [-curve.rhs_poly(field).shift(x0), Polynomial.zero(field), Polynomial.one(field)]
        m = min(1, prec)
        y = _newton_root(rows, LaurentSeries.constant(y0, m), m, prec)
        return LaurentSeries.constant(x0, prec) + t, y
    # t = y: x is the root of rhs(x) - t^2 with x = x0 + O(t^2), x0 a simple
    # root of rhs
    rows = [Polynomial.from_ints(field, c) for c in ([b, 0, -1], [a], [], [1])]
    m = min(2, prec)
    return _newton_root(rows, LaurentSeries.constant(x0, m), m, prec), t


def expand_at(f, place, prec):
    """Laurent expansion of f at a place, valid below exponent ``prec``.

    The expansion variable is the canonical local parameter: t - theta at a
    finite place of P^1 (theta the residue class of t), 1/t at infinity,
    x - x0 / y / x/y on the elliptic model depending on the place.

    Only the substitution into A + B*y and C depends on the place; one
    working precision and one division serve all.  That precision suffices,
    since v(C) <= 2*deg C and v(A + B*y) is bounded: <= 0 at O, as A + B*y
    is regular elsewhere; with y0 = 0 no cancellation, as A and B*y have
    valuations of different parity; else <= ord(A^2 - B^2*rhs) <= 2*maxdeg + 3.
    """
    if f.curve != place.curve:
        raise DomainError("function and place on different curves")
    a, b, c = f.abc
    if place.kind == "p1-finite":
        work = max(prec, 0) + a.degree + 2 * c.degree + 4
        field = place.residue_field()
        theta = field.gen() if field.k > 1 else -place.data.constant_term()
        num, den = (LaurentSeries.from_polynomial(g.lift_to(field).shift(theta), work) for g in (a, c))
    elif place.kind == "p1-infinity":
        # t = 1/x: g(1/t) = t^-deg g * (g's vector reversed), over GF(p)
        work = max(prec, 0) + a.degree + 2 * c.degree + 4
        shift = c.degree - a.degree
        num = LaurentSeries(f.curve.spec, shift, a.vec[::-1], work + shift)
        den = LaurentSeries(f.curve.spec, 0, c.vec[::-1], work)
    else:
        a, b, c = (g.lift_to(place.residue_field()) for g in f.abc)
        maxdeg = max(a.degree, b.degree, c.degree, 1)
        work = max(prec, 0) + 3 * maxdeg + 10 - min(valuation(f, place), 0)
        x, y = _ec_expansions(f.curve, place, work)
        num = LaurentSeries.from_polynomial(a, work, var=x) + LaurentSeries.from_polynomial(b, work, var=x) * y
        den = LaurentSeries.from_polynomial(c, work, var=x)
    out = num * den.inverse()
    if (f and num.is_zero_to_precision()) or out.prec < prec:
        raise DomainError("series precision did not stabilize")
    return out.truncate(prec)


# ---------------------------------------------------------------------------
# Riemann-Roch spaces
#
# Each model builds L(D) in two steps: a "parts" step sets up one ansatz for
# the whole space (P^1: num_fixed, den and top with basis x^j * num_fixed/den;
# elliptic: bound, the exponents of the monomials x^i y^j by pole order at O,
# the kernel vectors or None for the monomials themselves, and the polynomial
# mult), and a builder turns the parts into functions.  riemann_roch_space
# builds the functions; riemann_roch_pivots reads the valuation of each at
# the base place off the same parts, with no series: the valuations are
# pairwise distinct, so the basis is in echelon form there, and a count of
# them is the rank of any window of its expansions, as the cohomology needs.


def x_minimal_poly(place):
    """Minimal polynomial over the base field of the x-coordinate of an
    affine elliptic place."""
    x0 = place.representative()[0]
    spec = place.curve.spec
    field = x0.spec
    poly = Polynomial.one(field)
    for (xi,) in frobenius_orbit((x0,)):
        poly = poly * Polynomial.from_elements(field, [-xi, field.one()])
    return Polynomial.from_elements(spec, [spec.element(c.lift_int()) for c in poly.coeffs])


def riemann_roch_space(D, ext_bound=DEFAULT_EXT_BOUND):
    """A basis of L(D) = {f : div(f) + D >= 0} over the base field."""
    curve = D.curve
    if curve.kind == "p1":
        parts = _rr_parts_p1(D)
        return _rr_basis_p1(curve, parts) if parts else []
    parts = _rr_parts_elliptic(D, ext_bound)
    return _rr_basis_elliptic(curve, parts) if parts else []


def riemann_roch_dimension(D, ext_bound=DEFAULT_EXT_BOUND):
    """dim L(D), read off the ansatz of ``riemann_roch_space`` without
    building its basis."""
    if D.curve.kind == "p1":
        parts = _rr_parts_p1(D)
        return parts[2] + 1 if parts else 0
    parts = _rr_parts_elliptic(D, ext_bound)
    return len(parts[1] if parts[2] is None else parts[2]) if parts else 0


def riemann_roch_pivots(D, ext_bound=DEFAULT_EXT_BOUND):
    """The valuation at the base place (infinity on P^1, O on the elliptic
    model) of each element of the basis ``riemann_roch_space(D)``, in the
    same order, read off the ansatz without building the basis.

    On P^1, x^j * num_fixed/den has deg den - deg num_fixed - j.  On the
    elliptic model an element is led by the monomial x^i * y^j of its
    vector's last nonzero entry (``_rr_parts_elliptic``), of valuation
    -(2i + 3j), and mult has -2*deg(mult).  The valuations are pairwise
    distinct, which is what makes their count a rank; two equal ones raise
    DomainError.
    """
    if D.curve.kind == "p1":
        parts = _rr_parts_p1(D)
        if not parts:
            return []
        num_fixed, den, top = parts
        lead = den.degree - num_fixed.degree
        pivots = list(range(lead, lead - top - 1, -1))
    else:
        parts = _rr_parts_elliptic(D, ext_bound)
        if not parts:
            return []
        _, exponents, vectors, mult = parts
        if vectors is not None:
            exponents = [exponents[max(c for c, a in enumerate(vec) if a)] for vec in vectors]
        shift = 2 * mult.degree
        pivots = [shift - 2 * i - 3 * j for i, j in exponents]
    if len(set(pivots)) != len(pivots):
        raise DomainError("two Riemann-Roch basis elements share their valuation at the base place")
    return pivots


def _window(coeffs, start, lo, hi, k=1):
    """The entries for the exponents lo .. hi - 1 of the flat vector
    ``coeffs`` (k ints per coefficient), whose first coefficient is the one
    for ``start``; zero outside it."""
    n = max(hi - lo, 0) * k
    out = [0] * min(max(start - lo, 0) * k, n) + coeffs[max(lo - start, 0) * k : max(hi - start, 0) * k]
    return out + [0] * (n - len(out))


def _rr_parts_p1(D):
    """(num_fixed, den, top) with L(D) spanned by x^j * num_fixed/den for
    j = 0..top, or None when L(D) = 0.

    num_fixed and den are products of powers of the monic irreducibles of
    distinct places, so they are monic and coprime: num_fixed/den is reduced
    as it stands."""
    spec = D.curve.spec
    if D.degree < 0:
        return None
    den = Polynomial.one(spec)
    num_fixed = Polynomial.one(spec)
    d_inf = 0
    for place, m in D.items():
        if place.kind == "p1-infinity":
            d_inf = m
        elif m > 0:
            den = den * place.data**m
        else:
            num_fixed = num_fixed * place.data ** (-m)
    return num_fixed, den, den.degree + d_inf - num_fixed.degree


def _rr_basis_p1(curve, parts):
    num_fixed, den, top = parts
    x = Polynomial.x(curve.spec)
    return [FunctionFieldElement(curve, x**j * num_fixed, None, den) for j in range(top + 1)]


def _rr_parts_elliptic(D, ext_bound):
    """(bound, exponents, vectors, mult) with L(D) spanned by
    (sum of c * x^i * y^j over (i, j) in exponents) / mult for each
    coefficient vector c in vectors (every unit vector when it is None), or
    None when L(D) = 0.

    mult (a polynomial in x) clears the affine poles of D; what is left,
    D2 = D - div(mult), has bound = D2(O), and the ansatz is the basis
    x^i y^j (2i + 3j <= bound, j in {0, 1}) of L(bound * O) cut down by the
    vanishing conditions of D2 at affine places.  The exponents rise in pole
    order 2i + 3j, and ``kernel_basis`` gives each vector its free column as
    its last nonzero entry, so that column is the vector's monomial of
    highest pole order, and no two vectors share it.
    """
    curve = D.curve
    spec = curve.spec
    if D.degree < 0:
        return None
    mult = Polynomial.one(spec)
    for place, m in D.items():
        if place.kind == "ec-affine" and m > 0:
            mult = mult * x_minimal_poly(place) ** m
    D2 = D - principal_divisor(FunctionFieldElement(curve, mult), ext_bound) if mult.degree else D
    bound = D2.multiplicity(Place.origin(curve))
    if bound < 0:
        return None
    # by pole order n = 2i + 3j at O: every n in 0 .. bound but 1, once each
    exponents = [(n // 2, 0) if n % 2 == 0 else ((n - 3) // 2, 1) for n in range(bound + 1) if n != 1]
    conditions = []  # rows over GF(p), one per vanishing constraint
    for place, m in D2.items():
        if place.kind == "ec-origin" or m >= 0:
            continue
        # one row per GF(p)-coordinate of each coefficient of t^0 .. t^(-m-1)
        conditions += zip(*_monomial_columns(curve, place, exponents, -m))
    vectors = kernel_basis(conditions, spec.p) if conditions else None
    return bound, exponents, vectors, mult


def _rr_basis_elliptic(curve, parts):
    bound, exponents, vectors, mult = parts
    if vectors is None:  # the monomials themselves
        vectors = ([int(e == f) for f in exponents] for e in exponents)
    basis = []
    for vec in vectors:
        ab = ([0] * (bound // 2 + 1), [0] * (bound // 2 + 1))
        for c, (i, j) in zip(vec, exponents):
            ab[j][i] = c
        basis.append(FunctionFieldElement(curve, *(Polynomial.from_ints(curve.spec, v) for v in ab), mult))
    return basis


def _monomial_columns(curve, place, exponents, prec):
    """The coefficients for the exponents 0 .. prec - 1 (``_window``) of the
    expansions at an affine place of the elliptic model, where x and y are
    integral, of x^i * y^j for (i, j) in exponents (j in {0, 1}, every i
    from 0 up present): one product each from one pair (x(t), y(t))."""
    work = max(prec, 1)
    x, y = _ec_expansions(curve, place, work)
    powers, products = [LaurentSeries.constant(place.residue_field().one(), work)], []
    for i, j in exponents:
        while len(powers) <= i:
            powers.append(powers[-1] * x)
        while j and len(products) <= i:
            products.append(powers[len(products)] * y)
    out = [products[i] if j else powers[i] for i, j in exponents]
    if any(ser.prec < prec for ser in out):
        raise DomainError("monomial expansion short of its precision")
    return [_window(ser.coeffs, ser.start, 0, prec, x.spec.k) for ser in out]
