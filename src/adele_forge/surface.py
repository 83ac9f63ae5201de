"""Flags, two-step residues and the adelic intersection formula on the
projective plane, checked against Bezout's deg D1 * deg D2 and Fulton's local
multiplicity recursion.  The points where two curves meet come from their
resultant in X2, a Sylvester determinant over GF(p)[X0] taken by Bareiss
elimination.

Affine curves in a chart are BiPolys: one ``fields.Polynomial`` in u per
power of v.  A form's value, chart partials and fibre at a point are sums
taken by ``fields._form_values`` on the coordinates' GF(p) tuples.

Surface functions stay in factored form (products of irreducible forms with
integer exponents); the valuation along a curve is an exponent lookup, and
restriction to a curve is deferred to valuation time.  There the valuation
of a form F at a smooth point x of the flag curve C is I_x(F, C), the order
of F along the branch of C at x (Fulton, *Algebraic Curves*, 3.3): 0 when
F(x) != 0, 1 when the two chart partials of F and C have a nonzero minor
(distinct tangents), and otherwise read off a Newton expansion of the branch
in ``series``.  Fulton's recursion, which reads the restriction to v = 0 and
the division by v off the rows after one shift in v, serves only the oracle
``fulton_intersection_cycle``.
"""

import logging
import math

from . import signs
from .errors import DomainError
from .fields import (
    DEFAULT_EXT_BOUND, Polynomial, _form_values, canonical_field, factor_polynomial, frobenius_orbit,
    poly_gcd, poly_roots, prime_field, root_in_field,
)
from .series import LaurentSeries, _horner, _newton_root

log = logging.getLogger(__name__)

INFINITE = math.inf

_CHART_VARS = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


class BiPoly:
    """Bivariate polynomial over a FieldSpec, stored by powers of v: ``rows[j]``
    is the coefficient of v^j, a Polynomial in u, and the top row is nonzero
    (the zero BiPoly has no rows).  Every coefficient operation is a
    Polynomial operation on the rows.

    ``BiPoly(spec, {(i, j): c})`` builds one from the coefficients c of
    u^i v^j, and ``terms`` reads them back the same way.
    """

    __slots__ = ("spec", "rows")

    def __init__(self, spec, terms):
        width = max((i for i, _ in terms), default=-1) + 1
        grid = [[spec.zero()] * width for _ in range(max((j for _, j in terms), default=-1) + 1)]
        for (i, j), c in terms.items():
            grid[j][i] = c
        self.spec = spec
        self.rows = _trimmed([Polynomial.from_elements(spec, row) for row in grid])

    @classmethod
    def from_rows(cls, spec, rows):
        """The BiPoly sum rows[j] * v^j; zero top rows are dropped."""
        out = cls.__new__(cls)
        out.spec = spec
        out.rows = _trimmed(list(rows))
        return out

    @classmethod
    def zero(cls, spec):
        return cls.from_rows(spec, ())

    @classmethod
    def constant(cls, c):
        return cls.from_rows(c.spec, (Polynomial.constant(c),))

    @property
    def terms(self):
        """{(i, j): nonzero coefficient of u^i v^j}, a fresh dict."""
        return {(i, j): c for j, row in enumerate(self.rows) for i, c in enumerate(row.coeffs) if c}

    def __bool__(self):
        return bool(self.rows)

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.spec == other.spec and self.rows == other.rows

    def __repr__(self):
        return " + ".join("%r*u^%d*v^%d" % (c, i, j) for (i, j), c in sorted(self.terms.items())) or "0"

    def _padded(self, n):
        return self.rows + (Polynomial.zero(self.spec),) * (n - len(self.rows))

    def __add__(self, other):
        n = max(len(self.rows), len(other.rows))
        return BiPoly.from_rows(self.spec, [a + b for a, b in zip(self._padded(n), other._padded(n))])

    def __sub__(self, other):
        n = max(len(self.rows), len(other.rows))
        return BiPoly.from_rows(self.spec, [a - b for a, b in zip(self._padded(n), other._padded(n))])

    def __mul__(self, other):
        out = [Polynomial.zero(self.spec)] * (len(self.rows) + len(other.rows) - 1)
        for j, a in enumerate(self.rows):
            for k, b in enumerate(other.rows):
                if a and b:
                    out[j + k] = out[j + k] + a * b
        return BiPoly.from_rows(self.spec, out)

    def submul(self, q, other, shift=0):
        """self - q * v^shift * other for a Polynomial q in u, in one pass
        over the rows of ``other``."""
        rows = list(self._padded(len(other.rows) + shift))
        for j, row in enumerate(other.rows, shift):
            rows[j] = rows[j] - q * row
        return BiPoly.from_rows(self.spec, rows)

    def shift_v(self, v0):
        """self(u, v + v0), by Horner in v: each step multiplies the rows so
        far by v + v0 and adds the next row."""
        if not v0:
            return self
        zero = Polynomial.zero(self.spec)
        out = []
        for row in reversed(self.rows):
            out = [a + b.scale(v0) for a, b in zip([row] + out, out + [zero])]
        return BiPoly.from_rows(self.spec, out)

    def evaluate(self, u0, v0):
        total = self.spec.zero()
        for row in reversed(self.rows):
            total = total * v0 + row.evaluate(u0)
        return total

    def total_degree(self):
        return max((row.degree + j for j, row in enumerate(self.rows) if row), default=-1)

    def deriv_u(self):
        return BiPoly.from_rows(self.spec, [row.derivative() for row in self.rows])

    def deriv_v(self):
        return BiPoly.from_rows(self.spec, [row.scale(j) for j, row in enumerate(self.rows) if j])


def _trimmed(rows):
    while rows and not rows[-1]:
        rows.pop()
    return tuple(rows)


def bipoly_divide(N, F):
    """Exact quotient N / F in k[u,v], or None when F does not divide N: long
    division in v, each step an exact division in k[u] by F's leading row."""
    spec = N.spec
    lead, n = F.rows[-1], len(F.rows)
    Q = [Polynomial.zero(spec)] * max(len(N.rows) - n + 1, 0)
    R = N
    while len(R.rows) >= n:
        q, rem = divmod(R.rows[-1], lead)
        if rem:
            return None
        shift = len(R.rows) - n
        Q[shift] = q
        R = R.submul(q, F, shift)  # cancels the top row
    if R:
        return None
    return BiPoly.from_rows(spec, Q)


def fulton_multiplicity(F, G, point):
    """Local intersection multiplicity of two affine curves at a point, for
    the oracle ``fulton_intersection_cycle`` only: the flag residues it checks
    take their valuations from ``valuation_on_curve``.

    Fulton's recursion (*Algebraic Curves*, 3.3), run at the point: one shift
    in v moves it to (u0, 0), where the restriction to v = 0 is ``rows[0]``
    and division by v is ``rows[1:]``.  No shift in u is needed, since
    I_P(F, G + A*F) = I_P(F, G) for every A, and I_P(v, G) is the order of
    G(u, 0) at u0.

    INFINITE when the curves share a component through the point.  No gcd is
    taken: the recursion is given deg F * deg G levels of intersection to
    spend, and a count past that proves a shared component through the
    point.  This is exact: each level adds at least 1; a finite local
    multiplicity is at most deg F * deg G (affine Bezout); and a component
    shared away from the point is a unit there, so it only lowers that
    count.  The plane intersections reject curve pairs sharing a component
    before any call (``_contributing_flags`` runs
    ``curve_intersection_points`` on every pair); a direct call on such a
    pair can spend up to deg F * deg G levels before it returns INFINITE.
    """
    u0, v0 = point
    if F.evaluate(u0, v0) or G.evaluate(u0, v0):
        # a common factor through the point would make both values zero
        return 0
    spec = F.spec
    budget = F.total_degree() * G.total_degree()
    F, G = F.shift_v(v0), G.shift_v(v0)
    m = 0
    # F and G both pass through (u0, 0) here
    while F and G and m < budget:
        f, g = F.rows[0], G.rows[0]
        if f.degree > g.degree or (not g and f):
            F, G, f, g = G, F, g, f
        if f:
            # G - c * u^d * F: G(u, 0) loses its leading term
            c = g.lc() / f.lc()
            G = G.submul(Polynomial.from_elements(spec, [spec.zero()] * (g.degree - f.degree) + [c]), F)
            continue
        if not g:
            return INFINITE  # v divides both
        # F = v * H: I(F, G) = I(v, G) + I(H, G)
        m += g.root_multiplicity(u0)
        F = BiPoly.from_rows(spec, F.rows[1:])
        if F.rows[0].evaluate(u0):
            return m
    return INFINITE


class HomForm:
    """Homogeneous form in X0, X1, X2 over GF(p): {(i, j, k): int coeff}."""

    __slots__ = ("p", "degree", "terms", "_hash")

    def __init__(self, p, terms):
        clean = {}
        deg = None
        for ijk, c in terms.items():
            if min(ijk) < 0:
                raise DomainError("monomial X0^%d*X1^%d*X2^%d has a negative exponent" % ijk)
            c = c % p
            if not c:
                continue
            if deg is None:
                deg = sum(ijk)
            elif sum(ijk) != deg:
                raise DomainError("form is not homogeneous")
            clean[ijk] = c
        if deg is None:
            raise DomainError("zero form")
        # normalize: the lexicographically largest monomial gets coefficient 1
        top = max(clean)
        inv = pow(clean[top], p - 2, p)
        clean = {ijk: (c * inv) % p for ijk, c in clean.items()}
        self.p = p
        self.degree = deg
        self.terms = clean
        self._hash = hash((p, deg, frozenset(clean.items())))

    @classmethod
    def line(cls, p, a, b, c):
        return cls(p, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})

    def __eq__(self, other):
        return isinstance(other, HomForm) and self.p == other.p and self.terms == other.terms

    def __hash__(self):
        return self._hash

    def __repr__(self):
        bits = []
        for (i, j, k), c in sorted(self.terms.items(), reverse=True):
            mono = "".join(
                ("X%d" % n if e == 1 else "X%d^%d" % (n, e))
                for n, e in enumerate((i, j, k))
                if e
            )
            bits.append(mono if c == 1 and mono else ("%d%s" % (c, mono)))
        return " + ".join(bits)

    def evaluate(self, coords):
        return _form_values(coords, ((0, c, ijk) for ijk, c in self.terms.items()), 1, self.degree)[0]

    def chart_rows(self, chart, swap=False):
        """Set X_chart = 1; the remaining coordinates become (u, v) in index
        order, or in reverse order when ``swap``.  Row j holds the int
        coefficients of u^i v^j."""
        a, b = _CHART_VARS[chart][:: -1 if swap else 1]
        # the form is homogeneous, so (u, v) exponents name one term each
        rows = [[0] * (self.degree + 1) for _ in range(self.degree + 1)]
        for ijk, c in self.terms.items():
            rows[ijk[b]][ijk[a]] = c
        return rows

    def dehomogenize(self, chart, field, swap=False):
        """``chart_rows`` as a BiPoly over ``field``."""
        return BiPoly.from_rows(field, [Polynomial.from_ints(field, row) for row in self.chart_rows(chart, swap)])

    def chart_partials(self, coords, chart):
        """(dF/dX_a, dF/dX_b) at ``coords``, X_a and X_b the chart's affine
        coordinates, in one pass over the terms: the affine partials times
        X_chart^(deg F - 1), so ratios and minors of them are the affine
        ones up to a unit."""
        a, b = _CHART_VARS[chart]
        terms = [(0, c * e[a], (e[a] - 1, e[b], e[chart])) for e, c in self.terms.items() if e[a]]
        terms += [(1, c * e[b], (e[a], e[b] - 1, e[chart])) for e, c in self.terms.items() if e[b]]
        return tuple(_form_values((coords[a], coords[b], coords[chart]), terms, 2, self.degree - 1))


class PlaneCurve:
    """An irreducible plane curve.

    A form of degree >= 2 with a linear factor over GF(p) is rejected, which
    settles irreducibility over GF(p) up to degree 3; a form of degree > 3
    without one is trusted irreducible, with a logged warning.

    ``_meets`` holds the points the curve meets other curves in, keyed by
    (their form, ext_bound), as ``_contributing_flags`` finds them; it takes
    no part in equality or hashing.
    """

    __slots__ = ("form", "_meets")

    def __init__(self, form):
        if form.degree < 1:
            raise DomainError("a plane curve needs positive degree")
        if form.degree > 1 and _has_linear_factor(form):
            raise DomainError("form has a linear factor; not irreducible")
        if form.degree > 3:
            # factors of degree >= 2 are not looked for
            log.warning("degree-%d form trusted irreducible without a check", form.degree)
        self.form = form
        self._meets = {}

    @property
    def degree(self):
        return self.form.degree

    def __eq__(self, other):
        return isinstance(other, PlaneCurve) and self.form == other.form

    def __hash__(self):
        return hash(("curve", self.form))

    def __repr__(self):
        return "V(%r)" % (self.form,)

    def contains(self, point):
        return not self.form.evaluate(point.coords)


def _has_linear_factor(form):
    """True when a line over GF(p) divides the form F.

    A line other than X0 = 0, X1 = 0, X2 = 0 is X0 = b*X1 + c*X2 or
    X1 = c*X2.  If the first lies in the curve then F(b, 1, 0) = 0 and
    F(c, 0, 1) = 0; if the second does, F(0, c, 1) = 0.  Once the coordinate
    lines are ruled out these restrictions are nonzero polynomials, so at
    most d^2 + d candidate lines remain, each checked exactly.
    """
    for var in range(3):
        if all(ijk[var] for ijk in form.terms):
            return True
    roots_b = _restriction_roots(form, 1)
    roots_c = _restriction_roots(form, 2)
    for b in roots_b:
        for c in roots_c:
            if _vanishes_on_line(form, 0, b, c):
                return True
    return any(_vanishes_on_line(form, 1, 0, c) for c in _restriction_roots(form, 2, swap=True))


def _restriction_roots(form, chart, swap=False):
    """GF(p) roots, as ints, of row 0 (v = 0) of ``dehomogenize``: F(x, 1, 0)
    in chart 1, F(x, 0, 1) in chart 2 and F(0, x, 1) in chart 2 swapped."""
    row = Polynomial.from_ints(prime_field(form.p), form.chart_rows(chart, swap)[0])
    return [r.val[0] for r in poly_roots(row)]


def _vanishes_on_line(form, var, a, b):
    """True when the form is zero on the line X_var = a*X_u + b*X_w, (u, w) the
    other coordinates in index order: substitute and test every coefficient
    of the resulting binary form in (X_u, X_w) mod p."""
    p = form.p
    u, _ = _CHART_VARS[var]
    pow_a = [pow(a, m, p) for m in range(form.degree + 1)]
    pow_b = [pow(b, m, p) for m in range(form.degree + 1)]
    out = [0] * (form.degree + 1)  # out[e]: coefficient of X_u^e X_w^(d - e)
    for ijk, c in form.terms.items():
        n, e = ijk[var], ijk[u]
        for m in range(n + 1):
            out[e + m] += c * math.comb(n, m) * pow_a[m] * pow_b[n - m]
    return not any(x % p for x in out)


class SurfaceDivisor:
    """Finite formal sum of irreducible plane curves."""

    __slots__ = ("_map",)

    def __init__(self, data=None):
        self._map = {}
        if data:
            for curve, mult in (data.items() if isinstance(data, dict) else data):
                if mult:
                    self._map[curve] = self._map.get(curve, 0) + mult
                    if not self._map[curve]:
                        del self._map[curve]

    def support(self):
        return sorted(self._map, key=lambda c: sorted(c.form.terms.items()))

    def multiplicity(self, curve):
        return self._map.get(curve, 0)

    def items(self):
        return [(c, self._map[c]) for c in self.support()]

    @property
    def degree(self):
        return sum(m * c.degree for c, m in self._map.items())

    def __repr__(self):
        return " + ".join("%d*%r" % (m, c) for c, m in self.items()) or "0"


class ProjPoint:
    """A closed point of P^2: normalized coordinates over the canonical field
    of its exact degree."""

    __slots__ = ("field", "coords", "orbit", "_hash")

    def __init__(self, coords):
        if not any(coords):
            raise DomainError("the zero vector is not a point of P^2")
        field = coords[0].spec
        last = max(i for i in range(3) if coords[i])
        inv = coords[last].inverse()
        coords = tuple(c * inv for c in coords)
        orbit = frobenius_orbit(coords)
        if len(orbit) != field.k:
            raise DomainError("point coordinates do not generate their field")
        self.field = field
        self.coords = coords
        self.orbit = frozenset(orbit)
        self._hash = hash((field, self.orbit))

    @property
    def degree(self):
        return len(self.orbit)

    def chart(self):
        return max(i for i in range(3) if self.coords[i])

    def affine(self, chart=None):
        c = self.chart() if chart is None else chart
        a, b = _CHART_VARS[c]
        inv = self.coords[c].inverse()
        return (self.coords[a] * inv, self.coords[b] * inv)

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.field == other.field and self.orbit == other.orbit

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.degree,) + tuple(c.encoding() for c in min(
            (tuple(pt) for pt in self.orbit),
            key=lambda pt: tuple(c.encoding() for c in pt),
        ))

    def __repr__(self):
        return "(%s)" % (":".join(repr(c) for c in self.coords))


class FactoredFunction:
    """c * prod F_i^{e_i} with irreducible forms F_i; an element of the
    function field of the plane when the total degree is zero."""

    __slots__ = ("p", "constant", "powers")

    def __init__(self, p, constant=1, powers=None):
        field = prime_field(p)
        self.p = p
        self.constant = field.element(constant) if isinstance(constant, int) else constant
        if not self.constant:
            raise DomainError("factored functions are nonzero")
        self.powers = {c: e for c, e in (powers or {}).items() if e}

    def require_degree_zero(self):
        if sum(e * c.degree for c, e in self.powers.items()):
            raise DomainError("entry function is not homogeneous of degree zero")
        return self

    def inverse(self):
        return FactoredFunction(
            self.p, self.constant.inverse(), {c: -e for c, e in self.powers.items()}
        )

    def __mul__(self, other):
        powers = dict(self.powers)
        for c, e in other.powers.items():
            powers[c] = powers.get(c, 0) + e
        return FactoredFunction(self.p, self.constant * other.constant, powers)

    def __pow__(self, e):
        return FactoredFunction(
            self.p, self.constant**e, {c: k * e for c, k in self.powers.items()}
        )

    def exponent_along(self, curve):
        return self.powers.get(curve, 0)

    def __repr__(self):
        bits = [repr(self.constant)] if self.constant != prime_field(self.p).one() else []
        for c, e in self.powers.items():
            bits.append("(%r)^%d" % (c, e))
        return " * ".join(bits) if bits else "1"


class SurfaceSymbol:
    """Formal product of K2 symbols {f, g}^e with factored entry functions."""

    __slots__ = ("p", "entries")

    def __init__(self, p, entries):
        flat = []
        for f, g, e in entries:
            if e:
                f.require_degree_zero()
                g.require_degree_zero()
                flat.append((f, g, e))
        self.p = p
        self.entries = tuple(flat)

    @classmethod
    def pair(cls, f, g, e=1):
        return cls(f.p, [(f, g, e)])

    def support_curves(self):
        return list(dict.fromkeys(c for f, g, _ in self.entries for h in (f, g) for c in h.powers))

    def __repr__(self):
        return " * ".join("{%r, %r}^%d" % (f, g, e) for f, g, e in self.entries) or "{1}"

# ---------------------------------------------------------------------------
# two-step residues


def curve_tame_symbol(symbol, curve):
    """First-step residue of a K2 symbol along a curve: the tame symbol
    (-1)^(v_C(f)v_C(g)) f^(v_C(g)) g^(-v_C(f)), still in factored form, where
    the curve's own power v_C(f)v_C(g) - v_C(g)v_C(f) cancels."""
    p = symbol.p
    minus_one = FactoredFunction(p, -1)
    result = FactoredFunction(p)
    for f, g, e in symbol.entries:
        a = f.exponent_along(curve)
        b = g.exponent_along(curve)
        if a == 0 and b == 0:
            continue
        term = f**b * g ** (-a)
        if (a * b) % 2:
            term = term * minus_one
        result = result * term**e
    return result


def valuation_on_curve(func, curve, point, chart=None):
    """Valuation at a point of the restriction to ``curve`` of a factored
    function: sum of e_F * I_x(F, curve) over the factored support, each
    I_x the order of F along the branch of the curve at its smooth point x
    (Fulton, *Algebraic Curves*, 3.3).  I_x is 0 off F, and 1 when the
    Jacobian minor of the two chart partials is nonzero (distinct tangents);
    only a tangency or a singular point of F takes ``_branch_order``.

    The one smoothness check of a flag: the curve is smooth at x when its
    chart partials are not both zero, the third partial then vanishing by
    Euler's relation x . grad C(x) = deg C * C(x) = 0."""
    if func.exponent_along(curve):
        raise DomainError("function vanishes identically along the curve")
    if not curve.contains(point):
        raise DomainError("point is not on the curve")
    if chart is None:
        chart = point.chart()
    ca, cb = curve.form.chart_partials(point.coords, chart)
    if not (ca or cb):
        raise DomainError("flag-curve singular at %r" % (point,))
    total = 0
    for F, e in func.powers.items():
        if F.form.evaluate(point.coords):
            continue
        fa, fb = F.form.chart_partials(point.coords, chart)
        total += e * (1 if fa * cb != fb * ca else _branch_order(F.form, curve.form, point, chart, not cb))
    return total


def _branch_order(F, C, point, chart, swap):
    """ord_t F(u0 + t, v(t)) for the branch v of the curve C = 0 through its
    smooth point (u0, v0) in the chart, u and v swapped when dC/dv vanishes
    there.  Each row of C and F is shifted by u0 once, and v is lifted from
    v0 by ``series._newton_root``, its precision doubled until F has a
    nonzero coefficient; a zero past deg F * deg C (Bezout) means a common
    component."""
    field = point.field
    u0, v0 = point.affine(chart)[:: -1 if swap else 1]
    Fr, Cr = ([row.shift(u0) for row in G.dehomogenize(chart, field, swap).rows] for G in (F, C))
    # the order is at least 2 here, so the first look is below t^4
    v, m, n = LaurentSeries.constant(v0, 1), 1, 4
    while True:
        v = _newton_root(Cr, v, m, n)
        order = _horner(Fr, v, n).valuation()
        if order is not None:
            return order
        if n > F.degree * C.degree:
            raise DomainError("improper restriction: common component")
        m, n = n, 2 * n


def flag_residue(symbol, curve, point):
    """Two-step residue of a K2 symbol along the flag (curve, point), which
    ``valuation_on_curve`` checks."""
    return valuation_on_curve(curve_tame_symbol(symbol, curve), curve, point)


def parshin_point_reciprocity(symbol, point):
    """Sum of flag residues over all curves of the symbol's factored support
    through the point; always zero."""
    total = 0
    for curve in symbol.support_curves():
        if not curve.contains(point):
            continue
        total += flag_residue(symbol, curve, point)
    return total


# ---------------------------------------------------------------------------
# intersection points of two plane curves


def _bareiss_det(rows, spec):
    """Determinant of a square matrix over GF(p)[w] by fraction-free
    elimination (Bareiss, Math. Comp. 22, 1968): step k replaces each entry
    below and right of the pivot by a 2x2 minor divided exactly by the
    previous pivot, so every entry stays a polynomial.  A zero pivot is
    swapped with the first row below it that is nonzero in its column."""
    rows = [list(row) for row in rows]
    negate, prev = False, Polynomial.one(spec)
    for k in range(len(rows)):
        below = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if below is None:
            return Polynomial.zero(spec)
        if below != k:
            rows[k], rows[below] = rows[below], rows[k]
            negate = not negate
        top = rows[k]
        for row in rows[k + 1 :]:
            row[k + 1 :] = [(top[k] * x - row[k] * y).exact_div(prev) for x, y in zip(row[k + 1 :], top[k + 1 :])]
        prev = top[k]
    return -prev if negate else prev


def _resultant_x2(F, G):
    """R(w, 1) for the binary form R(X0, X1) = Res_{X2}(F, G), as a
    polynomial in w over GF(p), and the degree of R.

    With m and n the X2-degrees of F and G, the Sylvester matrix of
    F(w, 1, X2) and G(w, 1, X2) at formal degrees m and n is that of F and G
    at X1 = 1, so its determinant is R(w, 1).  R is homogeneous of degree
    n*deg F + m*deg G - m*n, so R(1, 0) is the coefficient of w to that
    power (0 when R(w, 1) has lower degree).
    """
    spec = prime_field(F.p)
    # the rows of F(w, 1, X2) by powers of X2, the highest first
    a, b = (list(H.dehomogenize(1, spec).rows[::-1]) for H in (F, G))
    m, n = len(a) - 1, len(b) - 1
    zero = Polynomial.zero(spec)
    rows = [[zero] * i + a + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + b + [zero] * (m - 1 - i) for i in range(m)]
    return _bareiss_det(rows, spec), n * F.degree + m * G.degree - m * n


def _binary_roots(r, degree, p, ext_bound):
    """Directions (x0 : x1) where the binary form R of the given degree with
    R(w, 1) = r vanishes, grouped by degree: yields (field, x0, x1, irr),
    irr the minimal polynomial of x0 over GF(p)."""
    field1 = prime_field(p)
    if not r:
        raise DomainError("identically zero resultant: improper intersection")
    # direction (1 : 0): R(1, 0) is the coefficient of w^degree
    if r.degree < degree:
        yield (field1, field1.one(), field1.zero(), Polynomial.from_ints(field1, [-1, 1]))
    # directions (w : 1): roots of R(w, 1)
    _, factors = factor_polynomial(r)
    for irr, _mult in factors:
        d = irr.degree
        if d > ext_bound:
            raise DomainError(
                "intersection direction of degree %d exceeds the bound %d" % (d, ext_bound)
            )
        field = canonical_field(p, d)
        w0 = root_in_field(irr, field)
        yield (field, w0, field.one(), irr)


def curve_intersection_points(C1, C2, ext_bound=DEFAULT_EXT_BOUND):
    """All closed points of C1 . C2 as ProjPoint orbits."""
    if C1 == C2:
        raise DomainError("improper intersection: identical components")
    F, G = C1.form, C2.form
    p = F.p
    field1 = prime_field(p)
    points = []
    # the single point with X0 = X1 = 0
    special = (field1.zero(), field1.zero(), field1.one())
    if not F.evaluate(special) and not G.evaluate(special):
        points.append(ProjPoint(special))
    r, degree = _resultant_x2(F, G)
    for field, x0, x1, irr in _binary_roots(r, degree, p, ext_bound):
        d = field.k
        h = _fiber_gcd(F, G, x0, x1, field)
        if h.degree < 1:
            continue  # spurious direction (leading coefficients vanished)
        _, fibfactors = factor_polynomial(h)
        degrees = sorted({g.degree for g, _ in fibfactors})
        for e in degrees:
            m = d * e
            if m > ext_bound:
                raise DomainError(
                    "intersection point of degree %d exceeds the bound %d" % (m, ext_bound)
                )
            if e == 1:
                fieldm, x0m, x1m = field, x0, x1
                zs = sorted((-g.constant_term() for g, _ in fibfactors if g.degree == 1),
                            key=lambda z: z.encoding())
            else:
                # re-find the direction inside the bigger field
                fieldm = canonical_field(p, m)
                x0m = root_in_field(irr, fieldm)
                x1m = fieldm.element(x1.val[0])
                zs = poly_roots(_fiber_gcd(F, G, x0m, x1m, fieldm))
            for z in zs:
                try:
                    pt = ProjPoint((x0m, x1m, z))
                except DomainError:
                    continue  # lower-degree point; found at its own level
                if pt.degree == m and pt not in points:
                    points.append(pt)
    return points


def _fiber_gcd(F, G, x0, x1, field):
    """The common Z-roots of F and G on the fibre (x0 : x1 : Z): the gcd of
    the two fibre polynomials, or the one that is nonzero."""
    ff = _fiber_poly(F, x0, x1, field)
    fg = _fiber_poly(G, x0, x1, field)
    if not ff and not fg:
        raise DomainError("improper intersection: common line component")
    if not ff or not fg:
        return fg or ff
    return poly_gcd(ff, fg)


def _fiber_poly(F, x0, x1, field):
    """F(x0, x1, Z) as a univariate polynomial in Z over ``field``."""
    n = max(k for (_, _, k) in F.terms)
    terms = ((k, c, (i, j, 0)) for (i, j, k), c in F.terms.items())
    return Polynomial.from_elements(field, _form_values((x0, x1, field.one()), terms, n + 1, F.degree))


# ---------------------------------------------------------------------------
# the adelic intersection number


def _aux_line_candidates(p, avoid_points):
    """The lines a*X0 + b*X1 + c*X2 with at least two of a, b, c nonzero and
    the last nonzero one equal to 1, after X2, X1 and X0, in increasing
    a + b*p + c*p^2, leaving out families whose every line meets a point.

    After the coordinate lines come a*X0 + X1 (a = 1..p-1), which all pass
    through (0:0:1), and then the rows a*X0 + b*X1 + X2 (a = 0..p-1) for
    b = 0..p-1, which all pass through a point with x0 = 0 and b*x1 + x2 = 0.
    Any other point, and any excluded form, rules out at most one line of a
    family, so once a family has more lines than there are points and
    excluded forms, the first family not left out holds the chosen line:
    O(points) candidates, not O(p^2).
    """
    yield HomForm.line(p, 0, 0, 1)
    yield HomForm.line(p, 0, 1, 0)
    yield HomForm.line(p, 1, 0, 0)
    on_x0 = [pt.coords for pt in avoid_points if not pt.coords[0]]
    if not any(not x1 for _, x1, _ in on_x0):
        for a in range(1, p):
            yield HomForm.line(p, a, 1, 0)
    for b in range(p):
        if any(not (x1 * b + x2) for _, x1, x2 in on_x0):
            continue
        for a in range(0 if b else 1, p):
            yield HomForm.line(p, a, b, 1)


def choose_aux_line(p, avoid_points, exclude_forms=()):
    """Deterministically pick a line avoiding the given points."""
    for form in _aux_line_candidates(p, avoid_points):
        if form not in exclude_forms and all(form.evaluate(pt.coords) for pt in avoid_points):
            return PlaneCurve(form)
    raise DomainError("no auxiliary line avoids the contributing points")


def _local_equation(divisor, aux):
    """The degree-zero factored function prod F^m / L^(deg) for a divisor."""
    powers = dict(divisor.items())
    powers[aux] = powers.get(aux, 0) - divisor.degree
    return FactoredFunction(aux.form.p, 1, powers)


def _contributing_flags(D1, D2, ext_bound):
    """The flags (C, x) with C in supp D1 and x in C meet supp D2, each once.

    C keeps ``curve_intersection_points(C, F, ext_bound)`` in its ``_meets``
    under (F.form, ext_bound), so every intersection of the same curves finds
    an ordered pair's points once; a computation that raises stores nothing.
    """
    flags = {}
    for C, _m in D1.items():
        for F, _n in D2.items():
            if C == F:
                raise DomainError("improper intersection: shared component")
            key = (F.form, ext_bound)
            found = C._meets.get(key)
            if found is None:
                found = C._meets[key] = curve_intersection_points(C, F, ext_bound)
            for pt in found:
                flags[C, pt] = None
    return list(flags)


def _flags_and_aux(D1, D2, ext_bound):
    """The flags of ``_contributing_flags`` and an auxiliary line that avoids
    every contributing point and every component of D1 and D2."""
    flags = _contributing_flags(D1, D2, ext_bound)
    aux = choose_aux_line(_surface_char(D1, D2), dict.fromkeys(pt for _, pt in flags),
                          exclude_forms={C.form for C, _ in D1.items()} | {C.form for C, _ in D2.items()})
    return flags, aux


def intersection_number(D1, D2, ext_bound=DEFAULT_EXT_BOUND):
    """The adelic intersection number -sum [k(x):k] nu_{XCx}{s1^-1, s2^-1}.

    s1 and s2 are single degree-zero ratios per divisor with poles on an
    auxiliary line chosen to avoid every contributing point; the flag sum
    runs over the curves of D1 and their intersection points with D2, the
    flags where the symbol has nontrivial residue.
    """
    flags, aux = _flags_and_aux(D1, D2, ext_bound)
    symbol = SurfaceSymbol.pair(_local_equation(D1, aux).inverse(), _local_equation(D2, aux).inverse())
    return -sum(pt.degree * flag_residue(symbol, C, pt) for C, pt in flags)


def _surface_char(*divisors):
    for D in divisors:
        for curve, _ in D.items():
            return curve.form.p
    raise DomainError("empty surface divisor")


def bezout_number(D1, D2):
    """deg D1 * deg D2: the classical global oracle."""
    return D1.degree * D2.degree


def fulton_intersection_cycle(D1, D2, ext_bound=DEFAULT_EXT_BOUND):
    """Point-by-point Fulton multiplicities I_x(D1, D2) as an oracle cycle.

    Only the intersection points are shared with ``intersection_number``:
    the multiplicities are computed here, apart from the flag residues they
    check.
    """
    cycle = {}
    for pt in dict.fromkeys(pt for _, pt in _contributing_flags(D1, D2, ext_bound)):
        chart = pt.chart()
        field = pt.field
        a = pt.affine(chart)
        total = 0
        for C1, m1 in D1.items():
            for C2, m2 in D2.items():
                m = fulton_multiplicity(
                    C1.form.dehomogenize(chart, field),
                    C2.form.dehomogenize(chart, field),
                    a,
                )
                if m is INFINITE:
                    raise DomainError("improper intersection at %r" % (pt,))
                total += m1 * m2 * m
        if total:
            cycle[pt] = total
    return cycle


def surface_product_cycle(D1, D2, ext_bound=DEFAULT_EXT_BOUND):
    """The zero-cycle nu_X([D1].[D2]) of the flag-wise product of the two
    divisor 1-cocycles with per-flag local equations (tail 1 outside the
    supports), as a finite map point -> integer.

    Its multiplicity at x matches the Fulton local multiplicity up to the
    audited global sign, and its degree equals intersection_number(D1, D2).
    """
    flags, aux = _flags_and_aux(D1, D2, ext_bound)
    cycle = {}
    for C, pt in flags:
        # front component of the flag (X, C, x): the local equation of D1 at
        # C, inverted; only its exponent along C enters the residue.
        s1_c = _local_equation(SurfaceDivisor({C: D1.multiplicity(C)}), aux)
        # back component s_{2,C}/s_{2,x} with s_{2,C} = 1 (C is not in
        # supp D2): the local equation of D2 at x, inverted
        s2_x = _local_equation(SurfaceDivisor([(F, m) for F, m in D2.items() if F.contains(pt)]), aux)
        raw = flag_residue(SurfaceSymbol.pair(s1_c.inverse(), s2_x.inverse()), C, pt)
        if raw:
            cycle[pt] = cycle.get(pt, 0) + raw
    return {pt: signs.SURFACE_CYCLE_SIGN * raw for pt, raw in cycle.items() if raw}


def cycle_degree(cycle):
    return sum(pt.degree * m for pt, m in cycle.items())


# ---------------------------------------------------------------------------
# dlog pole bound for K2 symbols


def dlog2_pole_check(symbol):
    """Maximum pole order along the support curves of the 2-form
    sum e * dlog f wedge dlog g attached to the symbol, floored at 0.

    Over the common denominator prod(support forms) the order along a
    curve is 1 - (multiplicity of its form in the numerator), so it is at
    most 1 by construction and is 1 exactly where the form does not divide
    the numerator.  The global scaling constant of the weight-2 comparison
    map ((-1)^n(n-1)! at n = 2, i.e. -1) rescales the form and cannot
    change pole orders, so it is not applied here."""
    support = symbol.support_curves()
    field = prime_field(symbol.p)
    for curve in support:
        chart = _visible_chart(curve)
        forms = {c: c.form.dehomogenize(chart, field) for c in support}
        numerator = _wedge_numerator(symbol, forms, chart, field)
        if not numerator:
            continue
        Fhat = forms[curve]
        if Fhat.total_degree() < 1:
            continue  # the curve is invisible here; handled by chart choice
        if bipoly_divide(numerator, Fhat) is None:
            return 1
    return 0


def _visible_chart(curve):
    """The first of X2, X1, X0 that is not the curve's own equation."""
    return next(c for c in (2, 1, 0) if curve.form.terms != {tuple(int(i == c) for i in range(3)): 1})


def _wedge_numerator(symbol, forms, chart, field):
    """Numerator of the 2-form over the common denominator prod(distinct
    support forms)."""
    distinct = list(forms)
    total = BiPoly.zero(field)
    for f, g, e in symbol.entries:
        for A, ea in f.powers.items():
            FA = forms[A]
            dAu, dAv = FA.deriv_u(), FA.deriv_v()
            for B, eb in g.powers.items():
                if A == B:
                    continue
                FB = forms[B]
                wedge = dAu * FB.deriv_v() - dAv * FB.deriv_u()
                if not wedge:
                    continue
                rest = BiPoly.constant(field.element((e * ea * eb) % field.p))
                if not rest:
                    continue
                for other in distinct:
                    if other != A and other != B:
                        rest = rest * forms[other]
                total = total + wedge * rest
    return total
