"""Rational adelic cochains on a curve in finite presentation (tail plus
finitely many exceptions), the adelic differential, cohomology of the
complex for O(D) coefficients, divisor 1-cocycles, the residue morphism to
the Gersten complex, and the flag-wise cochain product.
"""

from . import signs
from .curves import (
    Divisor,
    FunctionFieldElement,
    principal_divisor,
    riemann_roch_dimension,
    riemann_roch_pivots,
    valuation,
    x_minimal_poly,
)
from .errors import DomainError
from .fields import DEFAULT_EXT_BOUND, Polynomial
from .milnor import GerstenCochain, MilnorSymbol, residue, residue_support

# The largest auxiliary multiplicity m that cohomology_dims tries: on P^1 a
# degree below -(STABILIZATION_CAP / 2 + 1) needs a larger one to stabilize.
STABILIZATION_CAP = 4096


class AdeleCochain:
    """Finite-presentation adelic cochain on a curve.

    weight is ("coh", Divisor) for coherent O(D) coefficients or ("k", n)
    with n in {0, 1, 2} for K-theory coefficients.

    degree 0 payload: a global component plus a local collection given as a
    default local component with finitely many exceptions.
    degree 1 payload: a tail component used at all unlisted places plus
    finitely many exceptions.

    ``tail`` is required in both degrees: the caller states the component
    at every unlisted place.
    """

    __slots__ = ("curve", "degree", "weight", "global_part", "tail", "exceptions")

    def __init__(self, curve, degree, weight, global_part=None, *, tail, exceptions=None):
        if degree not in (0, 1):
            raise DomainError("curve adelic degrees are 0 and 1")
        kind = weight[0]
        if kind not in ("coh", "k"):
            raise DomainError("unknown coefficient tag %r" % (kind,))
        if kind == "k" and weight[1] not in (0, 1, 2):
            raise DomainError("K-weights 0, 1, 2 are supported")
        self.curve = curve
        self.degree = degree
        self.weight = weight
        self.exceptions = dict(exceptions or {})
        if degree == 0 and global_part is None:
            raise DomainError("degree-0 cochain needs a global component")
        if degree == 1 and global_part is not None:
            raise DomainError("degree-1 cochain has no global component")
        self.global_part = global_part
        self.tail = tail
        if kind == "coh":
            self._check_coherent_integrality()

    def _check_coherent_integrality(self):
        # Degree-0 local collections are unconstrained in this presentation;
        # the degree-1 tail must be integral against D away from exceptions,
        # checked by comparing its pole places with D's support.
        if self.degree != 1:
            return
        D = self.weight[1]
        tail = self.tail
        if isinstance(tail, FunctionFieldElement) and tail:
            check = set()
            for v, _m in principal_divisor(tail).items():
                check.add(v)
            for v, _m in D.items():
                check.add(v)
            for v in check:
                if v in self.exceptions:
                    continue
                if valuation(tail, v) < -D.multiplicity(v):
                    raise DomainError("tail not integral outside exceptions at %r" % (v,))

    def local_component(self, place):
        return self.exceptions.get(place, self.tail)

    def __repr__(self):
        exc = ", ".join(
            "%r: %r" % (v, x)
            for v, x in sorted(self.exceptions.items(), key=lambda vx: vx[0].sort_key())
        )
        if self.degree == 0:
            return "Adele0[global=%r, local tail=%r, {%s}]" % (self.global_part, self.tail, exc)
        return "Adele1[tail=%r, {%s}]" % (self.tail, exc)

    def __eq__(self, other):
        return (
            isinstance(other, AdeleCochain)
            and (self.curve, self.degree, self.weight) == (other.curve, other.degree, other.weight)
            and self.global_part == other.global_part
            and self.tail == other.tail
            and self.exceptions == other.exceptions
        )


class CohomologyReport:
    __slots__ = ("h0", "h1", "bound")

    def __init__(self, h0, h1, bound):
        self.h0 = h0
        self.h1 = h1
        self.bound = bound

    def __repr__(self):
        return "CohomologyReport(h0=%d, h1=%d, bound=%d)" % (self.h0, self.h1, self.bound)


def adelic_differential(cochain):
    """(f_X, {f_x}) -> {f_x - f_X} for a degree-0 coherent cochain."""
    if cochain.degree != 0:
        raise DomainError("differential of a degree-0 cochain expected")
    if cochain.weight[0] != "coh":
        raise DomainError("the differential is implemented for coherent coefficients")
    g = cochain.global_part
    tail = cochain.tail - g
    exc = {v: x - g for v, x in cochain.exceptions.items()}
    exc = {v: x for v, x in exc.items() if x != tail}
    return AdeleCochain(cochain.curve, 1, cochain.weight, tail=tail, exceptions=exc)


def divisor_cocycle(D):
    """The K1-valued 1-cocycle with exception s_v^(-D(v)) at v in supp D.

    s_v is the canonical uniformizer: the place polynomial on P^1 (1/t at
    infinity), the x-minimal polynomial / y / x/y on the elliptic model.
    """
    curve = D.curve
    exc = {}
    for v, m in D.items():
        u = uniformizer(v)
        exc[v] = u ** (-m)
    return AdeleCochain(curve, 1, ("k", 1), tail=FunctionFieldElement.one(curve), exceptions=exc)


def uniformizer(place):
    """A function with valuation exactly 1 at the place."""
    curve = place.curve
    if place.kind == "p1-finite":
        return FunctionFieldElement(curve, place.data)
    if place.kind == "p1-infinity":
        return FunctionFieldElement(curve, Polynomial.one(curve.spec), None, Polynomial.x(curve.spec))
    if place.kind == "ec-origin":
        x = FunctionFieldElement.x_function(curve)
        y = FunctionFieldElement.y_function(curve)
        return x / y
    x0, y0 = place.representative()
    if not y0:
        return FunctionFieldElement.y_function(curve)
    u = FunctionFieldElement(curve, x_minimal_poly(place))
    if valuation(u, place) != 1:
        raise DomainError("the minimal polynomial of x is not a uniformizer at %r" % (place,))
    return u


def nu_curve(cochain, ext_bound=DEFAULT_EXT_BOUND):
    """Residue morphism of a degree-1 cochain into the Gersten complex: at
    each place of the tail's ``residue_support`` and each exception, the
    ``milnor.residue`` of the component there, negated at weight 1 and
    raised to the audited weight-2 exponent at weight 2.
    """
    if cochain.degree != 1:
        raise DomainError("nu acts on degree-1 cochains")
    if cochain.weight[0] != "k" or cochain.weight[1] not in (1, 2):
        raise DomainError("nu is defined for K-weight 1 or 2")
    n = cochain.weight[1]
    out = {}
    for v in dict.fromkeys([*residue_support(cochain.tail, ext_bound), *cochain.exceptions]):
        r = residue(cochain.local_component(v), v)
        out[v] = -r if n == 1 else r**signs.NU_WEIGHT2_EXPONENT
    return GerstenCochain(cochain.curve, n, out)


def _value_product(curve, wm, a, wn, b):
    """Product of K-theory values of weights wm and wn."""
    total = wm + wn
    if total > 2:
        raise DomainError("weight overflow: K-weight %d is not supported" % total)
    if wm == 0 and wn == 0:
        return a * b
    if wm == 0:
        return b**a if wn == 1 else MilnorSymbol(curve, [(f, g, e * a) for f, g, e in b.entries])
    if wn == 0:
        return a**b if wm == 1 else MilnorSymbol(curve, [(f, g, e * b) for f, g, e in a.entries])
    return MilnorSymbol.pair(a, b)


def cochain_product(left, right):
    """Flag-wise product (f.g)_{flag} = f_{front} * g_{back}.

    On a curve the allowed degree combinations are (0,0), (0,1), (1,0);
    anything of total degree above 1 overflows the complex.
    """
    if left.curve != right.curve:
        raise DomainError("cochains on different curves")
    if left.weight[0] != "k" or right.weight[0] != "k":
        raise DomainError("products are implemented for K-coefficients")
    curve = left.curve
    p, q = left.degree, right.degree
    if p + q > 1:
        raise DomainError("degree overflow: a curve has no degree-%d cochains" % (p + q))
    wm, wn = left.weight[1], right.weight[1]
    weight = ("k", wm + wn)
    if weight[1] > 2:
        raise DomainError("weight overflow: K-weight %d is not supported" % weight[1])
    if p == 0 and q == 1:
        # front component of the flag (X, x) is the global part of ``left``
        a = left.global_part
        tail = _value_product(curve, wm, a, wn, right.tail)
        exc = {v: _value_product(curve, wm, a, wn, x) for v, x in right.exceptions.items()}
        return AdeleCochain(curve, 1, weight, tail=tail, exceptions=exc)
    # (0, 0) and (1, 0): place by place, the back component of (X, x) is the
    # local part of ``right``; degree 0 adds the product of global parts
    places = set(left.exceptions) | set(right.exceptions)
    tail = _value_product(curve, wm, left.tail, wn, right.tail)
    exc = {
        v: _value_product(curve, wm, left.local_component(v), wn, right.local_component(v))
        for v in places
    }
    if p == 1:
        return AdeleCochain(curve, 1, weight, tail=tail, exceptions=exc)
    g = _value_product(curve, wm, left.global_part, wn, right.global_part)
    return AdeleCochain(curve, 0, weight, global_part=g, tail=tail, exceptions=exc)


def cohomology_dims(curve, D, ext_bound=DEFAULT_EXT_BOUND):
    """h^0 and h^1 of the adelic complex with O(D) coefficients.

    h0 is dim L(D).  h1 is the corank of the principal-parts map
    L(E) -> O(E)/O(D) at the base place v1 (infinity on P^1, O on the
    elliptic model) for an auxiliary divisor E = D + m*v1, recomputed with
    m doubled until two consecutive values agree; a DomainError reports a
    divisor that needs m > STABILIZATION_CAP.  The basis of L(E) has
    pairwise distinct valuations at v1 (``riemann_roch_pivots``), so the
    matrix of the map is in echelon form and its rank is a count of
    valuations: no expansion is computed.  Riemann-Roch is not asserted
    here: the ``rr-table`` task and the selfcheck compare h0 - h1 with
    deg D + 1 - g and report a mismatch.
    """
    v1 = curve.base_place()
    h0 = riemann_roch_dimension(D, ext_bound)
    m = 2 * (curve.genus + 1)
    previous = None
    while True:
        h1 = _h1_estimate(curve, D, v1, m, h0, ext_bound)
        if previous is not None and h1 == previous:
            break
        previous = h1
        m *= 2
        if m > STABILIZATION_CAP:
            raise DomainError(
                "cohomology of a divisor of degree %d does not stabilize below "
                "the auxiliary multiplicity cap m = %d" % (D.degree, STABILIZATION_CAP)
            )
    return CohomologyReport(h0, h1, m)


def _h1_estimate(curve, D, v1, m, h0, ext_bound):
    """m - rank of the principal-parts map L(E) -> O(E)/O(D), E = D + m*v1.

    Row f of its matrix holds the coefficients of f's expansion at v1 for
    the exponents -E(v1) .. -D(v1)-1.  The valuations of the basis at v1
    are pairwise distinct, so each f with v1(f) < -D(v1) leads its row in a
    column of its own, every other row is zero, and the rank is the number
    of such f.  The kernel is L(D), of dimension h0; a rank that says
    otherwise raises DomainError.
    """
    dv1 = D.multiplicity(v1)
    pivots = riemann_roch_pivots(D + Divisor(curve, {v1: m}), ext_bound)
    rk = sum(v < -dv1 for v in pivots)
    if rk != len(pivots) - h0:
        raise DomainError("principal-parts kernel is not L(D)")
    return m - rk
