"""Milnor K1/K2 symbols over a curve's function field: tame-symbol boundary
maps, the curve-level Gersten complex, its direct image to the prime field
(the one pushforward by norms, which Weil reciprocity and the Massey triple
product share), and the dlog comparison map with rational 1-forms on the
projective line.

A symbol is a formal product of pairs {f, g} with integer exponents; it is
never reduced modulo the Steinberg relation.  Only its residues are
observable.
"""

from .curves import (
    FunctionFieldElement,
    expand_at,
    leading_term,
    principal_divisor,
)
from .errors import DomainError
from .fields import DEFAULT_EXT_BOUND, factor_polynomial, norm_to_prime_field, trace_to_prime_field


class MilnorSymbol:
    """Formal product of Steinberg symbols {f, g}^e with f, g nonzero."""

    __slots__ = ("curve", "entries")

    def __init__(self, curve, entries):
        flat = []
        for f, g, e in entries:
            if f.curve != curve or g.curve != curve:
                raise DomainError("symbol entries on a different curve")
            if not f or not g:
                raise DomainError("symbol entry with a zero function")
            if e:
                flat.append((f, g, e))
        self.curve = curve
        self.entries = tuple(flat)

    @classmethod
    def pair(cls, f, g, e=1):
        return cls(f.curve, [(f, g, e)])

    def __eq__(self, other):
        return (
            isinstance(other, MilnorSymbol)
            and self.curve == other.curve
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.curve, self.entries))

    def __repr__(self):
        if not self.entries:
            return "{1}"
        return " * ".join("{%r,%r}^%d" % (f, g, e) for f, g, e in self.entries)


def symbol_support(symbol, ext_bound=DEFAULT_EXT_BOUND):
    """Places where some entry function has a zero or a pole."""
    places = {}
    for f, g, _ in symbol.entries:
        for h in (f, g):
            if h.is_constant():
                continue
            for v, _m in principal_divisor(h, ext_bound).items():
                places[v] = None
    return sorted(places, key=lambda v: v.sort_key())


def tame_symbol(symbol, place):
    """(-1)^(v(f)v(g)) * f^v(g) / g^v(f) reduced at the place, extended
    multiplicatively over the entries: with f = u_f*t^v(f) + ... and g alike
    in one local parameter t, that is (-1)^(v(f)v(g)) * u_f^v(g) / u_g^v(f)."""
    if place.curve != symbol.curve:
        raise DomainError("place on a different curve")
    result = place.residue_field().one()
    for f, g, e in symbol.entries:
        vf, uf = leading_term(f, place)
        vg, ug = leading_term(g, place)
        value = uf**vg / ug**vf
        if (vf * vg) % 2:
            value = -value
        result = result * value**e
    return result


class GerstenCochain:
    """A term of the curve Gersten complex.

    level 0 holds a single element of K_n(k(X)) (a function for n=1, a
    MilnorSymbol for n=2, an integer for n=0); level 1 holds a finite map
    from places to K_(n-1) of the residue fields.
    """

    __slots__ = ("curve", "level", "weight", "payload")

    def __init__(self, curve, level, weight, payload):
        if level not in (0, 1):
            raise DomainError("curve Gersten levels are 0 and 1")
        if weight not in (0, 1, 2):
            raise DomainError("supported weights are 0, 1, 2")
        if level == 1:
            payload = {v: x for v, x in payload.items() if _nontrivial(weight, x)}
        self.curve = curve
        self.level = level
        self.weight = weight
        self.payload = payload

    def items(self):
        return sorted(self.payload.items(), key=lambda vx: vx[0].sort_key())

    def __repr__(self):
        if self.level == 0:
            return "Gersten0[%r]" % (self.payload,)
        return "Gersten1{%s}" % (
            ", ".join("%r: %r" % (v, x) for v, x in self.items())
        )

    def __eq__(self, other):
        return (
            isinstance(other, GerstenCochain)
            and (self.curve, self.level, self.weight) == (other.curve, other.level, other.weight)
            and self.payload == other.payload
        )


def _nontrivial(weight, x):
    if weight == 1:
        return x != 0
    one = x.spec.one()
    return x != one


def gersten_boundary(cochain, ext_bound=DEFAULT_EXT_BOUND):
    """Residue differential of a level-0 cochain: valuations for weight 1,
    tame symbols for weight 2."""
    if cochain.level != 0:
        raise DomainError("boundary of a level-0 cochain expected")
    curve = cochain.curve
    if cochain.weight == 1:
        f = cochain.payload
        div = principal_divisor(f, ext_bound)
        return GerstenCochain(curve, 1, 1, dict(div.items()))
    if cochain.weight == 2:
        symbol = cochain.payload
        out = {}
        for v in symbol_support(symbol, ext_bound):
            out[v] = tame_symbol(symbol, v)
        return GerstenCochain(curve, 1, 2, out)
    raise DomainError("no boundary at weight 0")


def direct_image(cochain):
    """The pushforward K_1(k(v)) -> GF(p)* of a level-1 weight-2 cochain:
    the product of the norms of its values down to the prime field, 1 for
    the empty cochain."""
    result = cochain.curve.spec.one()
    for x in cochain.payload.values():
        result = result * norm_to_prime_field(x)
    return result


def weil_reciprocity_check(symbol, ext_bound=DEFAULT_EXT_BOUND):
    """The direct image of the Gersten boundary of a symbol: the product over
    all places of the norms of its tame symbols, which is 1 on a proper
    curve."""
    boundary = gersten_boundary(GerstenCochain(symbol.curve, 0, 2, symbol), ext_bound)
    return direct_image(boundary)


# ---------------------------------------------------------------------------
# dlog for K1 on the projective line


class RationalOneForm:
    """omega * dt on the projective line, omega a function on it."""

    __slots__ = ("curve", "omega")

    def __init__(self, curve, omega):
        if curve.kind != "p1":
            raise DomainError("rational 1-forms are implemented on P^1")
        self.curve = curve
        self.omega = omega

    def __eq__(self, other):
        return (
            isinstance(other, RationalOneForm)
            and self.curve == other.curve
            and self.omega == other.omega
        )

    def __repr__(self):
        return "(%r) dt" % (self.omega,)


def dlog_k1(f):
    """dlog(f) = (f'/f) dt for a nonzero function on the projective line."""
    if f.curve.kind != "p1":
        raise DomainError("dlog is implemented on P^1")
    if not f:
        raise DomainError("dlog of zero undefined")
    # f = a/c, so f'/f = (a'c - ac')/(ac)
    a, _, c = f.abc
    return RationalOneForm(
        f.curve, FunctionFieldElement(f.curve, a.derivative() * c - a * c.derivative(), None, a * c)
    )


def form_residue(form, place):
    """Residue of the form at a place of P^1, traced down to the prime field."""
    curve = form.curve
    if place.curve != curve:
        raise DomainError("place on a different curve")
    if not form.omega:
        return curve.spec.zero()
    f = form.omega
    if place.kind == "p1-finite":
        ser = expand_at(f, place, 0)
        return trace_to_prime_field(ser.coefficient(-1))
    # at infinity: t = 1/u, dt = -du/u^2, so res = -[u^1] of the expansion
    ser = expand_at(f, place, 2)
    return -ser.coefficient(1)


def dlog_pole_order_check(f):
    """Maximum pole order of dlog(f) over the places of P^1 (0 for constants)."""
    form = dlog_k1(f)
    if not form.omega:
        return 0
    num, _, den = form.omega.abc
    worst = 0
    if den.degree > 0:
        _, factors = factor_polynomial(den)
        worst = max(mult for _, mult in factors)
    pole_at_inf = 2 - (den.degree - num.degree)
    return max(worst, pole_at_inf, 0)
