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
    valuation,
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
            places.update(dict.fromkeys(residue_support(h, ext_bound)))
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


def residue(x, place):
    """The Gersten residue at a place of an element of K_1 or K_2 of the
    function field: the valuation of a nonzero function, the tame symbol of
    a MilnorSymbol."""
    if isinstance(x, MilnorSymbol):
        return tame_symbol(x, place)
    return valuation(x, place)


def residue_support(x, ext_bound=DEFAULT_EXT_BOUND):
    """The places outside which ``residue(x, .)`` is trivial: the support of
    div(x) for a nonconstant function (none for a nonzero constant), the
    ``symbol_support`` of a MilnorSymbol."""
    if isinstance(x, MilnorSymbol):
        return symbol_support(x, ext_bound)
    if x and x.is_constant():
        return []
    return [v for v, _m in principal_divisor(x, ext_bound).items()]


class GerstenCochain:
    """The level-1 term of the curve Gersten complex at weight 1 or 2: a
    finite map from places to K_(weight-1) of their residue fields, integers
    at weight 1 and residue-field units at weight 2.  Trivial values (0, 1)
    are dropped.
    """

    __slots__ = ("curve", "weight", "payload")

    def __init__(self, curve, weight, payload):
        if weight not in (1, 2):
            raise DomainError("supported weights are 1 and 2")
        self.curve = curve
        self.weight = weight
        self.payload = {v: x for v, x in payload.items() if (x if weight == 1 else x != x.spec.one())}

    def items(self):
        return sorted(self.payload.items(), key=lambda vx: vx[0].sort_key())

    def __repr__(self):
        return "Gersten1{%s}" % (
            ", ".join("%r: %r" % (v, x) for v, x in self.items())
        )

    def __eq__(self, other):
        return (
            isinstance(other, GerstenCochain)
            and (self.curve, self.weight) == (other.curve, other.weight)
            and self.payload == other.payload
        )


def gersten_boundary(x, ext_bound=DEFAULT_EXT_BOUND):
    """The Gersten differential of a nonzero function (weight 1) or a
    MilnorSymbol (weight 2): its residue at each place of its
    ``residue_support``."""
    weight = 2 if isinstance(x, MilnorSymbol) else 1
    return GerstenCochain(x.curve, weight, {v: residue(x, v) for v in residue_support(x, ext_bound)})


def direct_image(cochain):
    """The pushforward K_1(k(v)) -> GF(p)* of a weight-2 cochain: the
    product of the norms of its values down to the prime field, 1 for the
    empty cochain."""
    result = cochain.curve.spec.one()
    for x in cochain.payload.values():
        result = result * norm_to_prime_field(x)
    return result


def weil_reciprocity_check(symbol, ext_bound=DEFAULT_EXT_BOUND):
    """The direct image of the Gersten boundary of a symbol: the product over
    all places of the norms of its tame symbols, which is 1 on a proper
    curve."""
    return direct_image(gersten_boundary(symbol, ext_bound))


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
