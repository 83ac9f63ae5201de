"""Seeded generators for the benchmark's config corpora.

Each generator returns a list of operations ``{"config": doc, "ext_bound": n}``;
``doc`` is a config as ``adele-forge run`` reads it and ``ext_bound`` is its
``--ext-bound`` flag.  The same (workload, seed) always gives the same bytes
(see ``corpus_sha256``).

Every input is checked with this module's own arithmetic over GF(p), never by
calling the program: Weierstrass curves have a nonzero discriminant, conics
are nondegenerate, cubics are nonsingular, the two curves of an intersection
are distinct, and no symbol holds a zero function.

The corpora are stratified: the seed picks coefficients and window offsets,
while the mix of fields, curve models, degree bands and support degrees is
fixed.  So one pass costs about the same on every seed, and the top decile of
operations comes from the same strata.
"""

import hashlib
import json
from random import Random

WORKLOADS = ("selfcheck", "cohomology", "extension-reciprocity", "plane-intersect")
DEFAULT_SEED = 0


def generate(workload, seed):
    """The corpus of ``workload`` for ``seed``; [] for selfcheck."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    if workload == "selfcheck":
        return []  # the registered checks carry their own fixed inputs
    rng = Random("%s:%d" % (workload, seed))
    return {
        "cohomology": _cohomology,
        "extension-reciprocity": _extension_reciprocity,
        "plane-intersect": _plane_intersect,
    }[workload](rng)


def corpus_sha256(ops):
    """Digest of the corpus bytes as the benchmark sends them to a pass."""
    return hashlib.sha256(json.dumps(ops).encode()).hexdigest()


# ---------------------------------------------------------------------------
# arithmetic over GF(p): polynomials are int lists, low degree first


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _sub(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)])


def _mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _divmod(a, b, p):
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        q[shift] = c
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % p
        _trim(a)
    return _trim(q), a


def _gcd(a, b, p):
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return a


def _powmod(base, e, mod, p):
    result, base = [1], _divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _divmod(_mul(result, base, p), mod, p)[1]
        base = _divmod(_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _derivative(a, p):
    return _trim([(i * c) % p for i, c in enumerate(a)][1:])


def factor_degrees(f, p):
    """Degrees of the irreducible factors of a squarefree f over GF(p)
    (distinct-degree factorization); None when f is not squarefree."""
    f = _trim(list(f))
    if len(_gcd(f, _derivative(f, p), p)) > 1:
        return None
    degrees = []
    h = [0, 1]
    i = 0
    while len(f) > 1:
        i += 1
        if 2 * i > len(f) - 1:
            degrees.append(len(f) - 1)
            break
        h = _powmod(h, p, f, p)
        g = _gcd(f, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            degrees += [i] * ((len(g) - 1) // i)
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    return sorted(degrees)


def _det3(m, p):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    ) % p


def _elliptic_disc(a, b, p):
    return (-16 * (4 * a**3 + 27 * b * b)) % p


def _random_elliptic(rng, p):
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if _elliptic_disc(a, b, p):
            return a, b


# ---------------------------------------------------------------------------
# cohomology: rr-table windows on P^1 and on elliptic curves, k = 1 only

# (band start, window width, offsets): a window [lo, lo + width] starts up to
# ``offsets - 1`` past its band start.  An elliptic table costs ~0.05 s per
# degree near 0 and ~0.2 s near 8, and doubles every few degrees above, so
# elliptic windows stay low and move little; P^1 reaches degree ~40.  The
# seven bands of four configs put the median operation inside the P^1 band
# at 22, whose cost the seed hardly moves, rather than between two bands.
_P1_BANDS = ((0, 3, 3), (14, 3, 3), (22, 3, 3), (35, 3, 3))
_EC_BANDS = ((-2, 1, 2), (3, 1, 2), (6, 1, 2))
_PRIMES_SMALL = (3, 5, 7, 11)


def _cohomology(rng):
    ops = []
    for p in _PRIMES_SMALL:
        a, b = _random_elliptic(rng, p)
        for start, width, offsets in _P1_BANDS:
            lo = start + rng.randrange(offsets)
            ops.append(_rr(p, {"model": "projective-line"}, lo, lo + width))
        for start, width, offsets in _EC_BANDS:
            lo = start + rng.randrange(offsets)
            ops.append(_rr(p, {"model": "elliptic", "a": a, "b": b}, lo, lo + width))
    return ops


def _rr(p, curve, lo, hi):
    doc = {"task": "rr-table", "field": {"p": p}, "curve": curve, "degrees": [lo, hi]}
    return {"config": doc, "ext_bound": 6}


# ---------------------------------------------------------------------------
# extension-reciprocity: {f, g} with f = a(x) + b(x) y (a, b linear) and
# g = c(x) linear


# Factor degrees of the norm a^2 - b^2 (x^3 + A x + B) of f, a squarefree
# quintic: the support of f holds places of degree up to 5, so residue
# fields GF(p^k) and factorization are exercised.  Every pattern here occurs
# over GF(3), GF(5) and GF(7).  g has poles only at O, of order 2, which
# keeps the origin expansions of the tame symbol short.
_RECIPROCITY_PATTERNS = ((5,), (1, 4), (2, 3), (1, 1, 3), (1, 2, 2))
_PRIMES_RECIPROCITY = (3, 5, 7)
EXT_BOUND_RECIPROCITY = 16


def _extension_reciprocity(rng):
    ops = []
    for p in _PRIMES_RECIPROCITY:
        for pattern in _RECIPROCITY_PATTERNS:
            f = None
            while f is None:
                # not every pattern occurs on every curve: redraw the curve
                A, B = _random_elliptic(rng, p)
                f = _function_with_norm(rng, p, A, B, pattern)
            g = {"num": [rng.randrange(p), rng.randrange(1, p)]}
            doc = {
                "task": "reciprocity",
                "field": {"p": p},
                "curve": {"model": "elliptic", "a": A, "b": B},
                "symbols": [[[f, g, rng.choice((1, -1, 2))]]],
            }
            ops.append({"config": doc, "ext_bound": EXT_BOUND_RECIPROCITY})
    return ops


def _function_with_norm(rng, p, A, B, pattern, attempts=64):
    """a(x) + b(x) y with a and b linear (so nonzero and nonconstant) whose
    norm is squarefree with the given factor degrees; None if ``attempts``
    draws find none."""
    rhs = [B, A, 0, 1]
    for _ in range(attempts):
        a = [rng.randrange(p), rng.randrange(1, p)]
        b = [rng.randrange(p), rng.randrange(1, p)]
        norm = _sub(_mul(a, a, p), _mul(_mul(b, b, p), rhs, p), p)
        if factor_degrees(norm, p) == list(pattern):
            return {"num": a, "ynum": b}
    return None


# ---------------------------------------------------------------------------
# plane-intersect: lines, nondegenerate conics, nonsingular cubics


# Pairings of component degrees with Bezout number <= 6, so every
# intersection point has degree <= 6, the default --ext-bound.  The cost of
# a pairing depends on the degrees of its intersection points, which the
# seed decides, so each (field, pairing) stratum gets two configs.
_INTERSECT_PAIRS = ((1, 2), (1, 3), (2, 2), (2, 3))
_PRIMES_PLANE = (5, 7, 11)
_PER_STRATUM = 2

_MONOMIALS = {
    d: [(i, j, d - i - j) for i in range(d, -1, -1) for j in range(d - i, -1, -1)]
    for d in (1, 2, 3)
}


def _plane_intersect(rng):
    ops = []
    for p in _PRIMES_PLANE:
        for d1, d2 in _INTERSECT_PAIRS * _PER_STRATUM:
            while True:
                f1, f2 = _plane_form(rng, p, d1), _plane_form(rng, p, d2)
                if d1 != d2 or not _proportional(f1, f2, p):
                    break
            doc = {
                "task": "intersect",
                "field": {"p": p},
                "divisor1": [{"form": _rows(f1), "multiplicity": rng.choice((1, 2))}],
                "divisor2": [{"form": _rows(f2), "multiplicity": 1}],
            }
            ops.append({"config": doc, "ext_bound": 6})
    return ops


def _rows(form):
    return [[i, j, k, c] for (i, j, k), c in sorted(form.items())]


def _plane_form(rng, p, degree):
    if degree == 1:
        while True:
            line = {m: rng.randrange(p) for m in _MONOMIALS[1]}
            if any(line.values()):
                return {m: c for m, c in line.items() if c}
    if degree == 2:
        return _conic(rng, p)
    return _cubic(rng, p)


def _conic(rng, p):
    """Random conic with nonzero discriminant (p odd)."""
    while True:
        c = {m: rng.randrange(p) for m in _MONOMIALS[2]}
        sq = [c[(2, 0, 0)], c[(0, 2, 0)], c[(0, 0, 2)]]
        x01, x02, x12 = c[(1, 1, 0)], c[(1, 0, 1)], c[(0, 1, 1)]
        matrix = [[2 * sq[0], x01, x02], [x01, 2 * sq[1], x12], [x02, x12, 2 * sq[2]]]
        if _det3(matrix, p):
            return {m: v for m, v in c.items() if v}


def _cubic(rng, p):
    """X1^3 + A X1 X0^2 + B X0^3 - X0 X2^2 (nonzero discriminant) under a
    random invertible change of coordinates: nonsingular, so irreducible."""
    A, B = _random_elliptic(rng, p)
    weierstrass = {(0, 3, 0): 1, (2, 1, 0): A, (3, 0, 0): B, (1, 0, 2): p - 1}
    while True:
        t = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        if _det3(t, p):
            break
    images = [{(1, 0, 0): t[r][0], (0, 1, 0): t[r][1], (0, 0, 1): t[r][2]} for r in range(3)]
    out = {}
    for (i, j, k), c in weierstrass.items():
        term = {(0, 0, 0): c}
        for var, power in enumerate((i, j, k)):
            for _ in range(power):
                term = _form_mul(term, images[var], p)
        for m, v in term.items():
            out[m] = (out.get(m, 0) + v) % p
    return {m: v for m, v in out.items() if v}


def _form_mul(f, g, p):
    out = {}
    for (a, b, c), x in f.items():
        for (d, e, h), y in g.items():
            key = (a + d, b + e, c + h)
            out[key] = (out.get(key, 0) + x * y) % p
    return out


def _proportional(f, g, p):
    if set(f) != set(g):
        return False
    m = next(iter(f))
    ratio = g[m] * pow(f[m], p - 2, p) % p
    return all(g[k] == f[k] * ratio % p for k in f)
