"""Pure-Python kernels for dense GF(p) polynomial and matrix arithmetic.

Polynomials are plain lists of ints in [0, p), lowest degree first, with no
trailing zeros ([] is the zero polynomial).  Matrices are lists of row lists.
These routines are the hot inner loops of the whole package.  Python ints
never overflow, so any prime p is exact (``tests/test_kernels.py`` checks
up to p = 2^61 - 1).
"""


def poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    c = a[:]
    for i, bi in enumerate(b):
        s = c[i] + bi
        c[i] = s - p if s >= p else s
    return poly_trim(c)


def poly_sub(a, b, p):
    c = a[:] + [0] * (len(b) - len(a))
    for i, bi in enumerate(b):
        s = c[i] - bi
        c[i] = s + p if s < 0 else s
    return poly_trim(c)


def poly_neg(a, p):
    return [0 if x == 0 else p - x for x in a]


def poly_scale(a, s, p):
    s %= p
    if s == 0:
        return []
    return poly_trim([(x * s) % p for x in a])


def poly_mul(a, b, p):
    if not a or not b:
        return []
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                c[i + j] += ai * bj
    for i in range(len(c)):
        c[i] %= p
    return poly_trim(c)


def poly_divmod(a, b, p):
    if b and b[-1] == 0:
        b = poly_trim(b[:])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = poly_trim(a[:])
    m, n = len(r), len(b)
    if m < n:
        return [], r
    inv = pow(b[-1], p - 2, p)
    q = [0] * (m - n + 1)
    for i in range(m - n, -1, -1):
        if len(r) == i + n:
            qi = (r[-1] * inv) % p
            q[i] = qi
            if qi:
                for j in range(n):
                    r[i + j] = (r[i + j] - qi * b[j]) % p
            poly_trim(r)
    return poly_trim(q), r


def poly_mod(a, b, p):
    return poly_divmod(a, b, p)[1]


def poly_gcd(a, b, p):
    a, b = a[:], b[:]
    while b:
        a, b = b, poly_mod(a, b, p)
    if a and a[-1] != 1:
        inv = pow(a[-1], p - 2, p)
        a = [(x * inv) % p for x in a]
    return a


def poly_invmod(a, m, p):
    """Inverse of a modulo m; raises ZeroDivisionError if gcd(a, m) != 1."""
    r0, r1 = m[:], poly_mod(a, m, p)
    t0, t1 = [], [1]
    while r1:
        q, r = poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1, p), p)
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible")
    return poly_scale(t0, pow(r0[0], p - 2, p), p)


def poly_powmod(a, e, m, p):
    if e < 0:
        a = poly_invmod(a, m, p)
        e = -e
    result = [1]
    a = poly_mod(a, m, p)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, a, p), m, p)
        a = poly_mod(poly_mul(a, a, p), m, p)
        e >>= 1
    return result


def poly_eval(a, x, p):
    y = 0
    for c in reversed(a):
        y = (y * x + c) % p
    return y


def mat_rref(rows, p):
    """Reduced row echelon form in place over GF(p).

    Returns (rref rows, pivot column list).  ``rows`` is consumed.
    """
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = -1
        for i in range(r, len(rows)):
            if rows[i][col] % p:
                pivot = i
                break
        if pivot < 0:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        row = rows[r]
        for j in range(col, ncols):
            row[j] = (row[j] * inv) % p
        for i in range(len(rows)):
            if i != r and rows[i][col] % p:
                f = rows[i][col] % p
                ri = rows[i]
                for j in range(col, ncols):
                    ri[j] = (ri[j] - f * row[j]) % p
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots
