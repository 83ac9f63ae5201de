"""Exact linear algebra over GF(p) on integer matrices.

Rows are lists of ints reduced mod p; only ``kernel_basis`` needs the rref.
"""

from itertools import compress, count, islice

from . import _kernels as K


def rref(rows, p):
    """Reduced row echelon form of a copy; returns (rows, pivot columns)."""
    return K.mat_rref([list(r) for r in rows], p)


def leading_rank(rows, p):
    """Rank over GF(p): a row is reduced only against the kept row with its
    leading (first nonzero) column, until that column is new or the row is
    zero, and nothing is back-substituted, so such a row costs one scan."""
    kept = {}
    for row in rows:
        col = next(compress(count(), row), None)
        while col in kept:
            pivot = kept[col]
            f = row[col] * pow(pivot[col], p - 2, p)
            row = [0] * (col + 1) + [(a - f * b) % p for a, b in zip(row[col + 1 :], pivot[col + 1 :])]
            col = next(compress(count(col + 1), islice(row, col + 1, None)), None)
        if col is not None:
            kept[col] = row
    return len(kept)


def kernel_basis(rows, p):
    """Basis of the right kernel {v : rows @ v = 0} over GF(p).

    Columns index the unknowns.  Returns a list of int vectors.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows, p)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-red[r][f]) % p
        basis.append(v)
    return basis
