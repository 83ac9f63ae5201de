"""Exact linear algebra over GF(p) on integer matrices.

Rows are lists of ints reduced mod p.
"""

from . import _kernels as K


def rref(rows, p):
    """Reduced row echelon form of a copy; returns (rows, pivot columns)."""
    return K.mat_rref([list(r) for r in rows], p)


def kernel_basis(rows, p):
    """Basis of the right kernel {v : rows @ v = 0} over GF(p).

    Columns index the unknowns.  Returns a list of int vectors, one per
    free column f of the rref: 1 at f, and otherwise nonzero only at pivot
    columns left of f, so f is the vector's last nonzero entry.
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
