"""Dense GF(p) polynomial and matrix kernels (see ``pure``).

The package re-exports the functions of its ``pure`` submodule, where they
are defined and where they call one another.  A tracer that rebinds the
names here (``perfbench/tracing.py``) therefore sees ``poly_gcd`` as one
call, not as one call per inner ``poly_mod``.
"""

from .pure import (  # noqa: F401
    mat_rref,
    poly_add,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_invmod,
    poly_mod,
    poly_mul,
    poly_neg,
    poly_powmod,
    poly_scale,
    poly_sub,
)

BACKEND = "pure"
