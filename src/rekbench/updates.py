"""The closed-form 2-D update of a pair of lines, with its parallel test.

A 2-D step moves along two rows (or two columns) of A at once.  Its
coefficients solve the 2x2 Gram system of the pair in closed form: for
rows, they zero both chosen shifted residuals (Petrov-Galerkin
condition); for columns, with -A^T z as the residual, they annihilate
both chosen column inner products with z.  A numerically parallel pair
has no 2-D step: the kernel returns None, and the solver takes the 1-D
step instead.
"""

from __future__ import annotations

import math
from typing import NamedTuple

PARALLEL_TOL = 1e-12


class PairGeometry(NamedTuple):
    denom: float  # |v1|^2 |v2|^2 - <v1, v2>^2
    parallel: bool  # 1 - mu^2 <= PARALLEL_TOL, mu the cosine of the pair


def pair_geometry_from(dot, n1_sq, n2_sq):
    """PairGeometry from the inner product and squared norms of two nonzero lines.

    The solver passes Python floats, which round as numpy's float64 scalars
    do at a fraction of their cost per operation.
    """
    mu = dot / math.sqrt(n1_sq * n2_sq)
    return PairGeometry(n1_sq * n2_sq - dot * dot, 1.0 - mu * mu <= PARALLEL_TOL)


def two_dim_row_coeffs(dot, n1_sq, n2_sq, r1, r2):
    """(gamma, lambda) solving [[n1_sq, dot], [dot, n2_sq]] (gamma, lambda) = (r1, r2).

    dot and n1_sq, n2_sq are the inner product and squared norms of two
    lines of A, and r1, r2 the residuals to zero along them.  None for a
    parallel pair.
    """
    geo = pair_geometry_from(dot, n1_sq, n2_sq)
    if geo.parallel:
        return None
    gamma = (n2_sq * r1 - dot * r2) / geo.denom
    lam = (n1_sq * r2 - dot * r1) / geo.denom
    return float(gamma), float(lam)
