"""Core algebraic updates: 1-D row (Kaczmarz) and column (orthogonal
projection) steps, and the 2-D closed-form pair updates with their
parallel-pair fallbacks.

The 2-D coefficients solve the 2x2 Gram system of the selected pair in
closed form; the row version zeroes both selected shifted residuals
(Petrov-Galerkin condition), the column version annihilates both selected
column inner products with z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PARALLEL_TOL = 1e-12


class ParallelPairError(ValueError):
    """The selected pair is (numerically) parallel; use the 1-D fallback."""


class ZeroNormError(ValueError):
    """A selected row/column has zero norm."""


@dataclass(frozen=True)
class PairGeometry:
    mu: float
    u_norm_sq: float  # 1 - mu^2
    denom: float  # |v1|^2 |v2|^2 - <v1, v2>^2
    parallel: bool


@dataclass(frozen=True)
class TwoDimCoeffs:
    gamma: float
    lam: float


def pair_geometry_from(dot, n1_sq, n2_sq):
    """PairGeometry from the inner product and squared norms of a pair."""
    if n1_sq <= 0.0 or n2_sq <= 0.0:
        raise ZeroNormError("pair geometry needs two nonzero vectors")
    mu = dot / np.sqrt(n1_sq * n2_sq)
    u_norm_sq = 1.0 - mu * mu
    return PairGeometry(
        mu=float(mu),
        u_norm_sq=float(u_norm_sq),
        denom=float(n1_sq * n2_sq - dot * dot),
        parallel=bool(u_norm_sq <= PARALLEL_TOL),
    )


def pair_geometry(v1, v2, norms=None):
    """PairGeometry of two dense vectors (norms optionally precomputed)."""
    v1 = np.asarray(v1, dtype=np.float64)
    v2 = np.asarray(v2, dtype=np.float64)
    if norms is None:
        n1_sq, n2_sq = float(v1 @ v1), float(v2 @ v2)
    else:
        n1_sq, n2_sq = norms[0] ** 2, norms[1] ** 2
    return pair_geometry_from(float(v1 @ v2), n1_sq, n2_sq)


def row_update_1d(x, A, cache, i, rhs_i):
    """x' = x + (rhs_i - A^(i) x) / |A^(i)|^2 * (A^(i))^T."""
    n_sq = cache.row_sq_norms[i]
    if n_sq <= 0.0:
        raise ZeroNormError(f"row {i} has zero norm")
    out = np.array(x, dtype=np.float64)
    A.add_scaled_row(out, i, (rhs_i - A.row_dot(i, x)) / n_sq)
    return out


def col_project_1d(z, A, cache, j):
    """z' = z - (A_(j)^T z) / |A_(j)|^2 * A_(j); annihilates column j."""
    n_sq = cache.col_sq_norms[j]
    if n_sq <= 0.0:
        raise ZeroNormError(f"column {j} has zero norm")
    out = np.array(z, dtype=np.float64)
    A.add_scaled_col(out, j, -A.col_dot(j, z) / n_sq)
    return out


def two_dim_row_coeffs(A, cache, i1, i2, r1, r2):
    """Closed-form (gamma, lambda) zeroing the residuals at rows i1, i2."""
    n1_sq = cache.row_sq_norms[i1]
    n2_sq = cache.row_sq_norms[i2]
    dot = A.row_pair_dot(i1, i2)
    geo = pair_geometry_from(dot, n1_sq, n2_sq)
    if geo.parallel:
        raise ParallelPairError(f"rows {i1}, {i2} are parallel")
    gamma = (n2_sq * r1 - dot * r2) / geo.denom
    lam = (n1_sq * r2 - dot * r1) / geo.denom
    return TwoDimCoeffs(float(gamma), float(lam))


def two_dim_row_update(x, A, cache, i1, i2, r1, r2):
    """x' = x + gamma (A^(i1))^T + lambda (A^(i2))^T, 1-D fallback if parallel."""
    if i1 == i2:
        return row_update_1d(x, A, cache, i1, A.row_dot(i1, x) + r1)
    try:
        co = two_dim_row_coeffs(A, cache, i1, i2, r1, r2)
    except ParallelPairError:
        return row_update_1d(x, A, cache, i1, A.row_dot(i1, x) + r1)
    out = np.array(x, dtype=np.float64)
    A.add_scaled_row(out, i1, co.gamma)
    A.add_scaled_row(out, i2, co.lam)
    return out


def two_dim_col_coeffs(A, cache, j1, j2, z):
    """Closed-form (gamma~, lambda~) annihilating columns j1, j2 against z."""
    n1_sq = cache.col_sq_norms[j1]
    n2_sq = cache.col_sq_norms[j2]
    dot = A.col_pair_dot(j1, j2)
    geo = pair_geometry_from(dot, n1_sq, n2_sq)
    if geo.parallel:
        raise ParallelPairError(f"columns {j1}, {j2} are parallel")
    g1 = A.col_dot(j1, z)
    g2 = A.col_dot(j2, z)
    gamma = (dot * g2 - n2_sq * g1) / geo.denom
    lam = (dot * g1 - n1_sq * g2) / geo.denom
    return TwoDimCoeffs(float(gamma), float(lam))


def two_dim_col_update(z, A, cache, j1, j2):
    """z' = z + gamma~ A_(j1) + lambda~ A_(j2), 1-D fallback if parallel."""
    if j1 == j2:
        return col_project_1d(z, A, cache, j1)
    try:
        co = two_dim_col_coeffs(A, cache, j1, j2, z)
    except ParallelPairError:
        return col_project_1d(z, A, cache, j1)
    out = np.array(z, dtype=np.float64)
    A.add_scaled_col(out, j1, co.gamma)
    A.add_scaled_col(out, j2, co.lam)
    return out
