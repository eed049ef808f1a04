import numpy as np
import pytest

from rekbench.linalg import DenseMatrix, build_norm_cache
from rekbench.updates import (
    ParallelPairError,
    ZeroNormError,
    col_project_1d,
    pair_geometry,
    row_update_1d,
    two_dim_col_coeffs,
    two_dim_col_update,
    two_dim_row_coeffs,
    two_dim_row_update,
)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def test_row_update_identity():
    A = DenseMatrix(np.eye(2))
    x = row_update_1d(np.zeros(2), A, build_norm_cache(A), 0, 5.0)
    assert np.array_equal(x, [5.0, 0.0])


def test_row_update_noop_when_satisfied():
    A = DenseMatrix([[1.0, 2.0]])
    x = np.array([1.0, 1.0])
    out = row_update_1d(x, A, build_norm_cache(A), 0, 3.0)
    assert np.array_equal(out, x)


def test_row_update_satisfies_row():
    g = rng(1)
    A = DenseMatrix(g.standard_normal((5, 3)))
    cache = build_norm_cache(A)
    x = g.standard_normal(3)
    out = row_update_1d(x, A, cache, 2, 1.25)
    assert A.row_dot(2, out) == pytest.approx(1.25, abs=1e-12)


def test_row_update_zero_row_rejected():
    A = DenseMatrix([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ZeroNormError):
        row_update_1d(np.zeros(2), A, build_norm_cache(A), 0, 1.0)


def test_col_project_identity():
    A = DenseMatrix(np.eye(2))
    z = col_project_1d(np.array([3.0, 4.0]), A, build_norm_cache(A), 0)
    assert np.array_equal(z, [0.0, 4.0])


def test_col_project_orthogonal_noop():
    A = DenseMatrix([[1.0], [0.0]])
    z = np.array([0.0, 2.0])
    assert np.array_equal(col_project_1d(z, A, build_norm_cache(A), 0), z)


def test_col_project_idempotent_and_monotone():
    g = rng(2)
    A = DenseMatrix(g.standard_normal((6, 4)))
    cache = build_norm_cache(A)
    z = g.standard_normal(6)
    once = col_project_1d(z, A, cache, 1)
    twice = col_project_1d(once, A, cache, 1)
    assert np.allclose(once, twice, atol=1e-12)
    assert np.linalg.norm(once) <= np.linalg.norm(z)
    assert abs(A.col_dot(1, once)) <= 1e-12 * np.linalg.norm(z) * np.linalg.norm(A.col(1))


def test_pair_geometry_orthogonal():
    geo = pair_geometry([1.0, 0.0], [0.0, 1.0])
    assert geo.mu == 0.0
    assert not geo.parallel


def test_pair_geometry_parallel():
    geo = pair_geometry([1.0, 0.0], [2.0, 0.0])
    assert geo.mu == pytest.approx(1.0)
    assert geo.parallel


def test_pair_geometry_hand_case():
    geo = pair_geometry([1.0, 1.0], [1.0, 0.0])
    assert geo.mu == pytest.approx(1 / np.sqrt(2))
    assert geo.u_norm_sq == pytest.approx(0.5)
    assert geo.denom == pytest.approx(geo.u_norm_sq * 2.0 * 1.0, rel=1e-10)


def test_row_coeffs_orthonormal():
    A = DenseMatrix(np.eye(2))
    co = two_dim_row_coeffs(A, build_norm_cache(A), 0, 1, 1.0, 2.0)
    assert (co.gamma, co.lam) == (1.0, 2.0)


def test_row_coeffs_zero_residuals():
    g = rng(3)
    A = DenseMatrix(g.standard_normal((4, 4)))
    co = two_dim_row_coeffs(A, build_norm_cache(A), 0, 2, 0.0, 0.0)
    assert (co.gamma, co.lam) == (0.0, 0.0)


def test_row_coeffs_cramer_oracle():
    g = rng(4)
    A = DenseMatrix(g.standard_normal((2, 4)))
    cache = build_norm_cache(A)
    r1, r2 = 0.7, -1.3
    co = two_dim_row_coeffs(A, cache, 0, 1, r1, r2)
    gram = A.values @ A.values.T
    det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
    gamma = (r1 * gram[1, 1] - gram[0, 1] * r2) / det
    lam = (gram[0, 0] * r2 - gram[1, 0] * r1) / det
    assert co.gamma == pytest.approx(gamma, rel=1e-12)
    assert co.lam == pytest.approx(lam, rel=1e-12)


def test_row_coeffs_one_pair_dot():
    calls = []

    class Counting(DenseMatrix):
        def row_pair_dot(self, i1, i2):
            calls.append((i1, i2))
            return super().row_pair_dot(i1, i2)

    A = Counting(rng(5).standard_normal((3, 4)))
    two_dim_row_coeffs(A, build_norm_cache(A), 0, 2, 0.5, -1.0)
    assert calls == [(0, 2)]


def test_row_coeffs_parallel_rejected():
    A = DenseMatrix([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ParallelPairError):
        two_dim_row_coeffs(A, build_norm_cache(A), 0, 1, 1.0, 2.0)


def test_row_update_identity_one_step():
    A = DenseMatrix(np.eye(2))
    b = np.array([1.0, 2.0])
    x = two_dim_row_update(np.zeros(2), A, build_norm_cache(A), 0, 1, b[0], b[1])
    assert np.allclose(x, b)


def test_row_update_parallel_fallback():
    A = DenseMatrix([[1.0, 0.0], [2.0, 0.0]])
    # r1 = b1 - A^(0) x with x = 0 and b1 = 1.
    x = two_dim_row_update(np.zeros(2), A, build_norm_cache(A), 0, 1, 1.0, 2.0)
    assert np.allclose(x, [1.0, 0.0])


def test_row_update_petrov_galerkin():
    g = rng(5)
    A = DenseMatrix(g.standard_normal((6, 4)))
    cache = build_norm_cache(A)
    x_true = g.standard_normal(4)
    b = A.matvec(x_true)
    x = g.standard_normal(4)
    r1 = b[1] - A.row_dot(1, x)
    r2 = b[4] - A.row_dot(4, x)
    out = two_dim_row_update(x, A, cache, 1, 4, r1, r2)
    scale = np.linalg.norm(b) + np.sqrt(cache.frob_sq) * np.linalg.norm(out)
    assert abs(b[1] - A.row_dot(1, out)) <= 1e-10 * scale
    assert abs(b[4] - A.row_dot(4, out)) <= 1e-10 * scale


def test_col_coeffs_orthonormal():
    A = DenseMatrix(np.eye(3))
    z = np.array([3.0, 4.0, 5.0])
    co = two_dim_col_coeffs(A, build_norm_cache(A), 0, 1, z)
    assert (co.gamma, co.lam) == (-3.0, -4.0)


def test_col_coeffs_orthogonal_z():
    A = DenseMatrix([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    co = two_dim_col_coeffs(A, build_norm_cache(A), 0, 1, np.array([0.0, 0.0, 7.0]))
    assert (co.gamma, co.lam) == (0.0, 0.0)


def test_col_coeffs_cramer_oracle():
    g = rng(6)
    A = DenseMatrix(g.standard_normal((5, 2)))
    cache = build_norm_cache(A)
    z = g.standard_normal(5)
    co = two_dim_col_coeffs(A, cache, 0, 1, z)
    gram = A.values.T @ A.values
    rhs = -A.values.T @ z
    gamma, lam = np.linalg.solve(gram, rhs)
    assert co.gamma == pytest.approx(gamma, rel=1e-12)
    assert co.lam == pytest.approx(lam, rel=1e-12)


def test_col_update_identity_annihilates():
    A = DenseMatrix(np.eye(2))
    z = two_dim_col_update(np.array([3.0, 4.0]), A, build_norm_cache(A), 0, 1)
    assert np.allclose(z, 0.0)


def test_col_update_parallel_fallback():
    A = DenseMatrix([[1.0, 2.0], [0.0, 0.0]])
    z = two_dim_col_update(np.array([3.0, 4.0]), A, build_norm_cache(A), 0, 1)
    assert np.allclose(z, col_project_1d(np.array([3.0, 4.0]), A, build_norm_cache(A), 0))


def test_col_update_annihilation_and_monotone():
    g = rng(7)
    A = DenseMatrix(g.standard_normal((7, 4)))
    cache = build_norm_cache(A)
    z = g.standard_normal(7)
    out = two_dim_col_update(z, A, cache, 1, 3)
    bound = 1e-10 * np.sqrt(cache.frob_sq) * np.linalg.norm(z)
    assert abs(A.col_dot(1, out)) <= bound
    assert abs(A.col_dot(3, out)) <= bound
    assert np.linalg.norm(out) <= np.linalg.norm(z)


def test_2d_at_least_as_good_as_1d():
    # Projection onto the intersection of two hyperplanes through x_true
    # is at least as close to x_true as projecting onto one of them.
    g = rng(8)
    for trial in range(20):
        A = DenseMatrix(g.standard_normal((5, 3)))
        cache = build_norm_cache(A)
        x_true = g.standard_normal(3)
        b = A.matvec(x_true)
        x = g.standard_normal(3)
        r1 = b[0] - A.row_dot(0, x)
        r2 = b[1] - A.row_dot(1, x)
        x2 = two_dim_row_update(x, A, cache, 0, 1, r1, r2)
        x1 = row_update_1d(x, A, cache, 0, b[0])
        assert np.linalg.norm(x2 - x_true) <= np.linalg.norm(x1 - x_true) + 1e-12


def test_row_updates_nonexpansive_for_consistent():
    g = rng(9)
    A = DenseMatrix(g.standard_normal((6, 3)))
    cache = build_norm_cache(A)
    x_true = g.standard_normal(3)
    b = A.matvec(x_true)
    x = g.standard_normal(3)
    for i in range(6):
        out = row_update_1d(x, A, cache, i, b[i])
        assert np.linalg.norm(out - x_true) <= np.linalg.norm(x - x_true) + 1e-12
