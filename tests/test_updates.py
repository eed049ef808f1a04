import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rekbench.linalg import DenseMatrix, build_norm_cache
from rekbench.problems import LsProblem
from rekbench.solvers import SolverKind, SolverState, _axis_step, build_caches
from rekbench.updates import PARALLEL_TOL, pair_geometry_from, two_dim_row_coeffs


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def row_step(A, x, rhs, i1, i2=None):
    """x after the solver's row step at (i1, i2) against the right-hand side rhs."""
    x = np.array(x, dtype=np.float64)
    state = SolverState(SolverKind.TGRK, x, None, rhs - A.matvec(x), None, 0, None)
    caches = build_caches(A, SolverKind.TGRK)
    _axis_step(state, LsProblem(A=A, b=rhs), caches, caches.rows, i1, i2)
    return state.x


def col_step(A, z, j1, j2=None):
    """z after the solver's column step at (j1, j2)."""
    z = np.array(z, dtype=np.float64)
    state = SolverState(SolverKind.GPROJ, None, z, None, A.rmatvec(z), 0, None)
    caches = build_caches(A, SolverKind.GPROJ)
    _axis_step(state, LsProblem(A=A, b=z), caches, caches.cols, j1, j2)
    return state.z


def row_coeffs(A, i1, i2, r1, r2):
    norms = build_norm_cache(A).row_sq_norms
    return two_dim_row_coeffs(A.row_pair_dot(i1, i2), norms[i1], norms[i2], r1, r2)


def col_coeffs(A, j1, j2, z):
    norms = build_norm_cache(A).col_sq_norms
    g = A.rmatvec(z)
    return two_dim_row_coeffs(A.col_pair_dot(j1, j2), norms[j1], norms[j2], -g[j1], -g[j2])


def test_row_update_identity():
    A = DenseMatrix(np.eye(2))
    x = row_step(A, np.zeros(2), np.array([5.0, 0.0]), 0)
    assert np.array_equal(x, [5.0, 0.0])


def test_row_update_noop_when_satisfied():
    A = DenseMatrix([[1.0, 2.0]])
    x = np.array([1.0, 1.0])
    out = row_step(A, x, np.array([3.0]), 0)
    assert np.array_equal(out, x)


def test_row_update_satisfies_row():
    g = rng(1)
    A = DenseMatrix(g.standard_normal((5, 3)))
    x = g.standard_normal(3)
    rhs = g.standard_normal(5)
    rhs[2] = 1.25
    out = row_step(A, x, rhs, 2)
    assert A.row(2) @ out == pytest.approx(1.25, abs=1e-12)


def test_col_project_identity():
    A = DenseMatrix(np.eye(2))
    z = col_step(A, [3.0, 4.0], 0)
    assert np.array_equal(z, [0.0, 4.0])


def test_col_project_orthogonal_noop():
    A = DenseMatrix([[1.0], [0.0]])
    z = np.array([0.0, 2.0])
    assert np.array_equal(col_step(A, z, 0), z)


def test_col_project_idempotent_and_monotone():
    g = rng(2)
    A = DenseMatrix(g.standard_normal((6, 4)))
    z = g.standard_normal(6)
    once = col_step(A, z, 1)
    twice = col_step(A, once, 1)
    assert np.allclose(once, twice, atol=1e-12)
    assert np.linalg.norm(once) <= np.linalg.norm(z)
    assert abs(A.col(1) @ once) <= 1e-12 * np.linalg.norm(z) * np.linalg.norm(A.col(1))


def test_pair_geometry_orthogonal():
    geo = pair_geometry_from(0.0, 1.0, 1.0)
    assert geo.denom == 1.0
    assert not geo.parallel


def test_pair_geometry_parallel():
    # [1, 0] and [2, 0].
    geo = pair_geometry_from(2.0, 1.0, 4.0)
    assert geo.denom == 0.0
    assert geo.parallel


def test_pair_geometry_hand_case():
    # [1, 1] and [1, 0]: mu = 1/sqrt(2), so 1 - mu^2 = 1/2.
    geo = pair_geometry_from(1.0, 2.0, 1.0)
    assert geo.denom == pytest.approx(0.5 * 2.0 * 1.0, rel=1e-10)
    assert not geo.parallel


def test_row_coeffs_orthonormal():
    A = DenseMatrix(np.eye(2))
    assert row_coeffs(A, 0, 1, 1.0, 2.0) == (1.0, 2.0)


def test_row_coeffs_zero_residuals():
    g = rng(3)
    A = DenseMatrix(g.standard_normal((4, 4)))
    assert row_coeffs(A, 0, 2, 0.0, 0.0) == (0.0, 0.0)


def test_row_coeffs_cramer_oracle():
    g = rng(4)
    A = DenseMatrix(g.standard_normal((2, 4)))
    r1, r2 = 0.7, -1.3
    co_gamma, co_lam = row_coeffs(A, 0, 1, r1, r2)
    gram = A.values @ A.values.T
    det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
    gamma = (r1 * gram[1, 1] - gram[0, 1] * r2) / det
    lam = (gram[0, 0] * r2 - gram[1, 0] * r1) / det
    assert co_gamma == pytest.approx(gamma, rel=1e-12)
    assert co_lam == pytest.approx(lam, rel=1e-12)


def test_row_coeffs_one_pair_dot():
    calls = []

    class Counting(DenseMatrix):
        def row_pair_dot(self, i1, i2):
            calls.append((i1, i2))
            return super().row_pair_dot(i1, i2)

    A = Counting(rng(5).standard_normal((3, 4)))
    row_step(A, np.zeros(4), np.array([0.5, 0.0, -1.0]), 0, 2)
    assert calls == [(0, 2)]


def test_row_coeffs_parallel_rejected():
    A = DenseMatrix([[1.0, 0.0], [2.0, 0.0]])
    assert row_coeffs(A, 0, 1, 1.0, 2.0) is None


def test_row_update_identity_one_step():
    A = DenseMatrix(np.eye(2))
    b = np.array([1.0, 2.0])
    x = row_step(A, np.zeros(2), b, 0, 1)
    assert np.allclose(x, b)


def test_row_update_parallel_fallback():
    A = DenseMatrix([[1.0, 0.0], [2.0, 0.0]])
    # r1 = b1 - A^(0) x with x = 0 and b1 = 1.
    x = row_step(A, np.zeros(2), np.array([1.0, 2.0]), 0, 1)
    assert np.allclose(x, [1.0, 0.0])


def test_row_update_petrov_galerkin():
    g = rng(5)
    A = DenseMatrix(g.standard_normal((6, 4)))
    cache = build_norm_cache(A)
    x_true = g.standard_normal(4)
    b = A.matvec(x_true)
    x = g.standard_normal(4)
    out = row_step(A, x, b, 1, 4)
    scale = np.linalg.norm(b) + np.sqrt(cache.frob_sq) * np.linalg.norm(out)
    assert abs(b[1] - A.row(1) @ out) <= 1e-10 * scale
    assert abs(b[4] - A.row(4) @ out) <= 1e-10 * scale


def test_col_coeffs_orthonormal():
    A = DenseMatrix(np.eye(3))
    z = np.array([3.0, 4.0, 5.0])
    assert col_coeffs(A, 0, 1, z) == (-3.0, -4.0)


def test_col_coeffs_orthogonal_z():
    A = DenseMatrix([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    gamma, lam = col_coeffs(A, 0, 1, np.array([0.0, 0.0, 7.0]))
    assert gamma == 0.0 and lam == 0.0


def test_col_coeffs_cramer_oracle():
    g = rng(6)
    A = DenseMatrix(g.standard_normal((5, 2)))
    z = g.standard_normal(5)
    co_gamma, co_lam = col_coeffs(A, 0, 1, z)
    gram = A.values.T @ A.values
    rhs = -A.values.T @ z
    gamma, lam = np.linalg.solve(gram, rhs)
    assert co_gamma == pytest.approx(gamma, rel=1e-12)
    assert co_lam == pytest.approx(lam, rel=1e-12)


def test_col_update_identity_annihilates():
    A = DenseMatrix(np.eye(2))
    z = col_step(A, [3.0, 4.0], 0, 1)
    assert np.allclose(z, 0.0)


def test_col_update_parallel_fallback():
    A = DenseMatrix([[1.0, 2.0], [0.0, 0.0]])
    z = col_step(A, [3.0, 4.0], 0, 1)
    assert np.allclose(z, col_step(A, [3.0, 4.0], 0))


def test_col_update_annihilation_and_monotone():
    g = rng(7)
    A = DenseMatrix(g.standard_normal((7, 4)))
    cache = build_norm_cache(A)
    z = g.standard_normal(7)
    out = col_step(A, z, 1, 3)
    bound = 1e-10 * np.sqrt(cache.frob_sq) * np.linalg.norm(z)
    assert abs(A.col(1) @ out) <= bound
    assert abs(A.col(3) @ out) <= bound
    assert np.linalg.norm(out) <= np.linalg.norm(z)


def test_2d_at_least_as_good_as_1d():
    # Projection onto the intersection of two hyperplanes through x_true
    # is at least as close to x_true as projecting onto one of them.
    g = rng(8)
    for trial in range(20):
        A = DenseMatrix(g.standard_normal((5, 3)))
        x_true = g.standard_normal(3)
        b = A.matvec(x_true)
        x = g.standard_normal(3)
        x2 = row_step(A, x, b, 0, 1)
        x1 = row_step(A, x, b, 0)
        assert np.linalg.norm(x2 - x_true) <= np.linalg.norm(x1 - x_true) + 1e-12


def test_row_updates_nonexpansive_for_consistent():
    g = rng(9)
    A = DenseMatrix(g.standard_normal((6, 3)))
    x_true = g.standard_normal(3)
    b = A.matvec(x_true)
    x = g.standard_normal(3)
    for i in range(6):
        out = row_step(A, x, b, i)
        assert np.linalg.norm(out - x_true) <= np.linalg.norm(x - x_true) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 9),
    n=st.integers(2, 9),
)
def test_pair_kernel_zeroes_both_lines_and_beats_1d(seed, m, n):
    """The kernel on rows zeroes two residuals, on columns (with -g) two products.

    Either 2-D step lands at least as close to the fixed point as the 1-D
    step on its first line: x_true on rows, the part of z orthogonal to
    range(A) on columns.
    """
    g = rng(seed)
    A = DenseMatrix(g.standard_normal((m, n)))
    cache = build_norm_cache(A)
    frob = np.sqrt(cache.frob_sq)
    i1, i2 = (int(i) for i in g.choice(m, size=2, replace=False))
    j1, j2 = (int(j) for j in g.choice(n, size=2, replace=False))
    row_geo = pair_geometry_from(A.row_pair_dot(i1, i2), cache.row_sq_norms[i1], cache.row_sq_norms[i2])
    col_geo = pair_geometry_from(A.col_pair_dot(j1, j2), cache.col_sq_norms[j1], cache.col_sq_norms[j2])
    assume(not row_geo.parallel and not col_geo.parallel)
    # Rounding in the 2x2 solve grows with 1 / (1 - mu^2).
    row_cond = cache.row_sq_norms[i1] * cache.row_sq_norms[i2] / row_geo.denom
    col_cond = cache.col_sq_norms[j1] * cache.col_sq_norms[j2] / col_geo.denom

    x_true, x = g.standard_normal(n), g.standard_normal(n)
    b = A.matvec(x_true)
    r = b - A.matvec(x)
    gamma, lam = row_coeffs(A, i1, i2, r[i1], r[i2])
    x2 = x + gamma * A.row(i1) + lam * A.row(i2)
    scale = 1e-12 * row_cond * (np.linalg.norm(b) + frob * np.linalg.norm(x2))
    assert abs(b[i1] - A.row(i1) @ x2) <= scale
    assert abs(b[i2] - A.row(i2) @ x2) <= scale
    assert np.allclose(x2, row_step(A, x, b, i1, i2), rtol=0, atol=scale)
    x1 = row_step(A, x, b, i1)
    assert np.linalg.norm(x2 - x_true) <= np.linalg.norm(x1 - x_true) + scale

    z = g.standard_normal(m)
    gamma, lam = col_coeffs(A, j1, j2, z)
    z2 = z + gamma * A.col(j1) + lam * A.col(j2)
    scale = 1e-12 * col_cond * frob * np.linalg.norm(z)
    assert abs(A.col(j1) @ z2) <= scale
    assert abs(A.col(j2) @ z2) <= scale
    assert np.allclose(z2, col_step(A, z, j1, j2), rtol=0, atol=scale)
    dense = A.to_dense()
    z_perp = z - dense @ np.linalg.lstsq(dense, z, rcond=None)[0]
    z1 = col_step(A, z, j1)
    assert np.linalg.norm(z2 - z_perp) <= np.linalg.norm(z1 - z_perp) + scale


@settings(max_examples=300, deadline=None)
@given(
    n1_sq=st.floats(1e-3, 1e3),
    n2_sq=st.floats(1e-3, 1e3),
    log_ratio=st.floats(-np.log(4.0), np.log(4.0)),
    sign=st.sampled_from([-1.0, 1.0]),
    # Away from underflow, where the products in the solve lose digits.
    r1=st.floats(-10.0, 10.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-6),
    r2=st.floats(-10.0, 10.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-6),
)
def test_kernel_near_parallel_pairs(n1_sq, n2_sq, log_ratio, sign, r1, r2):
    """With 1 - mu^2 = s within a factor 4 of PARALLEL_TOL, the kernel either
    rejects the pair or returns finite coefficients that zero both residuals
    up to the pair's conditioning, eps / s; which one is decided by s."""
    s = PARALLEL_TOL * np.exp(log_ratio)
    dot = sign * np.sqrt(1.0 - s) * np.sqrt(n1_sq * n2_sq)
    coeffs = two_dim_row_coeffs(dot, n1_sq, n2_sq, r1, r2)
    if coeffs is None:
        # Rounding moves the computed 1 - mu^2 by about 1e-3 PARALLEL_TOL.
        assert s <= 1.01 * PARALLEL_TOL
        return
    gamma, lam = coeffs
    assert s >= 0.99 * PARALLEL_TOL
    assert np.isfinite(gamma) and np.isfinite(lam)
    unit = 8 * np.finfo(float).eps / s
    ratio = np.sqrt(n1_sq / n2_sq)
    assert abs(r1 - (n1_sq * gamma + dot * lam)) <= unit * (abs(r1) + abs(r2) * ratio)
    assert abs(r2 - (dot * gamma + n2_sq * lam)) <= unit * (abs(r2) + abs(r1) / ratio)
