import numpy as np
import pytest

from rekbench import linalg
from rekbench.linalg import (
    DenseMatrix,
    DualSparseMatrix,
    OracleTooLargeError,
    add_scaled_row,
    build_norm_cache,
    col_vec,
    direct_least_squares,
    gram_extreme_eigenvalues,
    mat_row,
    mat_t_col,
)


def identity(n):
    return DenseMatrix(np.eye(n))


def random_sparse(m, n, density, seed):
    g = np.random.Generator(np.random.Philox(seed))
    nnz = max(1, int(density * m * n))
    flat = g.choice(m * n, size=nnz, replace=False)
    return DualSparseMatrix(m, n, flat // n, flat % n, g.standard_normal(nnz))


def test_row_view_identity():
    assert np.array_equal(identity(3).row(1), [0.0, 1.0, 0.0])


def test_row_view_dense():
    A = DenseMatrix([[1, 2], [3, 4]])
    assert np.array_equal(A.row(1), [3.0, 4.0])


def test_row_view_sparse_single_entry():
    A = DualSparseMatrix(3, 3, [2], [0], [5.0])
    idx, val = A.row(2)
    assert list(zip(idx, val)) == [(0, 5.0)]


def test_col_view_identity():
    assert np.array_equal(identity(3).col(0), [1.0, 0.0, 0.0])


def test_col_view_dense():
    A = DenseMatrix([[1, 2], [3, 4]])
    assert np.array_equal(A.col(0), [1.0, 3.0])


def test_col_view_sparse_single_entry():
    A = DualSparseMatrix(3, 3, [2], [0], [5.0])
    idx, val = A.col(0)
    assert list(zip(idx, val)) == [(2, 5.0)]


def test_view_range_errors():
    A = DenseMatrix([[1.0, 2.0]])
    S = random_sparse(4, 4, 0.5, 0)
    with pytest.raises(IndexError):
        A.row(1)
    with pytest.raises(IndexError):
        A.col(2)
    with pytest.raises(IndexError):
        S.row(-1)
    with pytest.raises(IndexError):
        S.col(4)


def test_norm_cache_identity():
    cache = build_norm_cache(identity(3))
    assert np.array_equal(cache.row_sq_norms, [1, 1, 1])
    assert cache.frob_sq == 3.0


def test_norm_cache_345():
    cache = build_norm_cache(DenseMatrix([[3.0, 4.0]]))
    assert cache.row_sq_norms[0] == 25.0
    assert cache.frob_sq == 25.0


def test_norm_cache_naive_double_loop():
    g = np.random.Generator(np.random.Philox(12))
    vals = g.standard_normal((5, 3))
    cache = build_norm_cache(DenseMatrix(vals))
    total = 0.0
    for i in range(5):
        for j in range(3):
            total += vals[i, j] ** 2
    assert cache.frob_sq == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize(
    "shape",
    [(1, 1), (8, 1), (3, 700), (255, 3), (256, 5), (257, 4), (513, 1), (600, 7), (1000, 9), (2049, 1)],
)
def test_norm_cache_dense_bitwise_matches_squared_sums(shape):
    vals = np.random.Generator(np.random.Philox(sum(shape))).standard_normal(shape)
    cache = build_norm_cache(DenseMatrix(vals))
    sq = vals**2
    assert np.array_equal(cache.row_sq_norms, sq.sum(axis=1))
    assert np.array_equal(cache.col_sq_norms, sq.sum(axis=0))
    assert cache.frob_sq == float(sq.sum(axis=1).sum())


@pytest.mark.parametrize("rows", [1, 3, 16, 256, "m + 1"])
@pytest.mark.parametrize("shape", [(300, 70), (70, 300), (257, 1), (1, 257)])
def test_norm_cache_dense_bits_do_not_depend_on_the_block(monkeypatch, shape, rows):
    vals = np.random.Generator(np.random.Philox(shape[0] + 2 * shape[1])).standard_normal(shape)
    rows = shape[0] + 1 if rows == "m + 1" else rows
    monkeypatch.setattr(linalg, "NORM_BLOCK_BYTES", 8 * shape[1] * rows)
    cache = build_norm_cache(DenseMatrix(vals))
    sq = vals**2
    assert np.array_equal(cache.row_sq_norms, sq.sum(axis=1))
    assert np.array_equal(cache.col_sq_norms, sq.sum(axis=0))
    assert cache.frob_sq == float(sq.sum(axis=1).sum())


@pytest.mark.parametrize("shape", [(7, 4), (4, 7), (300, 300)])
def test_norm_cache_sparse_bitwise_matches_squared_sums(shape):
    # At most two entries per row and per column, so every summation order
    # gives the same bits.
    m, n = shape
    g = np.random.Generator(np.random.Philox(m * n))
    i = np.concatenate([np.arange(min(m, n)), np.arange(min(m, n - 1))])
    j = np.concatenate([np.arange(min(m, n)), np.arange(min(m, n - 1)) + 1])
    A = DualSparseMatrix(m, n, i, j, g.standard_normal(i.size))
    cache = build_norm_cache(A)
    sq = A.to_dense() ** 2
    assert np.array_equal(cache.row_sq_norms, sq.sum(axis=1))
    assert np.array_equal(cache.col_sq_norms, sq.sum(axis=0))


@pytest.mark.parametrize("seed", range(5))
def test_norm_cache_row_col_consistency(seed):
    A = random_sparse(12, 9, 0.3, seed)
    cache = build_norm_cache(A)
    assert cache.row_sq_norms.sum() == pytest.approx(cache.frob_sq, rel=1e-12)
    assert cache.col_sq_norms.sum() == pytest.approx(cache.frob_sq, rel=1e-12)
    assert np.all(cache.row_sq_norms >= 0)


@pytest.mark.parametrize("seed", range(5))
def test_sparse_views_match_dense(seed):
    A = random_sparse(10, 7, 0.3, seed)
    dense = A.to_dense()
    for i in range(10):
        idx, val = A.row(i)
        row = np.zeros(7)
        row[idx] = val
        assert np.allclose(row, dense[i])
    for j in range(7):
        assert np.allclose(col_vec(A, j), dense[:, j])


def test_sparse_kernels_match_dense():
    A = random_sparse(8, 6, 0.4, 3)
    dense = A.to_dense()
    x = np.arange(1.0, 7.0)
    z = np.arange(1.0, 9.0)
    assert np.allclose(A.matvec(x), dense @ x)
    assert np.allclose(A.rmatvec(z), dense.T @ z)
    assert A.row_pair_dot(1, 4) == pytest.approx(dense[1] @ dense[4])
    assert A.col_pair_dot(0, 5) == pytest.approx(dense[:, 0] @ dense[:, 5])
    assert np.allclose(mat_row(A, 2), dense @ dense[2])
    assert np.allclose(mat_t_col(A, 3), dense.T @ dense[:, 3])


@pytest.mark.parametrize("sparse", [False, True])
def test_line_kernels_match_dense(sparse):
    A = random_sparse(8, 6, 0.4, 7)
    dense = A.to_dense()
    if not sparse:
        A = DenseMatrix(dense)
    for j in range(6):
        assert np.allclose(col_vec(A, j), dense[:, j])
        assert np.allclose(mat_t_col(A, j), dense.T @ dense[:, j])
    for i in range(8):
        assert np.allclose(mat_row(A, i), dense @ dense[i])
        x = np.arange(1.0, 7.0)
        add_scaled_row(A, x, i, -2.5)
        assert np.allclose(x, np.arange(1.0, 7.0) - 2.5 * dense[i])


@pytest.mark.parametrize("sparse", [False, True])
def test_row_and_column_dots_are_entries_of_the_products(sparse):
    A = random_sparse(8, 6, 0.4, 5)
    if not sparse:
        A = DenseMatrix(A.to_dense())
    x = np.arange(1.0, 7.0)
    z = np.arange(1.0, 9.0)
    rows, cols = np.array([6, 0, 3]), [5, 1]
    assert np.allclose(A.row_dots(rows, x), A.matvec(x)[rows])
    assert np.allclose(A.col_dots(cols, z), A.rmatvec(z)[cols])
    assert A.row_dots([], x).shape == (0,) and A.col_dots([], z).shape == (0,)


@pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
def test_dense_matrix_needs_a_row_and_a_column(shape):
    with pytest.raises(ValueError, match="requires a row and a column"):
        DenseMatrix(np.zeros(shape))


def test_sparse_duplicate_entry_rejected():
    with pytest.raises(ValueError):
        DualSparseMatrix(2, 2, [0, 0], [1, 1], [1.0, 2.0])


def test_direct_least_squares_identity():
    assert np.allclose(direct_least_squares(identity(2), [1.0, 2.0]), [1, 2])


def test_direct_least_squares_mean():
    A = DenseMatrix([[1.0], [1.0]])
    assert direct_least_squares(A, [0.0, 2.0]) == pytest.approx([1.0])


def test_direct_least_squares_orthogonal_noise():
    g = np.random.Generator(np.random.Philox(5))
    vals = g.standard_normal((20, 5))
    A = DenseMatrix(vals)
    ones = np.ones(5)
    noise = g.standard_normal(20)
    # Project the noise onto the orthogonal complement of range(A).
    noise -= vals @ np.linalg.lstsq(vals, noise, rcond=None)[0]
    assert np.linalg.norm(vals.T @ noise) <= 1e-8
    x = direct_least_squares(A, vals @ ones + noise)
    assert np.linalg.norm(x - ones) <= 1e-8


def test_direct_least_squares_rank_deficient_normal_equations():
    g = np.random.Generator(np.random.Philox(6))
    base = g.standard_normal((15, 3))
    vals = np.hstack([base, base[:, :2]])  # rank 3, 5 columns
    A = DenseMatrix(vals)
    b = g.standard_normal(15)
    x = direct_least_squares(A, b)
    cache = build_norm_cache(A)
    bound = 1e-10 * np.sqrt(cache.frob_sq) * np.linalg.norm(b)
    assert np.linalg.norm(vals.T @ (b - vals @ x)) <= bound


def test_oracle_size_cap():
    class FakeBig:
        rows, cols = 6000, 10

    with pytest.raises(OracleTooLargeError):
        direct_least_squares(FakeBig(), np.zeros(6000))


def test_gram_eigenvalues_diag():
    assert gram_extreme_eigenvalues(DenseMatrix(np.diag([1.0, 2.0]))) == (1.0, 4.0)


def test_gram_eigenvalues_identity():
    lo, hi = gram_extreme_eigenvalues(identity(3))
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(1.0)


def test_gram_eigenvalues_rank_deficient():
    lo, hi = gram_extreme_eigenvalues(DenseMatrix([[1.0, 0.0], [1.0, 0.0]]))
    assert lo == pytest.approx(2.0)
    assert hi == pytest.approx(2.0)


def test_rowspace_eigenvalue_sandwich():
    g = np.random.Generator(np.random.Philox(8))
    vals = g.standard_normal((12, 5))
    A = DenseMatrix(vals)
    lo, hi = gram_extreme_eigenvalues(A)
    for _ in range(20):
        v = vals.T @ g.standard_normal(12)  # random row-space vector
        v_sq = v @ v
        av_sq = np.sum((vals @ v) ** 2)
        assert lo * v_sq <= av_sq * (1 + 1e-10)
        assert av_sq <= hi * v_sq * (1 + 1e-10)
