"""Matrix storage with row and column access, plus dense oracles.

Extended Kaczmarz methods touch rows and columns of A every step, so
sparse matrices are stored in a dual CSR + CSC layout (both views of the
same entries), where a row and a column are each one contiguous slice.
The CSC view is derived from the CSR one by one stable sort, and each
sparse kernel has one body that serves rows and columns alike.
Dense matrices wrap a contiguous row-major 2-D array, so their access is
not symmetric: a row is a contiguous view and a column a strided one (on
2000 x 500, scaling a column takes about 8 us, a row about 1.5 us).  The
module also hosts the norm cache and the desk-scale dense oracles used for
ground truth: direct least squares (an SVD) and the Gram spectrum, A^T A
with its eigenvalues, which gives the theory constants their eigenvalue
extremes and the generators their full-column-rank test.  Their memory is
bounded by what they return: the norm cache squares a dense A about 64 KB
at a time, and the oracles read a dense A's own array, so LAPACK's working
copy is the only one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORACLE_MAX_ROWS = 5000
ORACLE_MAX_COLS = 2000
RANK_TOL = 1e-12


class OracleTooLargeError(ValueError):
    """Raised when a dense oracle is asked to factor beyond its size cap."""


def combine_lines(lines, idx, coeffs):
    """coeffs[0] * lines[idx[0]] (+ coeffs[1] * lines[idx[1]]), as a new vector.

    lines is a 2-D array whose rows are the lines to combine.  The sum starts
    at the first scaled line, so it matches one started at zeros in every
    entry but a -0.0, which stays -0.0 here.
    """
    out = coeffs[0] * lines[idx[0]]
    if len(idx) == 2:
        out += coeffs[1] * lines[idx[1]]
    return out


class DenseMatrix:
    """Dense real matrix in row-major storage."""

    def __init__(self, values):
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("DenseMatrix requires a 2-D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("DenseMatrix entries must be finite")
        self.values = arr
        self.rows, self.cols = arr.shape

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_sparse(self):
        return False

    def row(self, i):
        """The i-th row as a dense view (no copy)."""
        if not 0 <= i < self.rows:
            raise IndexError(f"row index {i} out of range for {self.rows} rows")
        return self.values[i]

    def col(self, j):
        """The j-th column as a dense view."""
        if not 0 <= j < self.cols:
            raise IndexError(f"col index {j} out of range for {self.cols} cols")
        return self.values[:, j]

    def row_pair_dot(self, i1, i2):
        return float(self.row(i1) @ self.row(i2))

    def col_pair_dot(self, j1, j2):
        return float(self.col(j1) @ self.col(j2))

    def row_dots(self, idx, x):
        """(A^(i) x for i in idx), one entry of A x per index."""
        return self.values.take(idx, axis=0) @ x

    def col_dots(self, idx, z):
        """(A_(j)^T z for j in idx), one entry of A^T z per index."""
        return z @ self.values.take(idx, axis=1)

    def row_combination(self, idx, coeffs):
        """sum_k coeffs[k] * A^(idx[k]) for one or two rows, as a new n-vector."""
        return combine_lines(self.values, idx, coeffs)

    def col_combination(self, idx, coeffs):
        """sum_k coeffs[k] * A_(idx[k]) for one or two columns, as a new m-vector."""
        return combine_lines(self.values.T, idx, coeffs)

    def matvec(self, x):
        return self.values @ x

    def rmatvec(self, z):
        return self.values.T @ z

    def to_dense(self):
        return self.values.copy()


def _pair_dot(size, idx1, val1, idx2, val2):
    """Inner product of two sparse lines of length size, each given as (indices, values)."""
    scratch = np.zeros(size)
    scratch[idx1] = val1
    return float(val2 @ scratch[idx2])


def _combination(size, lines, coeffs):
    """sum_k coeffs[k] * lines[k] over sparse (indices, values) lines, as a new size-vector."""
    out = np.zeros(size)
    for (idx, val), c in zip(lines, coeffs):
        out[idx] += c * val
    return out


def _product(out_ids, in_ids, data, x, size):
    """A x from (row ids, column ids) of the entries, or A^T x with the two swapped."""
    return np.bincount(out_ids, weights=data * x[in_ids], minlength=size)


class DualSparseMatrix:
    """Sparse real matrix stored in both CSR and CSC form.

    Both views hold identical (i, j, v) triples; indices are strictly
    increasing within each row (CSR) and each column (CSC).  Row access
    costs O(nnz/m) and column access O(nnz/n), which is what alternating
    row/column action methods need.  CSR sorts the triples once and CSC is a
    stable sort of its column indices; row and column kernels share one body.
    """

    def __init__(self, rows, cols, i, j, v):
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        v = np.asarray(v, dtype=np.float64)
        if not (i.shape == j.shape == v.shape) or i.ndim != 1:
            raise ValueError("triple arrays must be 1-D and equal length")
        if not np.all(np.isfinite(v)):
            raise ValueError("sparse entries must be finite")
        if i.size and (i.min() < 0 or i.max() >= rows or j.min() < 0 or j.max() >= cols):
            raise ValueError("triple index out of range")
        self.rows = int(rows)
        self.cols = int(cols)

        # Row-major: one stable sort on the key i * cols + j gives the
        # permutation of np.lexsort((j, i)) at a fraction of its cost; the
        # key would overflow int64 from rows * cols >= 2^63.
        if self.rows * self.cols < 2**63:
            order = np.argsort(i * self.cols + j, kind="stable")
        else:
            order = np.lexsort((j, i))
        ri, rj, rv = i[order], j[order], v[order]
        del order
        if ri.size > 1 and np.any((ri[1:] == ri[:-1]) & (rj[1:] == rj[:-1])):
            raise ValueError("duplicate (i, j) entry")
        self.csr_indptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(ri, minlength=rows), out=self.csr_indptr[1:])
        self.csr_indices = rj
        self.csr_data = rv
        self.csr_rowids = ri

        order = np.argsort(rj, kind="stable")  # CSR holds each column's entries in row order
        self.csc_indptr = np.zeros(cols + 1, dtype=np.int64)
        np.cumsum(np.bincount(rj, minlength=cols), out=self.csc_indptr[1:])
        self.csc_indices = ri[order]
        self.csc_data = rv[order]

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_sparse(self):
        return True

    def row(self, i):
        """(col_indices, values) of the i-th row."""
        if not 0 <= i < self.rows:
            raise IndexError(f"row index {i} out of range for {self.rows} rows")
        sl = slice(self.csr_indptr[i], self.csr_indptr[i + 1])
        return self.csr_indices[sl], self.csr_data[sl]

    def col(self, j):
        """(row_indices, values) of the j-th column."""
        if not 0 <= j < self.cols:
            raise IndexError(f"col index {j} out of range for {self.cols} cols")
        sl = slice(self.csc_indptr[j], self.csc_indptr[j + 1])
        return self.csc_indices[sl], self.csc_data[sl]

    def row_pair_dot(self, i1, i2):
        return _pair_dot(self.cols, *self.row(i1), *self.row(i2))

    def col_pair_dot(self, j1, j2):
        return _pair_dot(self.rows, *self.col(j1), *self.col(j2))

    def row_dots(self, idx, x):
        return np.array([val @ x[cols] for cols, val in map(self.row, idx)])

    def col_dots(self, idx, z):
        return np.array([val @ z[rows] for rows, val in map(self.col, idx)])

    def row_combination(self, idx, coeffs):
        return _combination(self.cols, map(self.row, idx), coeffs)

    def col_combination(self, idx, coeffs):
        return _combination(self.rows, map(self.col, idx), coeffs)

    def matvec(self, x):
        return _product(self.csr_rowids, self.csr_indices, self.csr_data, x, self.rows)

    def rmatvec(self, z):
        return _product(self.csr_indices, self.csr_rowids, self.csr_data, z, self.cols)

    def triples(self):
        """Canonical row-major (i, j, v) arrays, for equality and I/O."""
        return self.csr_rowids, self.csr_indices, self.csr_data

    def to_dense(self):
        out = np.zeros((self.rows, self.cols))
        out[self.csr_rowids, self.csr_indices] = self.csr_data
        return out


# No library code calls these four line kernels: the benchmark's tracer
# times each by name, so each is written once over the shared kernels.


def col_vec(A, j):
    """A_(j) as a new dense m-vector."""
    return A.col_combination((j,), (1.0,))


def add_scaled_row(A, x, i, c):
    """x += c * A^(i), in place."""
    x += A.row_combination((i,), (c,))


def mat_row(A, i):
    """A @ (A^(i))^T as a dense m-vector."""
    return A.matvec(A.row_combination((i,), (1.0,)))


def mat_t_col(A, j):
    """A^T @ A_(j) as a dense n-vector."""
    return A.rmatvec(A.col_combination((j,), (1.0,)))


@dataclass(frozen=True)
class NormCache:
    row_sq_norms: np.ndarray
    col_sq_norms: np.ndarray
    frob_sq: float


# Bytes of a dense A that build_norm_cache squares at a time: 8192 entries.
NORM_BLOCK_BYTES = 65536


def build_norm_cache(A) -> NormCache:
    """Squared row/column norms and the squared Frobenius norm of A.

    A dense A is squared about NORM_BLOCK_BYTES at a time, in blocks of
    max(1, 8192 // n) whole rows, into one reused buffer whose first row
    carries the column sums.  The column sums add the rows in the same
    order as (A**2).sum(axis=0), so the bits are the same whatever the
    block, and no temporary grows with the row count.
    """
    if A.is_sparse:
        sq = A.csr_data**2
        row_sq = np.bincount(A.csr_rowids, weights=sq, minlength=A.rows)
        col_sq = np.bincount(A.csr_indices, weights=sq, minlength=A.cols)
    else:
        step = max(1, NORM_BLOCK_BYTES // (8 * A.cols))
        row_sq = np.empty(A.rows)
        buf = np.zeros((min(step, A.rows) + 1, A.cols))
        for start in range(0, A.rows, step):
            block = A.values[start : start + step]
            sq = buf[1 : 1 + len(block)]
            np.square(block, out=sq)
            row_sq[start : start + len(block)] = sq.sum(axis=1)
            buf[0] = buf[: 1 + len(block)].sum(axis=0)
        col_sq = buf[0].copy()
        if A.cols == 1:
            # One column is a contiguous vector, which numpy sums pairwise.
            col_sq = row_sq.sum(keepdims=True)
    return NormCache(row_sq, col_sq, float(row_sq.sum()))


def direct_least_squares(A, b):
    """Minimum-norm least-squares solution of min ||b - Ax|| (dense SVD).

    Rank-revealing, so rank-deficient A returns the pseudoinverse solution.
    """
    return _lstsq(A, b)[0]


def _dense_values(A):
    """A's entries as a 2-D array, once A passes the oracle cap.

    A dense A gives its own array, which the oracles only read (LAPACK works
    on a copy of its own), so an oracle does not copy A twice; a sparse A is
    densified.  The oracles and the theory constants have no other size cap.
    """
    if A.rows > ORACLE_MAX_ROWS or A.cols > ORACLE_MAX_COLS:
        raise OracleTooLargeError(
            f"{A.rows}x{A.cols} exceeds the {ORACLE_MAX_ROWS}x{ORACLE_MAX_COLS} oracle cap"
        )
    return A.to_dense() if A.is_sparse else A.values


def _lstsq(A, b):
    """(direct_least_squares(A, b), the numerical rank of A that its SVD found)."""
    x, _, rank, _ = np.linalg.lstsq(_dense_values(A), np.asarray(b, dtype=np.float64), rcond=None)
    return x, rank


def gram_extreme_eigenvalues(A):
    """(smallest nonzero, largest) eigenvalue of A^T A.

    Eigenvalues below 1e-12 * lambda_max are treated as zero (rank
    tolerance for the pseudoinverse/"nonzero minimal eigenvalue" notion).
    """
    return _gram_extremes(_dense_values(A))


def _gram_spectrum(dense):
    """(A^T A, its eigenvalues in ascending order) of the matrix whose entries are dense."""
    gram = dense.T @ dense
    return gram, np.linalg.eigvalsh(gram)


def _gram_extremes(dense):
    """gram_extreme_eigenvalues of the matrix whose entries are the 2-D array dense."""
    evals = np.clip(_gram_spectrum(dense)[1], 0.0, None)
    lam_max = float(evals[-1])
    if lam_max == 0.0:
        return 0.0, 0.0
    nonzero = evals[evals > RANK_TOL * lam_max]
    return float(nonzero[0]), lam_max
