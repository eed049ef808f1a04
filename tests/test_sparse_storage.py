"""DualSparseMatrix storage and kernels, bit for bit.

The reference below sorts the triples once per order with np.lexsort and
evaluates each kernel by its formula written out on those arrays.  The
stored arrays and every kernel result must equal it in every bit, so a
stored -0.0 and the order of each floating-point sum are checked too.
"""

import hashlib

import numpy as np
import pytest

from rekbench.linalg import DualSparseMatrix
from rekbench.problems import parallel_beam_matrix

ARRAYS = (
    "csr_indptr",
    "csr_indices",
    "csr_data",
    "csr_rowids",
    "csc_indptr",
    "csc_indices",
    "csc_data",
)


def _random_triples(m, n, nnz, seed):
    """nnz distinct entries in shuffled order; row m-1 and column n-1 stay empty."""
    g = np.random.Generator(np.random.Philox(seed))
    flat = g.choice((m - 1) * (n - 1), size=nnz, replace=False)
    v = g.standard_normal(nnz)
    v[nnz // 2] = -0.0
    return m, n, flat // (n - 1), flat % (n - 1), v


CASES = {
    "random": _random_triples(30, 20, 150, 1),
    "wide": _random_triples(12, 40, 200, 2),
    "dense-ish": _random_triples(9, 8, 50, 3),
    "single": (5, 4, [3], [2], [-0.0]),
    "empty": (3, 6, [], [], []),
    "one-row": (1, 7, [0, 0, 0], [6, 1, 4], [2.5, -1.0, 0.5]),
    "one-col": (6, 1, [5, 0, 2], [0, 0, 0], [1.5, -0.0, 3.0]),
}


def _reference(m, n, i, j, v):
    """The seven stored arrays, with one lexsort per order."""
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    v = np.asarray(v, dtype=np.float64)
    ref = {}
    for order, major, minor, size, prefix in (
        (np.lexsort((j, i)), i, j, m, "csr"),
        (np.lexsort((i, j)), j, i, n, "csc"),
    ):
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(major[order], minlength=size), out=indptr[1:])
        ref[f"{prefix}_indptr"] = indptr
        ref[f"{prefix}_indices"] = minor[order]
        ref[f"{prefix}_data"] = v[order]
    ref["csr_rowids"] = i[np.lexsort((j, i))]
    return ref


def _line(ref, prefix, k):
    sl = slice(ref[f"{prefix}_indptr"][k], ref[f"{prefix}_indptr"][k + 1])
    return ref[f"{prefix}_indices"][sl], ref[f"{prefix}_data"][sl]


def _pair_dot(ref, prefix, size, k1, k2):
    scratch = np.zeros(size)
    idx1, val1 = _line(ref, prefix, k1)
    scratch[idx1] = val1
    idx2, val2 = _line(ref, prefix, k2)
    return float(val2 @ scratch[idx2])


def _combination(ref, prefix, size, idx, coeffs):
    out = np.zeros(size)
    for k, c in zip(idx, coeffs):
        support, val = _line(ref, prefix, k)
        out[support] += c * val
    return out


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", CASES)
def test_stored_arrays_equal_one_lexsort_per_order(name):
    A = DualSparseMatrix(*CASES[name])
    ref = _reference(*CASES[name])
    for attr in ARRAYS:
        assert _same_bits(getattr(A, attr), ref[attr]), attr


@pytest.mark.parametrize("name", CASES)
def test_kernels_equal_their_formulas(name):
    m, n = CASES[name][:2]
    A = DualSparseMatrix(*CASES[name])
    ref = _reference(*CASES[name])
    g = np.random.Generator(np.random.Philox(len(name)))
    for k1 in range(m):
        for k2 in range(m):
            assert _same_bits(A.row_pair_dot(k1, k2), _pair_dot(ref, "csr", n, k1, k2))
    for k1 in range(n):
        for k2 in range(n):
            assert _same_bits(A.col_pair_dot(k1, k2), _pair_dot(ref, "csc", m, k1, k2))
    for size, other, method, prefix in (
        (m, n, A.row_combination, "csr"),
        (n, m, A.col_combination, "csc"),
    ):
        for k1 in range(size):
            for idx in ([k1], [k1, (3 * k1 + 1) % size], [k1, k1]):
                coeffs = g.standard_normal(len(idx))
                assert _same_bits(method(idx, coeffs), _combination(ref, prefix, other, idx, coeffs))
    x = g.standard_normal(n)
    z = g.standard_normal(m)
    matvec = np.bincount(
        ref["csr_rowids"], weights=ref["csr_data"] * x[ref["csr_indices"]], minlength=m
    )
    rmatvec = np.bincount(
        ref["csr_indices"], weights=ref["csr_data"] * z[ref["csr_rowids"]], minlength=n
    )
    assert _same_bits(A.matvec(x), matvec)
    assert _same_bits(A.rmatvec(z), rmatvec)


@pytest.mark.parametrize(
    "i, j",
    [
        ([0, 2, 1, 0], [1, 0, 2, 1]),  # duplicate, not adjacent in the input
        ([1, 1], [2, 2]),
    ],
)
def test_duplicate_entry_raises(i, j):
    with pytest.raises(ValueError, match="duplicate"):
        DualSparseMatrix(3, 3, i, j, np.ones(len(i)))


@pytest.mark.parametrize(
    "i, j",
    [([0, -1], [0, 1]), ([0, 3], [0, 1]), ([0, 1], [-1, 1]), ([0, 1], [0, 4])],
)
def test_out_of_range_index_raises(i, j):
    with pytest.raises(ValueError, match="out of range"):
        DualSparseMatrix(3, 4, i, j, [1.0, 2.0])


# First 16 hex digits of the sha256 over the seven stored arrays, in ARRAYS
# order.  The first four were recorded before the column view was derived
# from the row view, the last three with one traversal call per ray, before
# the rays of an angle were traced together.  (6, 8, 1) runs its one ray
# along grid lines at 0 and 90 degrees and through grid corners at 45;
# (4, 4, 5) has a ray on a grid line; (7, 6, 3) has an odd side.
TOMOGRAPHY = {
    (16, 24, 24): "abf408f55bcad34e",
    (13, 7, 9): "98dfa3ee59b71dc5",
    (5, 3, 2): "70840d475a272620",
    (6, 0, 4): "e2fc162ed9124452",
    (6, 8, 1): "978af6fb425048fc",
    (4, 4, 5): "4abd407f1bee7558",
    (7, 6, 3): "d761641021045791",
}


@pytest.mark.parametrize("size", TOMOGRAPHY, ids=lambda s: "x".join(map(str, s)))
def test_parallel_beam_arrays_pinned(size):
    A = parallel_beam_matrix(*size)
    digest = hashlib.sha256()
    for attr in ARRAYS:
        digest.update(getattr(A, attr).tobytes())
    assert digest.hexdigest()[:16] == TOMOGRAPHY[size]
