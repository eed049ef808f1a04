import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from rekbench.cli import main
from rekbench.linalg import DenseMatrix, DualSparseMatrix
from rekbench.problems import (
    MatrixMarketError,
    gen_gaussian,
    parallel_beam_matrix,
    read_matrix_market,
    write_matrix_market,
)


def write(tmp_path, text, name="m.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_read_coordinate_diag(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 2.0\n",
    )
    A = read_matrix_market(path)
    assert isinstance(A, DualSparseMatrix)
    assert np.array_equal(A.to_dense(), np.diag([1.0, 2.0]))


def test_read_array_column_vector(tmp_path):
    path = write(tmp_path, "%%MatrixMarket matrix array real general\n2 1\n3\n4\n")
    A = read_matrix_market(path)
    assert isinstance(A, DenseMatrix)
    assert np.array_equal(A.values, [[3.0], [4.0]])


def test_read_array_column_major_order(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
    )
    A = read_matrix_market(path)
    assert np.array_equal(A.values, [[1.0, 3.0], [2.0, 4.0]])


def test_read_symmetric_coordinate_expands(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n2 1 5.0\n",
    )
    A = read_matrix_market(path)
    assert np.array_equal(A.to_dense(), [[1.0, 5.0], [5.0, 0.0]])


def test_read_skips_comments(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n% a comment\n1 1 1\n1 1 2.5\n",
    )
    assert read_matrix_market(path).to_dense()[0, 0] == 2.5


def test_malformed_header_has_line_number(tmp_path):
    path = write(tmp_path, "%%NotMatrixMarket whatever\n")
    with pytest.raises(MatrixMarketError) as exc:
        read_matrix_market(path)
    assert exc.value.line_no == 1


def test_complex_field_rejected(tmp_path):
    path = write(tmp_path, "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(path)


def test_out_of_range_index_line_number(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
    )
    with pytest.raises(MatrixMarketError) as exc:
        read_matrix_market(path)
    assert exc.value.line_no == 3


def test_malformed_entry_line_number(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 oops 2.0\n",
    )
    with pytest.raises(MatrixMarketError) as exc:
        read_matrix_market(path)
    assert exc.value.line_no == 4


COORD = "%%MatrixMarket matrix coordinate real general\n"
ARRAY = "%%MatrixMarket matrix array real general\n"


@pytest.mark.parametrize(
    "text, line_no",
    [
        (COORD + "-1 2 0\n", 2),  # rows below 1
        (COORD + "2 0 0\n", 2),  # cols below 1
        (COORD + "2 2 -1\n", 2),  # nnz below 0
        (ARRAY + "0 3\n", 2),  # array rows below 1
        (ARRAY + "2 0\n", 2),  # array cols below 1
    ],
)
def test_size_line_out_of_range(tmp_path, text, line_no):
    with pytest.raises(MatrixMarketError) as exc:
        read_matrix_market(write(tmp_path, text))
    assert exc.value.line_no == line_no


def test_size_too_large_to_store_exits_2(tmp_path, capsys):
    # 10**12 rows of CSR row pointers cannot be allocated; the refusal is immediate.
    path = write(tmp_path, COORD + "1000000000000 1 0\n")
    assert main(["constants", "--matrix", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 2: size 1000000000000 1 0: too large to store\n"


@pytest.mark.parametrize(
    "size, entries",
    [
        # An index past int64 fails the block fill; the data and the count are sound.
        ("9223372036854775809 2 2", "9223372036854775809 1 1.0\n1 1 2.0\n"),
        # The index pointers of 2**63 + 1 rows cannot be allocated (ValueError).
        ("9223372036854775809 2 1", "1 1 2.0\n"),
    ],
)
def test_sound_data_past_int64_are_too_large_to_store(tmp_path, capsys, size, entries):
    path = write(tmp_path, COORD + f"{size}\n{entries}")
    assert main(["constants", "--matrix", str(path)]) == 2
    assert capsys.readouterr().err == f"error: line 2: size {size}: too large to store\n"


@pytest.mark.parametrize(
    "text",
    [
        "%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n3 1 1.0\n",
        "%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n4\n5\n6\n",
    ],
)
def test_symmetric_must_be_square(tmp_path, text):
    with pytest.raises(MatrixMarketError, match="symmetric matrix must be square") as exc:
        read_matrix_market(write(tmp_path, text))
    assert exc.value.line_no == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_coordinate_value(tmp_path, value):
    path = write(tmp_path, COORD + f"2 2 2\n1 1 1.0\n2 2 {value}\n")
    with pytest.raises(MatrixMarketError) as exc:
        read_matrix_market(path)
    assert exc.value.line_no == 4


def test_non_finite_array_value(tmp_path):
    path = write(tmp_path, ARRAY + "2 1\n3\nnan\n")
    with pytest.raises(MatrixMarketError) as exc:
        read_matrix_market(path)
    assert exc.value.line_no == 4


def test_duplicate_coordinate_entry(tmp_path):
    path = write(tmp_path, COORD + "2 2 3\n1 1 1.0\n2 2 2.0\n1 1 3.0\n")
    with pytest.raises(MatrixMarketError) as exc:
        read_matrix_market(path)
    assert exc.value.line_no == 5


def test_duplicate_symmetric_entry(tmp_path):
    path = write(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n2 1 1.0\n2 1 1.0\n")
    with pytest.raises(MatrixMarketError) as exc:
        read_matrix_market(path)
    assert exc.value.line_no == 4


def random_sparse(m, n, seed, empty_row=None, empty_col=None):
    g = np.random.Generator(np.random.Philox(seed))
    nnz = max(1, (m * n) // 4)
    flat = g.choice(m * n, size=nnz, replace=False)
    i, j = flat // n, flat % n
    keep = np.ones(nnz, dtype=bool)
    if empty_row is not None:
        keep &= i != empty_row
    if empty_col is not None:
        keep &= j != empty_col
    if not keep.any():
        keep[0] = True
    return DualSparseMatrix(m, n, i[keep], j[keep], g.standard_normal(keep.sum()))


def test_sparse_round_trip_exact(tmp_path):
    A = random_sparse(20, 10, 0)
    path = tmp_path / "rt.mtx"
    write_matrix_market(A, path)
    B = read_matrix_market(path)
    for a, b in zip(A.triples(), B.triples()):
        assert np.array_equal(a, b)


def test_sparse_round_trip_empty_rows_cols(tmp_path):
    A = random_sparse(15, 8, 1, empty_row=3, empty_col=5)
    path = tmp_path / "rt.mtx"
    write_matrix_market(A, path)
    B = read_matrix_market(path)
    assert B.shape == A.shape
    for a, b in zip(A.triples(), B.triples()):
        assert np.array_equal(a, b)


def test_dense_round_trip_exact(tmp_path):
    g = np.random.Generator(np.random.Philox(2))
    A = DenseMatrix(g.standard_normal((7, 5)))
    path = tmp_path / "rt.mtx"
    write_matrix_market(A, path)
    B = read_matrix_market(path)
    assert isinstance(B, DenseMatrix)
    assert np.array_equal(A.values, B.values)


# (first 16 hex digits of the A.mtx sha256), recorded before the writer
# formatted each file in one join; pins its bytes across that change.  The
# two blocks cases, recorded before the dense writer wrote column blocks,
# span several blocks of columns and columns longer than a block.
WRITTEN = {
    "dense": (lambda: gen_gaussian(40, 10, 7), "5a6e8090ebe1c51d"),
    "dense-column-blocks": (lambda: gen_gaussian(1500, 7, 3), "02eba6254e2165e3"),
    "dense-long-columns": (lambda: gen_gaussian(4100, 2, 5), "7884ac27c9481693"),
    "edge": (lambda: DenseMatrix([[0.0, -0.0, 1e-310], [-1.5, 1e300, 2.0 / 3.0]]), "13e23942f042902a"),
    "sparse": (lambda: parallel_beam_matrix(8, 12, 12), "f3b9daa2e9a350d1"),
}


@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_written_bytes_are_unchanged(tmp_path, name):
    make, expected = WRITTEN[name]
    path = tmp_path / "A.mtx"
    write_matrix_market(make(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == expected


def test_dense_write_is_bounded_in_memory():
    # Column blocks of about IO_BLOCK values: the peak is one block's text,
    # not a column-major copy of A (1.14 MiB here).
    A = gen_gaussian(1000, 150, 1)
    tracemalloc.start()
    try:
        write_matrix_market(A, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 2**20 < A.values.nbytes, peak
