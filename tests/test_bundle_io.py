"""Block-formatted bundle writes and block-parsed array reads.

The writer formats IO_BLOCK lines per % operation and the array reader
parses IO_BLOCK data lines per float pass.  These tests hold both to the
per-value code they replaced: the same bytes, the same values read back,
and the same error message and line number past a block boundary.  The
block constant is patched small so that every case spans several blocks.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rekbench import problems
from rekbench.cli import main
from rekbench.linalg import DenseMatrix, DualSparseMatrix
from rekbench.problems import (
    LsProblem,
    MatrixMarketError,
    load_problem,
    read_matrix_market,
    save_problem,
    write_matrix_market,
)

BLOCK = 3

EDGE_VALUES = [0.0, -0.0, 5e-324, -2.5e-310, 1e-300, -1e-300, 1e300, -1e300, 2.0 / 3.0, 1.0]
finite = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=False, allow_infinity=False),
)


# The patched constant and the overwritten files are the same for every example.
PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.fixture
def small_block(monkeypatch):
    monkeypatch.setattr(problems, "IO_BLOCK", BLOCK)


# The per-value formatters the block writer replaced, kept as the reference.
def reference_dense(values):
    m, n = values.shape
    body = "".join(map("{:.17g}\n".format, values.T.ravel().tolist()))
    return f"%%MatrixMarket matrix array real general\n{m} {n}\n" + body


def reference_sparse(A):
    i, j, v = A.triples()
    body = "".join(map("{} {} {:.17g}\n".format, (i + 1).tolist(), (j + 1).tolist(), v.tolist()))
    return f"%%MatrixMarket matrix coordinate real general\n{A.rows} {A.cols} {v.size}\n" + body


def reference_vector(vec):
    return "".join(map("{:.17g}\n".format, vec.tolist()))


@st.composite
def dense_values(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    return np.array(draw(st.lists(finite, min_size=m * n, max_size=m * n))).reshape(m, n)


@st.composite
def sparse_matrices(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    cells = draw(st.lists(st.integers(0, m * n - 1), min_size=1, max_size=m * n, unique=True))
    values = draw(st.lists(finite, min_size=len(cells), max_size=len(cells)))
    cells = np.array(cells)
    return DualSparseMatrix(m, n, cells // n, cells % n, values)


def test_edge_values_written_and_read_back(tmp_path, small_block):
    values = np.array(EDGE_VALUES).reshape(5, 2)
    path = tmp_path / "A.mtx"
    write_matrix_market(DenseMatrix(values), path)
    assert path.read_text() == reference_dense(values)
    assert read_matrix_market(path).values.tobytes() == values.tobytes()


@PROPERTY
@given(values=dense_values())
def test_dense_write_matches_per_value_formatter(tmp_path, small_block, values):
    path = tmp_path / "A.mtx"
    write_matrix_market(DenseMatrix(values), path)
    assert path.read_text() == reference_dense(values)
    # Bitwise, so -0.0 and the subnormals come back as written.
    assert read_matrix_market(path).values.tobytes() == values.tobytes()


@PROPERTY
@given(A=sparse_matrices())
def test_sparse_write_matches_per_value_formatter(tmp_path, small_block, A):
    path = tmp_path / "A.mtx"
    write_matrix_market(A, path)
    assert path.read_text() == reference_sparse(A)
    for a, b in zip(A.triples(), read_matrix_market(path).triples()):
        assert a.tobytes() == b.tobytes()


@PROPERTY
@given(vec=st.lists(finite, min_size=1, max_size=10).map(np.array))
def test_vector_write_matches_per_value_formatter(tmp_path, small_block, vec):
    directory = tmp_path / "bundle"
    save_problem(LsProblem(A=DenseMatrix(np.ones((vec.size, 1))), b=vec), directory)
    assert (directory / "b.txt").read_text() == reference_vector(vec)
    assert load_problem(directory).b.tobytes() == vec.tobytes()


# An array file of 2 x 4 = 8 values on lines 3-10, so BLOCK = 3 puts the
# last value (line 10) in the third block.
ARRAY = "%%MatrixMarket matrix array real general\n2 4\n"
VALUES = [f"{v}\n" for v in range(1, 9)]


def read(tmp_path, text):
    path = tmp_path / "m.mtx"
    path.write_text(text)
    return read_matrix_market(path)


def read_error(tmp_path, text):
    with pytest.raises(MatrixMarketError) as exc:
        read(tmp_path, text)
    return exc.value


@pytest.mark.parametrize(
    "last, message",
    [
        ("oops", "malformed value 'oops'"),
        ("nan", "non-finite value 'nan'"),
        ("-inf", "non-finite value '-inf'"),
        ("1e999", "non-finite value '1e999'"),
        ("8 %x", "malformed value '%x'"),
    ],
)
def test_bad_value_on_the_last_line_reports_that_line(tmp_path, small_block, last, message):
    error = read_error(tmp_path, ARRAY + "".join(VALUES[:-1]) + last + "\n")
    assert error.line_no == 10
    assert str(error) == f"line 10: {message}"


def test_first_bad_value_wins_across_blocks(tmp_path, small_block):
    lines = VALUES[:4] + ["nan\n"] + VALUES[5:7] + ["oops\n"]
    error = read_error(tmp_path, ARRAY + "".join(lines))
    assert (error.line_no, str(error)) == (7, "line 7: non-finite value 'nan'")


def test_comment_and_blank_lines_inside_the_data_are_skipped(tmp_path, small_block):
    lines = VALUES[:3] + ["% a comment\n", "\n", "   \n", "  %indented\n"] + VALUES[3:]
    A = read(tmp_path, ARRAY + "".join(lines))
    assert np.array_equal(A.values, np.arange(1.0, 9.0).reshape(4, 2).T)


def test_several_values_per_line_span_blocks(tmp_path, small_block):
    A = read(tmp_path, ARRAY + "1 2\n3\t4 5\n\n6\n7 8\n")
    assert np.array_equal(A.values, np.arange(1.0, 9.0).reshape(4, 2).T)


@pytest.mark.parametrize(
    "lines, found", [(VALUES[:-1], 7), (VALUES + ["9\n"], 9), (VALUES[:-1] + ["8 9\n"], 9)]
)
def test_value_count_is_reported_at_the_last_line(tmp_path, small_block, lines, found):
    text = ARRAY + "".join(lines)
    error = read_error(tmp_path, text)
    assert error.line_no == text.count("\n")
    assert str(error).endswith(f"expected 8 values, found {found}")


def test_symmetric_array_read_in_blocks(tmp_path, small_block):
    text = "%%MatrixMarket matrix array real symmetric\n3 3\n1\n2\n3\n4\n5\n6\n"
    assert np.array_equal(read(tmp_path, text).values, [[1, 2, 3], [2, 4, 5], [3, 5, 6]])


@pytest.mark.parametrize(
    "data, line_no",
    [
        (b"%%MatrixMarket matrix array real general\n2 1\n3\n4\xe9\n", 4),
        (b"%%MatrixMarket matrix array real general\r\n% caf\xc3\xa9\r\n2 1\r\n3\r\n4\r\n", 2),
        (b"\xef\xbb\xbf%%MatrixMarket matrix array real general\n1 1\n3\n", 1),
        (b"%%MatrixMarket matrix coordinate real general\n1 1 1\n\n\xff", 4),
        # Numbered as the parser numbers lines, where a lone \r ends one too.
        (b"%%MatrixMarket matrix array real general\r2 1\r3\r\xe9\r", 4),
    ],
)
def test_non_ascii_byte_reports_its_line(tmp_path, data, line_no):
    path = tmp_path / "m.mtx"
    path.write_bytes(data)
    with pytest.raises(MatrixMarketError, match="non-ASCII byte 0x") as exc:
        read_matrix_market(path)
    assert exc.value.line_no == line_no


def test_non_ascii_byte_exits_2_with_its_line(tmp_path, capsys):
    path = tmp_path / "m.mtx"
    path.write_bytes(b"%%MatrixMarket matrix array real general\n2 1\n3\n\xe9\n")
    assert main(["constants", "--matrix", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 4: non-ASCII byte 0xe9\n"
