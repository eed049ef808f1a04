"""Block-formatted bundle writes and block-parsed Matrix Market reads.

The writer formats IO_BLOCK lines per % operation.  The reader takes
8 * IO_BLOCK bytes per read and parses IO_BLOCK lines per block: one float
pass for an array file, triple arrays for a coordinate file.  These tests
hold both to the per-value code they replaced: the same bytes, the same
values read back, and the same error message and line number past a block
or read boundary.  The block constant is patched small so that every case
spans several blocks and many reads.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

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


@st.composite
def lower_triangles(draw):
    """A square sparse matrix's stored (i, j, v) on or below the diagonal."""
    m = draw(st.integers(1, 5))
    cells = [(i, j) for i in range(m) for j in range(i + 1)]
    picked = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells), unique=True))
    values = draw(st.lists(finite, min_size=len(picked), max_size=len(picked)))
    return m, picked, values


@PROPERTY
@given(stored=lower_triangles())
def test_symmetric_coordinate_read_expands_each_entry(tmp_path, small_block, stored):
    m, cells, values = stored
    body = "".join(f"{i + 1} {j + 1} {v!r}\n" for (i, j), v in zip(cells, values))
    path = tmp_path / "A.mtx"
    header = f"%%MatrixMarket matrix coordinate real symmetric\n{m} {m} {len(cells)}\n"
    path.write_text(header + body)
    mirrored = [((j, i), v) for (i, j), v in zip(cells, values) if i != j]
    ii, jj = np.array([c for c, _ in mirrored] + cells, dtype=np.int64).reshape(-1, 2).T
    full = DualSparseMatrix(m, m, ii, jj, [v for _, v in mirrored] + values)
    for a, b in zip(full.triples(), read_matrix_market(path).triples()):
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


LONG = "1." + "0" * 98 + "\n"  # a valid value of 100 bytes


@pytest.mark.parametrize(
    "head, lines",
    [
        ("array real general\n6 1\n", ["oops\n"] + [LONG] * 5),
        ("coordinate real general\n6 1 6\n", ["1 x 1.0\n"] + [f"{k} 1 {LONG}" for k in range(2, 7)]),
        ("array real general\n2 x\n", [LONG] * 6),
    ],
    ids=["array-value", "coordinate-entry", "size-line"],
)
def test_non_ascii_byte_in_a_later_read_outranks_an_earlier_error(tmp_path, small_block, head, lines):
    # The parse stops at line 3 (line 2 for the size line) before its reads
    # reach line 9, so only the rescan of the whole file meets the byte.
    path = tmp_path / "m.mtx"
    path.write_bytes(("%%MatrixMarket matrix " + head + "".join(lines)).encode() + b"\xe9\n")
    with pytest.raises(MatrixMarketError) as exc:
        read_matrix_market(path)
    assert str(exc.value) == "line 9: non-ASCII byte 0xe9"


# A 4 x 4 coordinate file of 8 entries on lines 3-10, all on or below the
# diagonal, so BLOCK = 3 puts lines 9 and 10 in the third block.
COORD = "%%MatrixMarket matrix coordinate real general\n4 4 8\n"
CELLS = [(1, 1), (2, 2), (3, 3), (4, 4), (2, 1), (3, 1), (4, 1), (4, 2)]
ENTRIES = [f"{i} {j} {i + j / 8}\n" for i, j in CELLS]


@pytest.mark.parametrize(
    "last, message",
    [
        ("4 2", "coordinate entry needs 'i j value'"),
        ("4 2 1.0 7", "coordinate entry needs 'i j value'"),
        ("4 x 1.0", "malformed coordinate entry"),
        ("4.0 2 1.0", "malformed coordinate entry"),
        ("4 2 oops", "malformed value 'oops'"),
        ("4 2 nan", "non-finite value 'nan'"),
        ("4 2 1e999", "non-finite value '1e999'"),
        ("5 2 1.0", "index (5, 2) out of range for 4x4"),
        ("4 0 1.0", "index (4, 0) out of range for 4x4"),
        ("99999999999999999999 1 1.0", "index (99999999999999999999, 1) out of range for 4x4"),
        ("2 1 1.0", "duplicate entry (2, 1)"),
        # A repeated cell whose value fails is named by its value.
        ("2 1 nan", "non-finite value 'nan'"),
    ],
)
def test_coordinate_error_on_the_last_line_reports_that_line(tmp_path, small_block, last, message):
    error = read_error(tmp_path, COORD + "".join(ENTRIES[:-1]) + last + "\n")
    assert (error.line_no, str(error)) == (10, f"line 10: {message}")


@pytest.mark.parametrize("m", [2**32, 2**64 + 1])
def test_duplicate_is_named_even_where_cell_numbers_pass_int64(tmp_path, m):
    head = f"%%MatrixMarket matrix coordinate real general\n{m} {m} 3\n"
    text = head + f"{m} 1 1.0\n1 1 2.0\n{m} 1 3.0\n"
    error = read_error(tmp_path, text)
    assert (error.line_no, str(error)) == (5, f"line 5: duplicate entry ({m}, 1)")


def test_symmetric_entry_above_the_diagonal_reports_its_line(tmp_path, small_block):
    text = COORD.replace("general", "symmetric") + "".join(ENTRIES[:-1]) + "2 4 1.0\n"
    error = read_error(tmp_path, text)
    assert (error.line_no, str(error)) == (10, "line 10: symmetric entry above the diagonal")


@pytest.mark.parametrize(
    "lines, found",
    [
        (ENTRIES[:-1], 7),
        (ENTRIES + ["1 2 1.0\n"], 9),
        (ENTRIES + ["1 2 1.0\n", "% trailing\n", "\n"], 9),
    ],
)
def test_entry_count_is_reported_at_the_last_line(tmp_path, small_block, lines, found):
    text = COORD + "".join(lines)
    error = read_error(tmp_path, text)
    assert error.line_no == text.count("\n")
    assert str(error).endswith(f"expected 8 entries, found {found}")


@pytest.mark.parametrize(
    "edits, first",
    [
        # A duplicate on line 6 beats a malformed line in a later block.
        ({6: "1 1 5.0", 10: "4 x 1.0"}, "line 6: duplicate entry (1, 1)"),
        # An index out of range on line 4 beats one in a later block.
        ({4: "9 9 1.0", 10: "4 x 1.0"}, "line 4: index (9, 9) out of range for 4x4"),
        ({4: "4 x 1.0", 10: "1 1 5.0"}, "line 4: malformed coordinate entry"),
        # A later duplicate beats the entry count.
        ({10: "1 1 5.0", 11: "1 2 1.0"}, "line 10: duplicate entry (1, 1)"),
    ],
)
def test_first_coordinate_error_wins_across_blocks(tmp_path, small_block, edits, first):
    lines = ENTRIES + [""] * (max(edits) - 10)
    for line_no, text in edits.items():
        lines[line_no - 3] = text + "\n"
    assert str(read_error(tmp_path, COORD + "".join(lines))) == first


def test_coordinate_comment_and_blank_lines_are_skipped(tmp_path, small_block):
    lines = ENTRIES[:3] + ["% a_comment\n", "\n", "   \n", "  %indented\n"] + ENTRIES[3:]
    reference = read(tmp_path, COORD + "".join(ENTRIES))
    for a, b in zip(reference.triples(), read(tmp_path, COORD + "".join(lines)).triples()):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("block", [BLOCK, problems.IO_BLOCK])
@pytest.mark.parametrize(
    "text, line_no, message",
    [
        (ARRAY + "".join(VALUES[:-1]) + "8_0\n", 10, "malformed value '8_0'"),
        (ARRAY + "1_0\n" + "".join(VALUES[1:]), 3, "malformed value '1_0'"),
        (COORD + "".join(ENTRIES[:-1]) + "4 1_0 1.0\n", 10, "malformed coordinate entry"),
        (COORD + "1_0 1 1.0\n" + "".join(ENTRIES[1:]), 3, "malformed coordinate entry"),
        (COORD + "".join(ENTRIES[:-1]) + "4 2 2_5\n", 10, "malformed value '2_5'"),
        (ARRAY.replace("2 4", "1_2 1"), 2, "non-integer size line"),
        (COORD.replace("4 4 8", "4 4 1_0") + "".join(ENTRIES), 2, "non-integer size line"),
    ],
    ids=["array-last", "array-first", "col", "row", "coordinate-value", "array-size", "nnz"],
)
def test_digit_group_underscores_are_refused(tmp_path, monkeypatch, block, text, line_no, message):
    # int and float accept "1_0" as 10; a Matrix Market number has no underscore.
    monkeypatch.setattr(problems, "IO_BLOCK", block)
    error = read_error(tmp_path, text)
    assert (error.line_no, str(error)) == (line_no, f"line {line_no}: {message}")


def splitlines_number(data, word):
    """The line that str.splitlines gives the first line holding word."""
    return next(k for k, line in enumerate(data.decode().splitlines(), 1) if word in line)


@pytest.mark.parametrize(
    "text", [ARRAY + "".join(VALUES), COORD + "".join(ENTRIES)], ids=["array", "coordinate"]
)
@pytest.mark.parametrize("brk", ["\r\n", "\r", "\f"])
def test_line_breaks_across_reads(tmp_path, small_block, text, brk):
    reference = read(tmp_path, text)
    lines = text.splitlines()
    bad = lines[:-1] + [lines[-1].replace(lines[-1].split()[-1], "oops")]
    # A comment of pad characters moves every later break across the reads.
    for pad in range(32):
        for body, is_bad in ((lines, False), (bad, True)):
            data = brk.join(body[:1] + ["%" * (pad + 1)] + body[1:]).encode() + brk.encode()
            path = tmp_path / "m.mtx"
            path.write_bytes(data)
            if is_bad:
                with pytest.raises(MatrixMarketError) as exc:
                    read_matrix_market(path)
                assert exc.value.line_no == splitlines_number(data, "oops")
            elif reference.is_sparse:
                for a, b in zip(reference.triples(), read_matrix_market(path).triples()):
                    assert a.tobytes() == b.tobytes()
            else:
                assert read_matrix_market(path).values.tobytes() == reference.values.tobytes()


@pytest.mark.parametrize(
    "text, message",
    [
        (ARRAY.replace("2 4", "100000 100000") + "1\n2\n", "expected 10000000000 values, found 2"),
        (COORD.replace("8", str(10**13)) + ENTRIES[0], f"expected {10**13} entries, found 1"),
    ],
    ids=["array", "coordinate"],
)
def test_size_line_beyond_the_file_is_a_count_error(tmp_path, small_block, text, message):
    # A file too short for its size line is walked before any buffer is allocated.
    last = text.count("\n")
    error = read_error(tmp_path, text)
    assert (error.line_no, str(error)) == (last, f"line {last}: {message}")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
@pytest.mark.parametrize(
    "text, error",
    [
        (COORD + "".join(ENTRIES), None),
        (COORD + "".join(ENTRIES[:-1]) + "4 x 1.0\n", "line 10: malformed coordinate entry"),
        (COORD + "".join(ENTRIES[:-1]) + "2 1 1.0\n", "line 10: duplicate entry (2, 1)"),
        (ARRAY + "".join(VALUES[:-1]) + "oops\n", "line 10: malformed value 'oops'"),
        (
            ARRAY.replace("2 4", "100000 100000") + "1\n2\n",
            "line 4: expected 10000000000 values, found 2",
        ),
    ],
    ids=["valid", "malformed", "duplicate", "array", "beyond"],
)
def test_a_pipe_reads_as_its_file(tmp_path, small_block, text, error):
    # A pipe cannot be read twice, and an error is named by a second pass.
    # Its size is that of what it held, so a size line beyond it is a count error.
    fifo = tmp_path / "pipe.mtx"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        if error is None:
            (tmp_path / "file.mtx").write_text(text)
            expected = read_matrix_market(tmp_path / "file.mtx").triples()
            for a, b in zip(expected, read_matrix_market(fifo).triples()):
                assert a.tobytes() == b.tobytes()
        else:
            with pytest.raises(MatrixMarketError) as exc:
                read_matrix_market(fifo)
            assert str(exc.value) == error
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


# Reads in a fresh process the file at argv[1] and prints how far the read
# raised VmHWM, then the bytes of the arrays the matrix keeps or the error.
PEAK_SCRIPT = """
import sys
import numpy as np
from rekbench.problems import MatrixMarketError, read_matrix_market

def hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM"))

before = hwm()
try:
    A = read_matrix_market(sys.argv[1])
except MatrixMarketError as exc:
    print(hwm() - before, exc)
else:
    print(hwm() - before, sum(a.nbytes for a in vars(A).values() if isinstance(a, np.ndarray)))
"""


def peak(path):
    """(VmHWM growth, the rest of PEAK_SCRIPT's line) of reading path in a fresh process."""
    if not Path("/proc/self/status").exists():
        pytest.skip("VmHWM is read from /proc")
    src = str(Path(problems.__file__).resolve().parents[1])
    cmd = [sys.executable, "-c", PEAK_SCRIPT, str(path)]
    env = {"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120, check=True)
    growth, rest = proc.stdout.strip().split(" ", 1)
    return int(growth), rest


def write_coordinate(g, path):
    """A 2000 x 1000 coordinate file of 200k entries at distinct random cells."""
    cells = g.choice(2000 * 1000, size=200_000, replace=False)
    values = g.standard_normal(cells.size)
    write_matrix_market(DualSparseMatrix(2000, 1000, cells // 1000, cells % 1000, values), path)


def test_read_is_bounded_in_memory(tmp_path):
    g = np.random.Generator(np.random.Philox(4))
    write_matrix_market(DenseMatrix(g.standard_normal((2000, 500))), tmp_path / "array.mtx")
    write_coordinate(g, tmp_path / "coordinate.mtx")
    for name in ("array.mtx", "coordinate.mtx"):
        growth, stored = peak(tmp_path / name)
        assert growth <= 3 * int(stored), (name, growth, stored)


def test_late_duplicate_is_named_in_bounded_memory(tmp_path):
    # Finding the duplicate may cost 16 bytes per entry more than a clean read.
    write_coordinate(np.random.Generator(np.random.Philox(4)), tmp_path / "clean.mtx")
    lines = (tmp_path / "clean.mtx").read_text().splitlines(keepends=True)
    (tmp_path / "late.mtx").write_text("".join(lines[:-1] + lines[2:3]))
    i, j = lines[2].split()[:2]
    clean, _ = peak(tmp_path / "clean.mtx")
    growth, error = peak(tmp_path / "late.mtx")
    assert error == f"line 200002: duplicate entry ({i}, {j})"
    assert growth <= clean + 16 * 200_000, (growth, clean)
