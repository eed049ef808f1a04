"""Least-squares problem construction and serialization.

Generators mirror a standard experimental protocol: Gaussian matrices,
right-hand sides b = A x + r planted by one recipe (_planted_problem, r a
draw projected off the range of A once: through A^T A where A is tall and
well conditioned, else by the SVD), and a simplified parallel-beam
tomography operator over the Shepp-Logan phantom.  Matrix Market files are
the on-disk matrix format; problem bundles are directories of .mtx + flat
vectors + JSON metadata.
"""

from __future__ import annotations

import io
import json
import math
import os
import warnings
from array import array
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from . import rng as rngmod
from .linalg import (
    DenseMatrix,
    DualSparseMatrix,
    _dense_values,
    _gram_spectrum,
    _lstsq,
    build_norm_cache,
    direct_least_squares,
)

PLANTED_TOL = 16  # C of _planted's test ||A^T (b - A x)|| <= C eps ||A||_F^2 ||x||
# tau of _off_range's test lambda_min >= tau lambda_max on A^T A: above the
# m n eps = 2.2e-9 relative rounding of A^T A and its eigenvalues at the
# oracle cap, so an A that passes has full rank by the SVD's rcond test too.
GRAM_TOL = 1e-8


@dataclass
class LsProblem:
    """A least-squares instance min ||b - Ax||, with optional ground truth.

    x_star is A^+ b (a generator's planted x where _planted admits it, else the oracle's);
    r is the component of b orthogonal to range(A), so b = A x_star + r when both are set.
    """

    A: object
    b: np.ndarray
    x_star: np.ndarray | None = None
    r: np.ndarray | None = None
    label: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        m, n = self.A.shape
        self.b = _checked_vector(self.b, "b", m)
        if self.x_star is not None:
            self.x_star = _checked_vector(self.x_star, "x_star", n)
        if self.r is not None:
            self.r = _checked_vector(self.r, "r", m)

    def validate(self):
        """Check the ground truth that is set: b = A x_star + r, r orthogonal to range(A).

        With x_star and no r, r is taken as b - A x_star.
        """
        if self.x_star is None and self.r is None:
            return
        frob = np.sqrt(build_norm_cache(self.A).frob_sq)
        b_norm = np.linalg.norm(self.b)
        r = self.r
        if self.x_star is not None:
            fitted = self.b - self.A.matvec(self.x_star)
            if r is None:
                r = fitted
            elif np.linalg.norm(fitted - r) > 1e-10 * max(b_norm, 1e-300):
                raise ValueError("b != A x_star + r beyond tolerance")
        # The floor 1e-12 ||A||_F ||b|| admits an r of rounding noise (a
        # consistent or wide problem), which a bound relative to ||r|| rejects.
        bound = frob * (1e-8 * np.linalg.norm(r) + 1e-12 * b_norm)
        if np.linalg.norm(self.A.rmatvec(r)) > bound:
            name = "r" if self.r is not None else "b - A x_star"
            raise ValueError(f"{name} is not orthogonal to range(A) beyond tolerance")


def _checked_vector(values, name, size):
    """values as a 1-D float array of the given size with finite entries."""
    vec = np.asarray(values, dtype=np.float64)
    if vec.ndim != 1 or vec.size != size:
        raise ValueError(f"{name} has shape {vec.shape}, expected ({size},) to match A")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{name} has non-finite entries")
    return vec


def gen_gaussian(m, n, seed):
    """Seeded i.i.d. standard-normal m x n matrix (bitwise reproducible)."""
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    g = rngmod.stream(seed, rngmod.method_tag("gen_gaussian"))
    return DenseMatrix(g.standard_normal((m, n)))


def project_off_range(A, v):
    """v - A A^+ v: the component of v orthogonal to range(A)."""
    return _off_range(A, v)[0]


def _off_range(A, v):
    """(project_off_range(A, v), whether A has full column rank).

    A tall A with lambda_min >= GRAM_TOL lambda_max in the spectrum of
    G = A^T A is projected by the corrected semi-normal equations (Bjorck,
    Linear Algebra Appl. 88/89, 1987): c = G^-1 A^T v, then one refinement
    step c += G^-1 A^T (v - A c).  Every other A (wide, rank deficient or
    ill-conditioned) takes the SVD, where a zero v on a wide A, which cannot
    have full column rank, is its own projection.
    """
    if A.rows >= A.cols:
        gram, evals = _gram_spectrum(_dense_values(A))
        if evals[0] >= GRAM_TOL * evals[-1] > 0:
            coef = np.linalg.solve(gram, A.rmatvec(v))
            coef += np.linalg.solve(gram, A.rmatvec(v - A.matvec(coef)))
            return v - A.matvec(coef), True
    elif not v.any():
        return v, False
    coef, rank = _lstsq(A, v)
    return v - A.matvec(coef), rank == A.cols


def _planted(A, b, x, full_rank):
    """Whether A has full column rank and x solves the normal equations to PLANTED_TOL."""
    tol = PLANTED_TOL * np.finfo(np.float64).eps * build_norm_cache(A).frob_sq * np.linalg.norm(x)
    return full_rank and np.linalg.norm(A.rmatvec(b - A.matvec(x))) <= tol


def _planted_problem(A, x, w, label, meta):
    """The LsProblem b = A x + r, where r is w projected off range(A) once.

    x_star is x where _planted admits it, else the oracle A^+ b; r is stored
    as b - A x_star.  Every generator builds its problem here.
    """
    r, full_rank = _off_range(A, w)
    b = A.matvec(x) + r
    x_star = x if _planted(A, b, x, full_rank) else direct_least_squares(A, b)
    return LsProblem(A=A, b=b, x_star=x_star, r=b - A.matvec(x_star), label=label, meta=meta)


def make_consistent_problem(A, seed):
    """Build b = A x for a Gaussian x (w = 0, so r is zero where x is planted)."""
    m, n = A.shape
    g = rngmod.stream(seed, rngmod.method_tag("gen_consistent_b"))
    label = f"gaussian-{m}x{n}-seed{seed}"
    meta = {"seed": int(seed), "generator": "gen_gaussian"}
    return _planted_problem(A, g.standard_normal(n), np.zeros(m), label, meta)


def make_inconsistent_problem(A, seed):
    """Build b = A x + r for a Gaussian x, with r a Gaussian draw projected off range(A)."""
    m, n = A.shape
    g = rngmod.stream(seed, rngmod.method_tag("make_inconsistent"))
    label = f"inconsistent-{m}x{n}-seed{seed}"
    meta = {"seed": int(seed), "generator": "make_inconsistent_problem"}
    return _planted_problem(A, g.standard_normal(n), g.standard_normal(m), label, meta)


# ---------------------------------------------------------------------------
# Matrix Market I/O

# Lines per block of the bundle writer and of the Matrix Market reader, which
# takes 8 * IO_BLOCK bytes of the file per read.
IO_BLOCK = 4096


class MatrixMarketError(ValueError):
    """Parse failure, carrying the 1-based line number."""

    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def read_matrix_market(path):
    """Read a real general/symmetric Matrix Market file.

    Coordinate files become DualSparseMatrix, array files DenseMatrix.
    Symmetric storage is expanded to full; indices convert to 0-based.
    A read parses IO_BLOCK lines at a time into buffers of exactly the size
    line's count, so its peak follows the matrix, not the text.  Every data or
    count error is named by one walk from the size line down, which raises the
    first in file order; a size line too large to store is refused on its line.
    """
    with open(path, "rb") as fh:
        # An error is named by reading again from the top, so a pipe is read whole.
        src = fh if fh.seekable() else io.BytesIO(fh.read())
        try:
            return _parse_matrix_market(src)
        except MatrixMarketError:
            src.seek(0)
            for _ in _line_blocks(src):  # a non-ASCII byte anywhere outranks a parse error
                pass
            raise


def _line_blocks(fh):
    """Yield fh's lines, with their breaks, as str.splitlines splits them, a list per read."""
    tail, done = "", 0
    while data := fh.read(8 * IO_BLOCK):
        try:
            text = tail + data.decode("ascii")
        except UnicodeDecodeError as exc:
            # The bad byte is on the line that a non-break character there would end.
            line_no = done + len((tail + data[: exc.start].decode("ascii") + "x").splitlines())
            raise MatrixMarketError(f"non-ASCII byte 0x{data[exc.start]:02x}", line_no) from None
        lines = text.splitlines(keepends=True)
        # A line not yet ended, or ended by a "\r" that a "\n" may join, waits a read.
        tail = lines.pop() if lines[-1][-1] not in "\n\v\f\x1c\x1d\x1e" else ""
        done += len(lines)
        yield lines
    yield tail.splitlines(keepends=True)


def _parse_matrix_market(src):
    """The matrix in the seekable binary file src."""
    file_bytes = src.seek(0, io.SEEK_END)
    src.seek(0)

    def _number(convert, word):
        """convert(word), refusing the digit-group underscores that int and float accept."""
        return convert(word if "_" not in word else "_")

    def _words(line):
        """The words of a data line; none for a blank or comment line."""
        words = line.split()
        return [] if words and words[0].startswith("%") else words

    def _walk():
        """Check the data from the size line down; raise its first error, else the count error.

        Each coordinate entry whose line passes is kept as two int64 numbers,
        its row-major cell and its line, not as a Python object; the first
        cell that repeats an earlier one, found by one stable sort, outranks
        the error that ends the walk.
        """
        fits = m * n <= 2**63
        cells = array("q") if fits else []  # a cell number past int64 stays a Python int
        line_nos, found, ln = array("q"), 0, size_line_no
        src.seek(0)
        data = islice(chain.from_iterable(_line_blocks(src)), size_line_no, None)
        try:
            for ln, words in enumerate(map(_words, data), size_line_no + 1):
                if coordinate and words:
                    if len(words) != 3:
                        raise MatrixMarketError("coordinate entry needs 'i j value'", ln)
                    try:
                        i, j = _number(int, words[0]), _number(int, words[1])
                    except ValueError:
                        raise MatrixMarketError("malformed coordinate entry", ln) from None
                for word in words[2:] if coordinate else words:
                    try:
                        value = _number(float, word)
                    except ValueError:
                        raise MatrixMarketError(f"malformed value {word!r}", ln) from None
                    if not math.isfinite(value):
                        raise MatrixMarketError(f"non-finite value {word!r}", ln)
                    found += 1
                if coordinate and words:
                    if not (1 <= i <= m and 1 <= j <= n):
                        raise MatrixMarketError(f"index ({i}, {j}) out of range for {m}x{n}", ln)
                    if symmetric and j > i:
                        raise MatrixMarketError("symmetric entry above the diagonal", ln)
                    cells.append((i - 1) * n + j - 1)
                    line_nos.append(ln)
            if found == expected:  # sound data: A is too large to store
                raise MatrixMarketError(f"{size_text}: too large to store", size_line_no)
            unit = "entries" if coordinate else "values"
            raise MatrixMarketError(f"expected {expected} {unit}, found {found}", ln)
        except MatrixMarketError as exc:
            error = exc
        keys = np.asarray(cells, dtype=np.int64 if fits else object)
        order = np.argsort(keys, kind="stable")  # each cell's entries stay in file order
        keys = keys[order]
        repeats = order[1:][keys[1:] == keys[:-1]]
        if repeats.size:
            first = int(repeats.min())
            i, j = divmod(cells[first], n)
            raise MatrixMarketError(f"duplicate entry ({i + 1}, {j + 1})", line_nos[first])
        raise error

    def _fill(block, found):
        """Parse a block into the buffers from index found on; return the count after it."""
        text = "".join(block)
        if "%" in text:
            text = "\n".join(t for t in map(str.strip, block) if not t.startswith("%"))
        # A coordinate block's entries, each split into its words; an array block's values.
        rows = list(filter(None, map(str.split, text.splitlines()))) if coordinate else text.split()
        k = found + len(rows)
        if "_" in text or k > expected or coordinate and set(map(len, rows)) - {3}:
            _walk()
        try:
            for buf, convert, words in zip(bufs, converts, zip(*rows) if coordinate else [rows]):
                buf[found:k] = list(map(convert, words))
        except (ValueError, OverflowError):
            _walk()
        return k

    lines = chain.from_iterable(_line_blocks(src))
    header = next(lines, None)
    if header is None:
        raise MatrixMarketError("empty file", 1)
    header = header.split()
    if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        raise MatrixMarketError("malformed Matrix Market header", 1)
    fmt, fld, sym = (w.lower() for w in header[2:])
    if fmt not in ("coordinate", "array"):
        raise MatrixMarketError(f"unsupported format {fmt!r}", 1)
    if fld != "real":
        raise MatrixMarketError(f"unsupported field {fld!r} (real only)", 1)
    if sym not in ("general", "symmetric"):
        raise MatrixMarketError(f"unsupported symmetry {sym!r}", 1)

    size_line_no = 1
    for size_line_no, parts in enumerate(map(_words, lines), start=2):
        if parts:
            break
    else:
        raise MatrixMarketError("missing size line", size_line_no)
    coordinate = fmt == "coordinate"
    fields = "rows cols nnz" if coordinate else "rows cols"
    if len(parts) != len(fields.split()):
        raise MatrixMarketError(f"{fmt} size line needs '{fields}'", size_line_no)
    try:
        size = [_number(int, p) for p in parts]
    except ValueError:
        raise MatrixMarketError("non-integer size line", size_line_no) from None
    m, n = size[:2]
    nnz = size[2] if coordinate else 0
    size_text = f"size {' '.join(map(str, size))}"
    if m < 1 or n < 1 or nnz < 0:
        need = "rows, cols >= 1" + (" and nnz >= 0" if coordinate else "")
        raise MatrixMarketError(f"{size_text}: need {need}", size_line_no)
    symmetric = sym == "symmetric"
    if symmetric and m != n:
        raise MatrixMarketError("symmetric matrix must be square", size_line_no)
    expected = nnz if coordinate else m * n if not symmetric else m * (m + 1) // 2
    if expected > file_bytes // 2 + 1:  # a value takes two bytes at least
        _walk()
    if coordinate:
        bufs = [np.empty(nnz, np.int64), np.empty(nnz, np.int64), np.empty(nnz)]
    else:
        out = np.empty((m, n))
        # Array values come column by column, so a general array's go in through out.T.flat.
        bufs = [out.T.flat if not symmetric else np.empty(expected)]
    converts = (int, int, float) if coordinate else (float,)
    found = 0
    for block in iter(lambda: list(islice(lines, IO_BLOCK)), []):
        found = _fill(block, found)  # a call per block frees its text and words before the next read
    if found != expected or coordinate and symmetric and (bufs[1] > bufs[0]).any():
        _walk()
    try:
        if coordinate:
            i, j, v = bufs
            i -= 1
            j -= 1
            if symmetric:
                off = i != j
                i, j, v = np.r_[i, j[off]], np.r_[j, i[off]], np.r_[v, v[off]]
            return DualSparseMatrix(m, n, i, j, v)
        if symmetric:
            pos = 0
            for j in range(n):
                out[j:, j] = out[j, j:] = bufs[0][pos : pos + (m - j)]
                pos += m - j
        return DenseMatrix(out)
    except (MemoryError, ValueError):  # too large, or a bad value, index or duplicate
        pass  # walked once the handler has dropped the traceback and the frames it holds
    _walk()


def write_matrix_market(A, path):
    """Write A with 17 significant digits (lossless binary64 round trip).

    Sparse matrices use coordinate format, dense matrices array format, so
    reading the file back reproduces both the type and the exact entries.
    """
    with open(path, "w", encoding="ascii") as fh:
        if A.is_sparse:
            i, j, v = A.triples()
            fh.write(f"%%MatrixMarket matrix coordinate real general\n{A.rows} {A.cols} {v.size}\n")
            _write_lines(fh, "%d %d %.17g\n", i + 1, j + 1, v)
        else:
            fh.write(f"%%MatrixMarket matrix array real general\n{A.rows} {A.cols}\n")
            width = max(1, IO_BLOCK // A.rows)  # columns of about IO_BLOCK values: no copy of A
            for j in range(0, A.cols, width):
                _write_lines(fh, "%.17g\n", A.values[:, j : j + width].ravel(order="F"))


def _write_lines(fh, line, *columns):
    """Write line % (c[k] for c in columns) for each k, one % per IO_BLOCK lines."""
    for start in range(0, len(columns[0]), IO_BLOCK):
        parts = [c[start : start + IO_BLOCK].tolist() for c in columns]
        fh.write(line * len(parts[0]) % tuple(chain.from_iterable(zip(*parts))))


# ---------------------------------------------------------------------------
# Tomography

# Modified Shepp-Logan ellipses: (intensity, semi_x, semi_y, x0, y0, angle_deg)
_SHEPP_LOGAN = [
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.2, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.2, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.1, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.1, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.1, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.1, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.1, 0.023, 0.023, 0.0, -0.606, 0.0),
    (0.1, 0.023, 0.046, 0.06, -0.605, 0.0),
]


def shepp_logan_value(x, y):
    """Phantom intensity at points of the [-1, 1]^2 square (scalars or arrays)."""
    total = 0.0
    for inten, a, bsemi, x0, y0, phi in _SHEPP_LOGAN:
        c, s = np.cos(np.radians(phi)), np.sin(np.radians(phi))
        dx, dy = x - x0, y - y0
        inside = ((dx * c + dy * s) / a) ** 2 + ((-dx * s + dy * c) / bsemi) ** 2 <= 1.0
        total += inten * inside
    return total


def shepp_logan(side):
    """Ten-ellipse phantom, flattened with index iy * side + ix.

    Pixel (ix, iy) covers [ix, ix+1] x [iy, iy+1] of a side x side grid
    mapped onto [-1, 1]^2; iy increases upward.  Values lie in [0, 1].
    """
    if side < 4:
        raise ValueError("side must be at least 4")
    centers = (np.arange(side) + 0.5) * 2.0 / side - 1.0
    x, y = np.meshgrid(centers, centers)
    return np.clip(shepp_logan_value(x, y).ravel(), 0.0, 1.0)


def _angle_rays(side, theta, offsets):
    """Intersections of the parallel rays of one angle with a side x side unit-pixel grid.

    The grid spans [-side/2, side/2]^2.  Ray k has direction (cos theta,
    sin theta) and passes through offsets[k] * (-sin theta, cos theta); with
    every |offsets[k]| < side/2 it crosses the grid.  Returns (ray, pixel,
    length) per ray-pixel segment, by ray and then along it, with pixel
    index iy * side + ix.
    """
    half = side / 2.0
    tiny = 1e-12
    d = (np.cos(theta), np.sin(theta))
    o = (offsets * -np.sin(theta), offsets * np.cos(theta))
    axes = [ax for ax in range(2) if abs(d[ax]) > tiny]  # the ray crosses this axis's planes
    ends = [((-half - o[ax]) / d[ax], (half - o[ax]) / d[ax]) for ax in axes]
    umin = np.max([np.minimum(u1, u2) for u1, u2 in ends], axis=0)[:, None]
    umax = np.min([np.maximum(u1, u2) for u1, u2 in ends], axis=0)[:, None]
    planes = np.arange(side + 1) - half
    crossings = [(planes - o[ax][:, None]) / d[ax] for ax in axes]
    # A crossing outside the chord moves onto its exit, where it ends a zero-length segment.
    inside = [np.where((u > umin + tiny) & (u < umax - tiny), u, umax) for u in crossings]
    us = np.sort(np.hstack([umin, umax, *inside]), axis=1)
    lengths = np.diff(us, axis=1)
    keep = lengths > tiny
    ray = np.nonzero(keep)[0]
    sums = (us[:, :-1] + us[:, 1:])[keep]  # twice the midpoint parameter of each kept segment
    ix, iy = (
        np.clip(np.floor(o[ax][ray] + d[ax] * sums / 2.0 + half).astype(np.int64), 0, side - 1)
        for ax in range(2)
    )
    return ray, iy * side + ix, lengths[keep]


def parallel_beam_matrix(image_side, n_angles, n_detectors):
    """Sparse ray-intersection matrix, one row per (angle, detector)."""
    offsets = (np.arange(n_detectors) - (n_detectors - 1) / 2.0) * (image_side / n_detectors)
    # The empty first triple types the concatenation even with no angles.
    traced = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))]
    for a in range(n_angles):
        ray, pixel, length = _angle_rays(image_side, a * np.pi / n_angles, offsets)
        traced.append((a * n_detectors + ray, pixel, length))
    rows, pixels, lengths = (np.concatenate(part) for part in zip(*traced))
    return DualSparseMatrix(n_angles * n_detectors, image_side**2, rows, pixels, lengths)


def gen_parallel_beam(image_side, n_angles, n_detectors, seed):
    """Parallel-beam tomography problem b = A phantom + r, with r as make_inconsistent_problem's."""
    phantom = shepp_logan(image_side)
    if n_angles < 1 or n_detectors < 1:
        raise ValueError("n_angles and n_detectors must be at least 1")
    A = parallel_beam_matrix(image_side, n_angles, n_detectors)
    g = rngmod.stream(seed, rngmod.method_tag("gen_parallel_beam"))
    label = f"tomo-{image_side}x{image_side}-a{n_angles}-d{n_detectors}-seed{seed}"
    meta = {
        "seed": int(seed),
        "generator": "gen_parallel_beam",
        "image_side": image_side,
        "n_angles": n_angles,
        "n_detectors": n_detectors,
    }
    return _planted_problem(A, phantom, g.standard_normal(A.rows), label, meta)


# ---------------------------------------------------------------------------
# Problem bundles (directory of .mtx + flat vectors + metadata)

# The vector files <name>.txt: b is required, x_star and r are optional.
BUNDLE_VECTORS = ("b", "x_star", "r")


def save_problem(problem, directory):
    os.makedirs(directory, exist_ok=True)
    write_matrix_market(problem.A, os.path.join(directory, "A.mtx"))
    for name in BUNDLE_VECTORS:
        vec = getattr(problem, name)
        if vec is not None:
            with open(os.path.join(directory, f"{name}.txt"), "w", encoding="ascii") as fh:
                _write_lines(fh, "%.17g\n", vec)
    meta = {"label": problem.label, "m": problem.A.rows, "n": problem.A.cols}
    meta.update(problem.meta)
    meta["rng"] = rngmod.GENERATOR_NAME
    with open(os.path.join(directory, "meta.json"), "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=2)


def load_problem(directory):
    """Read a bundle and check its ground truth (LsProblem.validate)."""
    A = read_matrix_market(os.path.join(directory, "A.mtx"))
    vectors = {}
    for name in BUNDLE_VECTORS:
        path = os.path.join(directory, f"{name}.txt")
        if name == "b" or os.path.exists(path):
            with warnings.catch_warnings():  # an empty file: the shape check names the vector
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                vectors[name] = np.atleast_1d(np.loadtxt(path))
    meta = {}
    meta_path = os.path.join(directory, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path, "r", encoding="ascii") as fh:
            meta = json.load(fh)
        if not isinstance(meta, dict):
            raise ValueError(f"{meta_path} must hold a JSON object, not {type(meta).__name__}")
        if not isinstance(meta.get("label", ""), str):
            raise ValueError(f"{meta_path} label must be a string, got {json.dumps(meta['label'])}")
    problem = LsProblem(A=A, **vectors, label=meta.get("label", ""), meta=meta)
    problem.validate()
    return problem
