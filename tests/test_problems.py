import numpy as np
import pytest
from test_ground_truth import ORACLE

from rekbench.linalg import DenseMatrix, build_norm_cache
from rekbench.problems import (
    LsProblem,
    gen_gaussian,
    gen_parallel_beam,
    load_problem,
    make_consistent_problem,
    make_inconsistent_problem,
    parallel_beam_matrix,
    project_off_range,
    save_problem,
    shepp_logan,
    shepp_logan_value,
)


def test_gen_gaussian_deterministic():
    a = gen_gaussian(2, 2, 13)
    b = gen_gaussian(2, 2, 13)
    assert np.array_equal(a.values, b.values)


def test_gen_gaussian_different_seeds_differ():
    assert not np.array_equal(gen_gaussian(3, 3, 1).values, gen_gaussian(3, 3, 2).values)


def test_gen_gaussian_moments():
    vals = gen_gaussian(1000, 100, 4).values
    assert abs(vals.mean()) <= 4 / np.sqrt(1000 * 100)
    assert abs(vals.var() - 1.0) <= 0.1


def test_make_inconsistent_identity_is_consistent():
    p = make_inconsistent_problem(DenseMatrix(np.eye(2)), 3)
    assert np.linalg.norm(p.r) <= 1e-12 * np.linalg.norm(p.b)
    p.validate()


def test_make_inconsistent_column_pair():
    p = make_inconsistent_problem(DenseMatrix([[1.0], [1.0]]), 5)
    # r must be orthogonal to the all-ones column: r1 + r2 = 0.
    assert p.r[0] + p.r[1] == pytest.approx(0.0, abs=1e-12)


def test_make_inconsistent_gaussian_orthogonality():
    A = gen_gaussian(50, 10, 21)
    p = make_inconsistent_problem(A, 21)
    cache = build_norm_cache(A)
    r_norm = np.linalg.norm(p.r)
    assert np.linalg.norm(A.rmatvec(p.r)) <= 1e-8 * np.sqrt(cache.frob_sq) * r_norm
    p.validate()


@pytest.mark.parametrize("make", [make_consistent_problem, make_inconsistent_problem])
def test_wide_gaussian_problem_validates(make):
    # r is rounding noise here; the check must not read it as overlap.
    make(gen_gaussian(50, 80, 1), 1).validate()


def test_r_with_a_range_component_rejected():
    p = make_inconsistent_problem(gen_gaussian(40, 10, 2), 2)
    u = p.A.matvec(np.ones(10))
    u *= 1e-6 * np.linalg.norm(p.r) / np.linalg.norm(u)
    q = LsProblem(A=p.A, b=p.b + u, x_star=p.x_star, r=p.r + u)
    with pytest.raises(ValueError, match="not orthogonal"):
        q.validate()


@pytest.mark.parametrize("kept", ["x_star", "r"])
def test_validate_checks_either_truth_vector_alone(kept):
    p = make_inconsistent_problem(gen_gaussian(40, 10, 1), 1)
    LsProblem(A=p.A, b=p.b, **{kept: getattr(p, kept)}).validate()
    edited = getattr(p, kept).copy()
    edited[3 if kept == "x_star" else 0] += 1.0
    with pytest.raises(ValueError, match="not orthogonal"):
        LsProblem(A=p.A, b=p.b, **{kept: edited}).validate()


def test_range_split_identity():
    b = np.array([3.0, 4.0])
    b_perp = project_off_range(DenseMatrix(np.eye(2)), b)
    assert np.allclose(b - b_perp, [3, 4])
    assert np.allclose(b_perp, 0)


def test_range_split_axis():
    b = np.array([2.0, 5.0])
    b_perp = project_off_range(DenseMatrix([[1.0], [0.0]]), b)
    assert np.allclose(b - b_perp, [2, 0])
    assert np.allclose(b_perp, [0, 5])


def test_range_split_pythagoras():
    A = gen_gaussian(30, 8, 9)
    b = np.random.Generator(np.random.Philox(9)).standard_normal(30)
    b_perp = project_off_range(A, b)
    lhs = np.sum((b - b_perp) ** 2) + np.sum(b_perp**2)
    assert lhs == pytest.approx(np.sum(b**2), rel=1e-10)


def _spy(monkeypatch, name):
    """The list of argument tuples of each call to np.linalg.<name> from here on."""
    calls, func = [], getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda *a, **kw: calls.append(a) or func(*a, **kw))
    return calls


def _column_scaled(m, n, seed, kappa):
    """A Gaussian m x n matrix whose columns are scaled from 1 down to 1/kappa."""
    return DenseMatrix(gen_gaussian(m, n, seed).values * np.logspace(0, -np.log10(kappa), n))


def _zero_column():
    values = gen_gaussian(40, 10, 7).values
    values[:, 4] = 0.0
    return DenseMatrix(values)


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_gaussian(60, 15, 1),
        lambda: gen_gaussian(300, 80, 2),
        lambda: _column_scaled(60, 15, 3, 1e3),
        lambda: _column_scaled(300, 80, 4, 1e3),
        lambda: parallel_beam_matrix(8, 12, 12),
        lambda: parallel_beam_matrix(16, 24, 24),
    ],
    ids=["gaussian-60x15", "gaussian-300x80", "kappa-1e3-60x15", "kappa-1e3-300x80", "tomo-8", "tomo-16"],
)
def test_tall_full_rank_projection_takes_the_gram_path(monkeypatch, make):
    # The corrected semi-normal equations agree with the SVD projection and
    # leave r orthogonal to range(A) to working precision.
    A = make()
    w = np.random.Generator(np.random.Philox(5)).standard_normal(A.rows)
    svd = w - A.matvec(np.linalg.lstsq(A.to_dense(), w, rcond=None)[0])
    solves = _spy(monkeypatch, "lstsq")
    r = project_off_range(A, w)
    assert not solves
    assert np.linalg.norm(r - svd) <= 1e-12 * np.linalg.norm(w)
    frob = np.sqrt(build_norm_cache(A).frob_sq)
    assert np.linalg.norm(A.rmatvec(r)) <= 1e-14 * frob * np.linalg.norm(r)


@pytest.mark.parametrize(
    "make",
    [
        *(lambda make=make: make().A for make in ORACLE.values()),
        _zero_column,
        lambda: DenseMatrix(np.zeros((6, 3))),
    ],
    ids=[*ORACLE, "zero-column-40x10", "zero-6x3"],
)
def test_projection_takes_the_svd_where_the_gram_test_fails(monkeypatch, make):
    A = make()
    w = np.random.Generator(np.random.Philox(5)).standard_normal(A.rows)
    solves = _spy(monkeypatch, "lstsq")
    r = project_off_range(A, w)
    assert len(solves) == 1
    assert np.array_equal(r, w - A.matvec(np.linalg.lstsq(A.to_dense(), w, rcond=None)[0]))


# ---------------------------------------------------------------------------
# Shepp-Logan phantom


def test_phantom_deterministic():
    assert np.array_equal(shepp_logan(16), shepp_logan(16))


def test_phantom_corner_zero_and_range():
    img = shepp_logan(16)
    assert img[0] == 0.0
    assert img[-1] == 0.0
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_phantom_center_matches_pointwise_formula():
    side = 17
    img = shepp_logan(side)
    center = img[(side // 2) * side + side // 2]
    x = (side // 2 + 0.5) * 2 / side - 1
    assert center == pytest.approx(shepp_logan_value(x, x))
    assert center > 0.0


# ---------------------------------------------------------------------------
# Parallel-beam projector


def test_single_horizontal_ray_2x2():
    # One angle, theta=0, gives horizontal rays; two detectors sit at offsets
    # -0.5 and 0.5, so row 1 passes through the top row of pixels.
    A = parallel_beam_matrix(2, 1, 2)
    row = slice(A.csr_indptr[1], A.csr_indptr[2])
    assert sorted(A.csr_indices[row].tolist()) == [2, 3]
    assert np.allclose(A.csr_data[row], [1.0, 1.0])


def _chord_length(side, theta, offset):
    """Length of the ray inside [-side/2, side/2]^2, by the slab method."""
    half = side / 2
    lo, hi = -np.inf, np.inf
    for d, o in ((np.cos(theta), -offset * np.sin(theta)), (np.sin(theta), offset * np.cos(theta))):
        if abs(d) < 1e-12:  # parallel to this slab: inside it or missing the square
            if abs(o) > half:
                return 0.0
            continue
        u1, u2 = sorted(((-half - o) / d, (half - o) / d))
        lo, hi = max(lo, u1), min(hi, u2)
    return max(hi - lo, 0.0)


def _offsets(side, n_det):
    return [(det - (n_det - 1) / 2) * side / n_det for det in range(n_det)]


# Random (side, n_angles, n_detectors); test_chord_sizes_reach_edge_cases
# checks that they hold the edge cases.
CHORD_SIZES = [
    tuple(int(v) for v in size)
    for size in np.random.default_rng(17).integers((2, 1, 1), (20, 30, 30), size=(24, 3))
]


def test_chord_sizes_reach_edge_cases():
    # An even angle count has a vertical ray (theta = pi/2); a ray whose
    # offset is a grid plane runs along a grid line at 0 and 90 degrees.
    assert any(n_angles % 2 == 0 for _, n_angles, _ in CHORD_SIZES)
    assert any(
        abs(offset + side / 2 - round(offset + side / 2)) < 1e-9
        for side, _, n_det in CHORD_SIZES
        for offset in _offsets(side, n_det)
    )


@pytest.mark.parametrize("size", CHORD_SIZES, ids=lambda s: "x".join(map(str, s)))
def test_row_sums_are_chord_lengths(size):
    side, n_angles, n_det = size
    A = parallel_beam_matrix(*size)
    assert np.all(np.diff(A.csr_indptr) > 0)  # every ray meets the grid
    row_sums = np.bincount(A.csr_rowids, weights=A.csr_data, minlength=A.rows)
    chords = [
        _chord_length(side, a * np.pi / n_angles, offset)
        for a in range(n_angles)
        for offset in _offsets(side, n_det)
    ]
    assert np.allclose(row_sums, chords, rtol=0.0, atol=1e-12 * side)


def test_one_hot_projections_sum_to_pixel_value():
    side = 4
    A = parallel_beam_matrix(side, 2, side)  # angles 0 and 90 degrees
    x = np.zeros(side * side)
    x[2 * side + 1] = 3.0  # one-hot pixel
    sino = A.matvec(x)
    for a in range(2):
        bins = sino[a * side : (a + 1) * side]
        assert bins.sum() == pytest.approx(3.0)


def test_rows_nonnegative_and_bounded_by_diagonal():
    A = parallel_beam_matrix(8, 6, 10)
    cache = build_norm_cache(A)
    assert np.all(A.csr_data >= 0)
    row_sums = np.bincount(A.csr_rowids, weights=A.csr_data, minlength=A.rows)
    assert np.all(row_sums <= 8 * np.sqrt(2) + 1e-9)
    assert cache.frob_sq > 0


def test_sinogram_matches_shapely_oracle():
    shapely_geom = pytest.importorskip("shapely.geometry")
    side, n_angles, n_det = 16, 24, 24
    A = parallel_beam_matrix(side, n_angles, n_det)
    phantom = shepp_logan(side)
    sino = A.matvec(phantom)
    half = side / 2
    spacing = side / n_det
    span = 4 * side  # long enough to cross the whole grid
    checked = 0
    for a in range(0, n_angles, 5):
        theta = a * np.pi / n_angles
        d = np.array([np.cos(theta), np.sin(theta)])
        for det in range(0, n_det, 5):
            offset = (det - (n_det - 1) / 2) * spacing
            if a % (n_angles // 2) == 0 and abs(offset - round(offset)) < 1e-9:
                # An axis-aligned ray on a pixel boundary: the closed boxes of
                # the oracle count the shared edge twice, the traversal once.
                continue
            o = offset * np.array([-np.sin(theta), np.cos(theta)])
            line = shapely_geom.LineString([o - span * d, o + span * d])
            total = 0.0
            for iy in range(side):
                for ix in range(side):
                    box = shapely_geom.box(ix - half, iy - half, ix - half + 1, iy - half + 1)
                    seg = line.intersection(box)
                    if not seg.is_empty:
                        total += seg.length * phantom[iy * side + ix]
            assert sino[a * n_det + det] == pytest.approx(total, abs=1e-8)
            checked += 1
    assert checked >= 24


def test_gen_parallel_beam_invariants():
    p = gen_parallel_beam(8, 12, 12, 3)
    p.validate()
    assert p.A.shape == (144, 64)


@pytest.mark.parametrize(
    "make, solves, eigs",
    [
        (lambda: make_inconsistent_problem(gen_gaussian(40, 10, 1), 1), 0, 1),
        (lambda: gen_parallel_beam(8, 12, 12, 1), 0, 1),
        (lambda: make_inconsistent_problem(gen_gaussian(15, 40, 3), 3), 2, 0),
        (lambda: make_consistent_problem(gen_gaussian(40, 10, 1), 1), 0, 1),
        (lambda: make_consistent_problem(gen_gaussian(50, 80, 1), 1), 1, 0),
    ],
    ids=["tall-inconsistent", "tomo", "wide-inconsistent", "consistent", "wide-consistent"],
)
def test_dense_solves_per_generator(monkeypatch, make, solves, eigs):
    # A tall full-rank A projects its draw through A^T A (one eigvalsh for
    # its rank) and keeps its planted x; a wide one projects by one SVD, and
    # not at all for a zero draw, then takes x_star from the oracle.
    svd_calls, eig_calls = _spy(monkeypatch, "lstsq"), _spy(monkeypatch, "eigvalsh")
    make()
    assert (len(svd_calls), len(eig_calls)) == (solves, eigs)


def test_bundle_round_trip(tmp_path):
    p = make_inconsistent_problem(gen_gaussian(12, 5, 2), 2)
    save_problem(p, tmp_path / "bundle")
    q = load_problem(tmp_path / "bundle")
    assert q.label == "inconsistent-12x5-seed2"
    assert np.array_equal(q.b, p.b)
    assert np.array_equal(q.x_star, p.x_star)
    assert np.array_equal(q.r, p.r)
    assert np.allclose(q.A.to_dense(), p.A.to_dense())
    q.validate()


def test_bundle_with_extra_b_line_rejected(tmp_path):
    p = make_inconsistent_problem(gen_gaussian(12, 5, 2), 2)
    save_problem(p, tmp_path / "bundle")
    with open(tmp_path / "bundle" / "b.txt", "a", encoding="ascii") as fh:
        fh.write("1.5\n")
    with pytest.raises(ValueError, match="b has shape"):
        load_problem(tmp_path / "bundle")


def test_nan_in_b_rejected():
    b = np.ones(6)
    b[3] = np.nan
    with pytest.raises(ValueError, match="b has non-finite"):
        LsProblem(A=gen_gaussian(6, 4, 0), b=b)


@pytest.mark.parametrize(
    "field, value",
    [
        ("b", np.ones((6, 1))),
        ("b", np.ones(5)),
        ("x_star", np.ones(6)),
        ("x_star", np.array([1.0, np.inf, 0.0, 0.0])),
        ("r", np.ones(4)),
    ],
)
def test_problem_vectors_checked(field, value):
    fields = {"A": gen_gaussian(6, 4, 0), "b": np.ones(6), field: value}
    with pytest.raises(ValueError, match=field):
        LsProblem(**fields)
