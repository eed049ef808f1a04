import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rekbench.linalg import DenseMatrix, build_norm_cache
from rekbench.selection import (
    build_index_set,
    cumulative_weights,
    greedy_threshold,
    pick_from_cdf,
    scores_from_residual,
    simple_random_sample,
    top_two,
    weighted_pick,
    weighted_pick_norms,
)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def row_scores(A, cache, x, b, z=None):
    """Scores of the shifted residual b - z - Ax against row norms."""
    res = b - A.matvec(x) if z is None else b - z - A.matvec(x)
    return scores_from_residual(res, cache.row_sq_norms)


def col_scores(A, cache, z):
    """Scores of A^T z against column norms."""
    return scores_from_residual(A.rmatvec(z), cache.col_sq_norms)


def greedy_set(s, cache):
    """The greedy index set of (residual_sq, scores) against row norms."""
    residual_sq, scores = s
    total_sq = float(residual_sq.sum())
    argmax = int(np.argmax(scores))
    eps = greedy_threshold(scores[argmax], total_sq, cache.frob_sq)
    norms = cache.row_sq_norms
    return build_index_set(residual_sq, norms, norms > 0, eps * total_sq, argmax)


def test_row_scores_identity():
    A = DenseMatrix(np.eye(2))
    cache = build_norm_cache(A)
    residual_sq, scores = row_scores(A, cache, np.zeros(2), np.array([1.0, 0.0]), np.zeros(2))
    assert np.array_equal(scores, [1.0, 0.0])
    assert residual_sq.sum() == 1.0


def test_row_scores_zero_at_solution():
    A = DenseMatrix([[1.0, 2.0], [3.0, 1.0]])
    cache = build_norm_cache(A)
    x = np.array([1.0, -1.0])
    _, scores = row_scores(A, cache, x, A.matvec(x))
    assert np.allclose(scores, 0.0)


def test_row_scores_naive_loop():
    g = rng(2)
    vals = g.standard_normal((6, 3))
    A = DenseMatrix(vals)
    cache = build_norm_cache(A)
    x, b, z = g.standard_normal(3), g.standard_normal(6), g.standard_normal(6)
    _, scores = row_scores(A, cache, x, b, z)
    for i in range(6):
        res = b[i] - z[i] - vals[i] @ x
        assert scores[i] == pytest.approx(res**2 / (vals[i] @ vals[i]))


def test_col_scores_identity():
    A = DenseMatrix(np.eye(2))
    _, scores = col_scores(A, build_norm_cache(A), np.array([0.0, 3.0]))
    assert np.array_equal(scores, [0.0, 9.0])


def test_col_scores_perp_range():
    A = DenseMatrix([[1.0], [0.0]])
    _, scores = col_scores(A, build_norm_cache(A), np.array([0.0, 5.0]))
    assert np.allclose(scores, 0.0)


def test_col_scores_naive_loop():
    g = rng(3)
    vals = g.standard_normal((6, 3))
    A = DenseMatrix(vals)
    z = g.standard_normal(6)
    _, scores = col_scores(A, build_norm_cache(A), z)
    for j in range(3):
        assert scores[j] == pytest.approx((vals[:, j] @ z) ** 2 / (vals[:, j] @ vals[:, j]))


def test_zero_norm_rows_scored_zero():
    A = DenseMatrix([[0.0, 0.0], [1.0, 1.0]])
    cache = build_norm_cache(A)
    _, scores = row_scores(A, cache, np.zeros(2), np.array([5.0, 1.0]))
    assert scores[0] == 0.0
    assert scores[1] > 0


def test_greedy_threshold_hand_value():
    A = DenseMatrix(np.eye(2))
    residual_sq, scores = col_scores(A, build_norm_cache(A), np.array([1.0, 0.0]))
    assert greedy_threshold(scores.max(), residual_sq.sum(), 2.0) == pytest.approx(0.75)


def test_greedy_threshold_uniform():
    m = 5
    residual_sq, scores = scores_from_residual(np.ones(m), np.ones(m))
    assert greedy_threshold(scores.max(), residual_sq.sum(), float(m)) == pytest.approx(1.0 / m)


def test_greedy_threshold_formula_oracle():
    g = rng(4)
    res = g.standard_normal(8)
    norms = g.random(8) + 0.5
    residual_sq, scores = scores_from_residual(res, norms)
    frob = norms.sum()
    expected = 0.5 * ((res**2 / norms).max() / np.sum(res**2) + 1.0 / frob)
    assert greedy_threshold(scores.max(), residual_sq.sum(), frob) == pytest.approx(expected, rel=1e-12)


def test_build_index_set_argmax_only():
    A = DenseMatrix(np.eye(2))
    cache = build_norm_cache(A)
    s = row_scores(A, cache, np.zeros(2), np.array([1.0, 0.0]), np.zeros(2))
    assert greedy_set(s, cache).tolist() == [0]


def test_build_index_set_uniform_everything():
    A = DenseMatrix(np.eye(4))
    cache = build_norm_cache(A)
    s = row_scores(A, cache, np.zeros(4), np.ones(4), np.zeros(4))
    assert greedy_set(s, cache).tolist() == [0, 1, 2, 3]


def test_build_index_set_hand_case():
    # scores (4, 1, 1) on unit-norm rows: eps = (4/6 + 1/3)/2 = 1/2, set {0}.
    cache = build_norm_cache(DenseMatrix(np.eye(3)))
    residual_sq, scores = scores_from_residual(np.array([2.0, 1.0, 1.0]), np.ones(3))
    eps = greedy_threshold(scores.max(), residual_sq.sum(), cache.frob_sq)
    assert eps == pytest.approx(0.5)
    assert greedy_set((residual_sq, scores), cache).tolist() == [0]


def test_weighted_pick_singleton():
    residual_sq, _ = scores_from_residual(np.array([0.0, 2.0]), np.ones(2))
    assert weighted_pick(residual_sq, [1], rng()) == 1


def test_weighted_pick_frequency():
    residual_sq, _ = scores_from_residual(np.array([np.sqrt(3.0), 1.0]), np.ones(2))
    g = rng(7)
    draws = sum(weighted_pick(residual_sq, [0, 1], g) == 0 for _ in range(100_000))
    assert abs(draws / 100_000 - 0.75) <= 0.01


def test_weighted_pick_uniform_chi_square():
    residual_sq, _ = scores_from_residual(np.ones(3), np.ones(3))
    g = rng(8)
    counts = np.zeros(3)
    n = 100_000
    for _ in range(n):
        counts[weighted_pick(residual_sq, [0, 1, 2], g)] += 1
    chi2 = np.sum((counts - n / 3) ** 2 / (n / 3))
    assert chi2 <= 9.21  # 99% critical value, 2 degrees of freedom


def test_weighted_pick_norms_frequency():
    cache = build_norm_cache(DenseMatrix(np.diag([np.sqrt(3.0), 1.0])))
    g = rng(9)
    draws = sum(weighted_pick_norms(cache.row_sq_norms, [0, 1], g) == 0 for _ in range(100_000))
    assert abs(draws / 100_000 - 0.75) <= 0.01


def test_weighted_pick_norms_skips_zero_norm():
    cache = build_norm_cache(DenseMatrix([[0.0, 0.0], [1.0, 1.0]]))
    g = rng(10)
    assert all(weighted_pick_norms(cache.row_sq_norms, [0, 1], g) == 1 for _ in range(50))


def test_weighted_picks_draw_as_rng_choice():
    # The picks sample a CDF by hand; they must draw exactly what
    # rng.choice(index_set, p=w / w.sum()) draws from the same stream.
    g = rng(11)
    for seed in range(300):
        size = int(g.integers(1, 40))
        index_set = np.sort(g.choice(100, size=size, replace=False))
        w = np.zeros(100)
        w[index_set] = g.random(size) ** 3
        w[index_set[g.random(size) < 0.2]] = 0.0
        w[index_set[0]] += 1e-3  # keep the total positive
        residual_sq, _ = scores_from_residual(np.sqrt(w), np.ones(100))
        cache = build_norm_cache(DenseMatrix(np.diag(np.sqrt(w))))
        p = w[index_set] / w[index_set].sum()
        for pick in (
            lambda gen: weighted_pick(residual_sq, index_set, gen),
            lambda gen: weighted_pick_norms(cache.row_sq_norms, index_set, gen),
        ):
            mine, ref = rng(seed), rng(seed)
            for _ in range(5):
                assert pick(mine) == int(ref.choice(index_set, p=p))


def test_simple_random_sample_full():
    sample = simple_random_sample(7, 1.0, rng())
    assert sample.tolist() == list(range(7))


def test_simple_random_sample_paper_size():
    sample = simple_random_sample(4000, 0.01, rng(1))
    assert sample.size == 40
    assert np.unique(sample).size == 40


def test_simple_random_sample_frequency():
    pop, frac, reps = 50, 0.2, 10_000
    counts = np.zeros(pop)
    g = rng(11)
    for _ in range(reps):
        counts[simple_random_sample(pop, frac, g)] += 1
    freq = counts / reps
    sigma = np.sqrt(frac * (1 - frac) / reps)
    assert np.all(np.abs(freq - frac) <= 3 * sigma + 1e-9)


def test_top_two_simple():
    _, scores = scores_from_residual(np.sqrt([0.1, 0.9, 0.5]), np.ones(3))
    assert top_two(scores, [0, 1, 2]) == (1, 2)


def test_top_two_tie_rule():
    _, scores = scores_from_residual(np.sqrt([0.5, 0.5]), np.ones(2))
    assert top_two(scores, [0, 1]) == (0, 1)


def test_top_two_sort_oracle():
    g = rng(12)
    scores = g.random(100)
    _, s = scores_from_residual(np.sqrt(scores), np.ones(100))
    order = np.argsort(-scores, kind="stable")
    assert top_two(s, np.arange(100)) == (order[0], order[1])


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(-1e6, 1e6),
            st.floats(1e-6, 1e6),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_greedy_set_nonempty_property(data):
    res = np.array([d[0] for d in data])
    norms = np.array([d[1] for d in data])
    residual_sq, scores = scores_from_residual(res, norms)
    if residual_sq.sum() <= 0:
        return
    cache = build_norm_cache(DenseMatrix(np.sqrt(norms)[:, None]))
    index_set = greedy_set((residual_sq, scores), cache)
    assert index_set.size > 0
    assert int(np.argmax(scores)) in index_set


def test_scores_from_residual_into_buffers_is_bitwise():
    g = rng(12)
    sq_norms = g.random(50) + 0.1
    sq_norms[::7] = 0.0
    positive = sq_norms > 0
    out = (np.empty(50), np.zeros(50))
    for _ in range(3):
        residual = g.standard_normal(50)
        residual_sq, scores = scores_from_residual(residual, sq_norms, out, positive)
        assert residual_sq is out[0] and scores is out[1]
        ref_sq, ref_scores = scores_from_residual(residual, sq_norms)
        assert np.array_equal(residual_sq, ref_sq) and np.array_equal(scores, ref_scores)
        assert np.all(scores[~positive] == 0.0)


def test_top_two_reads_scores_aligned_with_the_domain():
    scores = np.array([0.1, 0.9, 0.5])
    assert top_two(scores, [3, 7, 9]) == (7, 9)
    assert np.array_equal(scores, [0.1, 0.9, 0.5])


class FixedUniform:
    """A stand-in generator whose random() returns the given values in turn."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_pick_from_cdf_skip_never_returns_skip():
    # Uniforms at 0, just below 1 and on every interval edge, over weights
    # whose CDFs have ties and intervals below one ulp.
    g = rng(13)
    for trial in range(200):
        w = g.random(int(g.integers(2, 12))) ** 8
        w[g.random(w.size) < 0.3] *= 1e-18
        w[0] += 1e-3
        cdf = cumulative_weights(w)
        edges = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cdf[:-1]])
        for skip in range(cdf.size):
            width = cdf[skip] - (cdf[skip - 1] if skip else 0.0)
            scaled = edges / (1.0 - width) if width < 1.0 else edges
            us = np.concatenate([edges, scaled, np.nextafter(scaled, 0.0)])
            for u in us[(us >= 0.0) & (us < 1.0)]:
                pick = pick_from_cdf(cdf, FixedUniform([u]), skip)
                assert 0 <= pick < cdf.size and pick != skip


@pytest.mark.parametrize("skip", [0, 2, 4])
def test_pick_from_cdf_skip_is_the_law_of_the_rest(skip):
    # Over an even grid of uniforms, each other position takes its share
    # w_j / (1 - w_skip) of the grid, up to the grid step at its edges.
    w = np.array([0.3, 0.05, 0.25, 0.1, 0.3])
    cdf = cumulative_weights(w)
    grid = (np.arange(100_000) + 0.5) / 100_000
    counts = np.bincount(
        [pick_from_cdf(cdf, FixedUniform([u]), skip) for u in grid], minlength=w.size
    )
    assert counts[skip] == 0
    expected = np.delete(w, skip) / (1.0 - w[skip]) * grid.size
    assert np.all(np.abs(np.delete(counts, skip) - expected) <= 2)


def test_pick_from_cdf_first_pick_is_rng_choice():
    g = rng(14)
    w = g.random(30)
    for seed in range(50):
        mine, ref = rng(seed), rng(seed)
        assert pick_from_cdf(cumulative_weights(w), mine) == int(ref.choice(30, p=w / w.sum()))
