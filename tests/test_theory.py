import tracemalloc

import numpy as np
import pytest

from rekbench import theory
from rekbench.linalg import (
    DenseMatrix,
    DualSparseMatrix,
    OracleTooLargeError,
    build_norm_cache,
    direct_least_squares,
    gram_extreme_eigenvalues,
)
from rekbench.problems import LsProblem, gen_gaussian, make_inconsistent_problem
from rekbench.solvers import SolverKind, SolverState, StopConfig, build_caches, step
from rekbench.theory import compute_constants, empirical_contraction, rates_all
from rekbench.updates import pair_geometry_from


def constants_for(values):
    A = DenseMatrix(values)
    cache = build_norm_cache(A)
    return A, cache, compute_constants(A)


def test_constants_identity():
    _, _, c = constants_for(np.eye(3))
    assert c.delta == 0.0
    assert c.Delta == 0.0
    assert c.D == 0.0
    assert not c.rows_have_parallel_pair


def test_constants_hand_pair():
    _, _, c = constants_for([[1.0, 0.0], [1 / np.sqrt(2), 1 / np.sqrt(2)]])
    assert c.delta == pytest.approx(1 / np.sqrt(2))
    assert c.Delta == pytest.approx(1 / np.sqrt(2))


def naive_coherence(vals):
    """(min, max) |cos angle| over every pair of distinct nonzero rows, one pair at a time."""
    lines = [v for v in vals if np.any(v)]
    coh = []
    for i1, u in enumerate(lines):
        for i2, v in enumerate(lines):
            if i1 != i2:
                coh.append(abs(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    return min(coh), max(coh)


def test_constants_naive_pairwise_oracle():
    g = np.random.Generator(np.random.Philox(1))
    vals = g.standard_normal((30, 10))
    holed = vals.copy()
    holed[4] = 0.0
    holed[:, 7] = 0.0
    i, j = np.nonzero(holed)
    sparse = DualSparseMatrix(30, 10, i, j, holed[i, j])
    for A, dense in ((DenseMatrix(vals), vals), (DenseMatrix(holed), holed), (sparse, holed)):
        c = compute_constants(A)
        assert (c.delta, c.Delta) == pytest.approx(naive_coherence(dense), rel=1e-12)
        assert (c.delta_t, c.Delta_t) == pytest.approx(naive_coherence(dense.T), rel=1e-12)
        frob_sq = np.sum(dense**2)
        row_sq = np.sum(dense**2, axis=1)
        row_sq = row_sq[row_sq > 0]
        assert c.tau_max == pytest.approx(frob_sq - row_sq.min(), rel=1e-12)
        assert c.tau_min == pytest.approx(frob_sq - row_sq.max(), rel=1e-12)
        assert c.t == pytest.approx(row_sq.min(), rel=1e-12)


def test_constants_parallel_pair_flagged():
    _, _, c = constants_for([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    assert c.Delta == pytest.approx(1.0)
    assert c.rows_have_parallel_pair


@pytest.mark.parametrize("sin_sq", [0.5e-12, 1.5e-12, 3e-12])
def test_parallel_flag_agrees_with_the_pair_kernel(sin_sq):
    # At sin^2 = 1.5e-12, Delta >= 1 - 1e-12 but 1 - Delta^2 > PARALLEL_TOL.
    A, cache, c = constants_for([[1.0, 0.0], [np.sqrt(1 - sin_sq), np.sqrt(sin_sq)], [0.0, 1.0]])
    geo = pair_geometry_from(A.row_pair_dot(0, 1), cache.row_sq_norms[0], cache.row_sq_norms[1])
    assert geo.parallel == (sin_sq < 1e-12)
    assert c.rows_have_parallel_pair == geo.parallel
    assert not c.cols_have_parallel_pair


def test_constants_strict_bound_without_parallel_rows():
    for seed in range(5):
        _, _, c = constants_for(gen_gaussian(15, 6, seed).values)
        assert 0 <= c.delta <= c.Delta < 1
        assert 0 <= c.D < 1


def test_constants_scan_exactly_up_to_the_oracle_cap():
    # 4001 rows: past the old 4000-line pairwise-scan cap, within the oracle cap.
    compute_constants(gen_gaussian(4001, 3, 1))
    rows = np.arange(5001)
    A = DualSparseMatrix(5001, 3, rows, rows % 3, np.ones(5001))
    with pytest.raises(OracleTooLargeError):
        compute_constants(A)


def test_coherence_scan_normalizes_one_copy_in_place():
    # The columns of a 2000x500 array: one normalized 500x2000 copy plus a
    # 256x500 block of products, about 1.25 times the array's bytes (a
    # normalized copy of a copy took 2).
    values = gen_gaussian(2000, 500, 1).values
    tracemalloc.start()
    try:
        theory._coherence_extremes(values.T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * values.nbytes


def test_constants_past_oracle_cap_refused_before_scans(monkeypatch):
    scans = []

    def scan(*args):
        scans.append(args)
        return 0.0, 0.0

    monkeypatch.setattr(theory, "_coherence_extremes", scan)
    rows = np.arange(6000)
    A = DualSparseMatrix(6000, 10, rows, rows % 10, np.ones(6000))
    with pytest.raises(OracleTooLargeError):
        compute_constants(A)
    assert scans == []


@pytest.mark.parametrize("shape", [(40, 12), (12, 40)])
def test_oracles_give_the_same_bits_on_a_write_protected_array(shape):
    g = np.random.Generator(np.random.Philox(shape[0]))
    vals = g.standard_normal(shape)
    b = g.standard_normal(shape[0])
    writable = DenseMatrix(vals.copy())
    vals.flags.writeable = False
    frozen = DenseMatrix(vals)
    assert not frozen.values.flags.writeable
    assert direct_least_squares(frozen, b).tobytes() == direct_least_squares(writable, b).tobytes()
    assert gram_extreme_eigenvalues(frozen) == gram_extreme_eigenvalues(writable)
    assert compute_constants(frozen) == compute_constants(writable)


def test_oracles_densify_a_sparse_matrix_once_and_a_dense_one_never(monkeypatch):
    densified = []
    for cls in (DenseMatrix, DualSparseMatrix):
        monkeypatch.setattr(cls, "to_dense", lambda A, f=cls.to_dense: densified.append(A) or f(A))
    A = gen_gaussian(30, 10, 1)
    direct_least_squares(A, np.ones(30))
    gram_extreme_eigenvalues(A)
    compute_constants(A)
    assert densified == []
    rows = np.arange(30)
    S = DualSparseMatrix(30, 10, rows, rows % 10, 1.0 + rows)
    compute_constants(S)
    assert densified == [S]


def test_rate_thm1_identity_2():
    _, _, c = constants_for(np.eye(2))
    assert rates_all(c).thm1_beta == pytest.approx(0.25)


def test_rate_thm1_identity_3():
    _, _, c = constants_for(np.eye(3))
    assert rates_all(c).thm1_beta == pytest.approx(7 / 12)


def test_rate_thm1_formula_oracle():
    A = gen_gaussian(20, 5, 4)
    cache = build_norm_cache(A)
    c = compute_constants(A)
    expected = 1 - 0.5 * (cache.frob_sq / c.tau_t_max + 1) * c.lambda_min / cache.frob_sq
    assert rates_all(c).thm1_beta == pytest.approx(expected, rel=1e-14)


def test_rate_thm1_single_column_degenerate():
    _, _, c = constants_for([[1.0], [2.0]])
    assert c.tau_t_max == 0.0
    assert rates_all(c).thm1_beta == 0.0


def test_rates_identity_2():
    _, _, c = constants_for(np.eye(2))
    rates = rates_all(c)
    assert rates.thm4_alpha_hat == 0.0
    assert rates.thm4_beta_hat == 0.0
    # Orthogonal rows push the formula below zero: clamped and flagged.
    assert rates.thm7_alpha1 == 0.0
    assert "thm7_alpha1" in rates.vacuous
    assert rates.raw["thm7_alpha1"] == pytest.approx(-0.5)


def test_rates_formula_oracle():
    A = gen_gaussian(20, 5, 5)
    cache = build_norm_cache(A)
    c = compute_constants(A)
    rates = rates_all(c)
    frob_sq = cache.frob_sq
    assert rates.thm2_alpha == pytest.approx(
        1 - 0.5 * (frob_sq / c.tau_max + 1) * c.lambda_min / frob_sq, rel=1e-14
    )
    assert rates.thm2_prefactor == pytest.approx(1 + 2 * frob_sq / c.t, rel=1e-14)
    assert rates.thm3_beta_hat == pytest.approx(1 - c.lambda_min / c.tau_t_max, rel=1e-14)
    assert rates.thm4_prefactor == pytest.approx(1 + 2 * c.tau_max / c.t, rel=1e-14)
    assert rates.thm7_alpha1 == pytest.approx(
        1 - (1 / (1 + c.Delta)) * (frob_sq / c.tau_max + 1) * c.lambda_min / frob_sq,
        rel=1e-14,
    )
    assert rates.thm8_alpha1_t is None  # needs an empirical (c, omega)


def test_rates_thm8_with_supplied_constants():
    A = gen_gaussian(20, 5, 6)
    c = compute_constants(A)
    rates = rates_all(c, c_omega_rows=(2.0, 0.5))
    expected = (
        1
        - c.lambda_min / c.tau_max
        - (c.lambda_min / c.tau_max) * (0.5 / (4.0 * (1 - c.delta**2)))
    )
    assert rates.raw["thm8_alpha1_t"] == pytest.approx(expected, rel=1e-12)


def test_empirical_contraction_sproj_identity():
    A = DenseMatrix(np.eye(2))
    problem = LsProblem(A=A, b=np.array([0.6, 0.0]), r=np.zeros(2))
    means, _ = empirical_contraction(SolverKind.SPROJ, problem, 1, 1)
    assert means[0] == pytest.approx(0.0, abs=1e-25)


def test_empirical_contraction_gproj_vs_thm1():
    A = gen_gaussian(40, 20, 42)
    problem = make_inconsistent_problem(A, 42)
    bound = rates_all(compute_constants(A)).thm1_beta
    means, errs = empirical_contraction(SolverKind.GPROJ, problem, 100, 15, seed=9)
    assert np.all((means <= bound + 3 * errs) | np.isnan(means))


def test_empirical_contraction_sproj_pathwise_thm3():
    A = gen_gaussian(40, 20, 42)
    problem = make_inconsistent_problem(A, 42)
    rates = rates_all(compute_constants(A))
    means, _ = empirical_contraction(SolverKind.SPROJ, problem, 1, 20, seed=9)
    assert np.all((means <= rates.thm3_beta_hat + 1e-12) | np.isnan(means))


def _mean_final_error_sq(kind, problem, trials, steps, seed):
    caches = build_caches(problem.A, kind)
    config = StopConfig()
    finals = []
    for trial in range(trials):
        state = SolverState.initial(kind, problem, seed=seed + trial)
        for _ in range(steps):
            step(state, problem, caches, config)
        finals.append(float(np.sum((state.x - problem.x_star) ** 2)))
    return np.mean(finals), np.std(finals, ddof=1) / np.sqrt(trials)


@pytest.mark.parametrize(
    "kind,rate_name,prefactor_name",
    [
        (SolverKind.GREK, "thm2_alpha", "thm2_prefactor"),
        (SolverKind.SREK, "thm4_alpha_hat", "thm4_prefactor"),
        (SolverKind.TGREK, "thm7_alpha1", "thm4_prefactor"),
    ],
)
def test_global_error_bounds(kind, rate_name, prefactor_name):
    A = gen_gaussian(30, 8, 17)
    problem = make_inconsistent_problem(A, 17)
    rates = rates_all(compute_constants(A))
    rate = getattr(rates, rate_name)
    prefactor = getattr(rates, prefactor_name)
    steps = 12
    mean, stderr = _mean_final_error_sq(kind, problem, 60, steps, 23)
    x_star_sq = float(problem.x_star @ problem.x_star)
    bound = rate ** (steps // 2) * prefactor * x_star_sq
    assert mean <= bound + 3 * stderr


def test_empirical_contraction_requires_x_star_for_consistent():
    problem = LsProblem(A=gen_gaussian(6, 3, 1), b=np.ones(6))
    with pytest.raises(ValueError):
        empirical_contraction(SolverKind.RK, problem, 2, 2)
