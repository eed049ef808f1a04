import copy
import math
import pickle

import numpy as np
import pytest

from rekbench import solvers
from rekbench.linalg import DenseMatrix, DualSparseMatrix, direct_least_squares
from rekbench.problems import (
    LsProblem,
    gen_gaussian,
    make_consistent_problem,
    make_inconsistent_problem,
    project_off_range,
)
from rekbench.solvers import (
    CONSISTENT_KINDS,
    EXTENDED_KINDS,
    METHODS,
    PROJECTION_KINDS,
    SAMPLING_KINDS,
    SolverKind,
    SolverState,
    StopConfig,
    build_caches,
    converged,
    rse,
    solve,
    step,
    stopping_bounds,
)

ALL_KINDS = list(SolverKind)


def check_norms(state, problem):
    """The (primary, dual) norms that solve's check takes, after it refreshes r and s."""
    return solvers._check(state, problem)[1:3]


def consistent_problem(m, n, seed):
    A = gen_gaussian(m, n, seed)
    g = np.random.Generator(np.random.Philox(seed + 1))
    b = A.matvec(g.standard_normal(n))
    return LsProblem(A=A, b=b, x_star=direct_least_squares(A, b), r=np.zeros(m))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_step_noop_on_zero_rhs(kind):
    A = gen_gaussian(6, 4, 0)
    problem = LsProblem(A=A, b=np.zeros(6))
    caches = build_caches(A, kind)
    state = SolverState.initial(kind, problem, seed=1)
    step(state, problem, caches, StopConfig())
    assert state.k == 1
    if state.x is not None:
        assert np.array_equal(state.x, np.zeros(4))
    if state.z is not None:
        assert np.array_equal(state.z, np.zeros(6))


def test_rek_identity_converges():
    A = DenseMatrix(np.eye(2))
    b = np.array([0.3, -0.8])
    problem = LsProblem(A=A, b=b)
    rec = solve(SolverKind.REK, problem, StopConfig(tol=1e-6), seed=5)
    assert rec.converged
    assert np.linalg.norm(b) * 1e-5 >= abs(rec.final_primary_residual)


def test_srek_step_bitwise_deterministic():
    problem = make_inconsistent_problem(gen_gaussian(10, 4, 3), 3)
    caches = build_caches(problem.A, SolverKind.SREK)
    runs = []
    for _ in range(2):
        state = SolverState.initial(SolverKind.SREK, problem, seed=0)
        for _ in range(25):
            step(state, problem, caches, StopConfig())
        runs.append(state.x.copy())
    assert np.array_equal(runs[0], runs[1])


def test_converged_at_exact_solution():
    problem = make_inconsistent_problem(gen_gaussian(12, 5, 4), 4)
    caches = build_caches(problem.A, SolverKind.REK)
    state = SolverState.initial(SolverKind.REK, problem, seed=0)
    state.x = problem.x_star.copy()
    state.z = problem.r.copy()
    assert converged(state, problem, caches, StopConfig(tol=1e-8), check_norms(state, problem))


class CountingMatrix(DenseMatrix):
    """A dense matrix that counts its products while counting is on."""

    def __init__(self, values):
        super().__init__(values)
        self.counting = True
        self.calls = {"matvec": 0, "rmatvec": 0}

    def matvec(self, x):
        self.calls["matvec"] += self.counting
        return super().matvec(x)

    def rmatvec(self, z):
        self.calls["rmatvec"] += self.counting
        return super().rmatvec(z)


@pytest.mark.parametrize("known_solution", [False, True])
def test_solve_forms_fresh_residuals_once_per_check(monkeypatch, known_solution):
    base = make_inconsistent_problem(gen_gaussian(40, 10, 3), 3)
    A = CountingMatrix(base.A.values)
    # The RSE column of the history needs no product, with or without x_star.
    reference = {"x_star": base.x_star, "r": base.r} if known_solution else {}
    problem = LsProblem(A=A, b=base.b, **reference)
    original_step = solvers.step

    def uncounted_step(*args):
        A.counting = False
        try:
            original_step(*args)
        finally:
            A.counting = True

    monkeypatch.setattr(solvers, "step", uncounted_step)
    config = StopConfig(tol=1e-30, check_every=10, max_iters=100)
    rec = solve(SolverKind.SREK, problem, config, seed=0)
    assert rec.iters == 100 and not rec.converged
    assert len(rec.history) == 10
    rses = [row[3] for row in rec.history]
    assert all(math.isfinite(v) if known_solution else math.isnan(v) for v in rses)
    # One A x and one A^T z per check; the initial s = -A^T b is the extra rmatvec.
    assert A.calls == {"matvec": 10, "rmatvec": 11}


@pytest.mark.parametrize("tol, max_iters", [(1e-30, 100), (1e-5, 1000)])
def test_solve_takes_the_norms_once_per_check(monkeypatch, tol, max_iters):
    problem = make_inconsistent_problem(gen_gaussian(40, 10, 3), 3)
    original_check, original_converged = solvers._check, solvers.converged
    norm_calls, checks = [], []

    def counted_check(state, problem):
        norm_calls.append(state.k)
        return original_check(state, problem)

    def checked_converged(state, problem, caches, config, norms):
        decision = original_converged(state, problem, caches, config, norms)
        # The pair handed in is that of the fresh residuals of x and z, and
        # stops the run as they would.
        A, b = problem.A, problem.b
        fresh = tuple(
            float(np.linalg.norm(v)) for v in (b - state.z - A.matvec(state.x), A.rmatvec(state.z))
        )
        assert norms == fresh
        assert decision == original_converged(state, problem, caches, config, fresh)
        checks.append((state.k, *norms))
        return decision

    monkeypatch.setattr(solvers, "_check", counted_check)
    monkeypatch.setattr(solvers, "converged", checked_converged)
    config = StopConfig(tol=tol, check_every=10, max_iters=max_iters)
    rec = solve(SolverKind.SREK, problem, config, seed=0)
    # 100 steps at tol 1e-30 take 10 checks; tol 1e-5 stops before the cap.
    assert rec.converged == (rec.iters < max_iters) == (tol == 1e-5)
    assert norm_calls == [row[0] for row in rec.history] == list(range(10, rec.iters + 1, 10))
    assert [row[:3] for row in rec.history] == checks
    assert (rec.final_primary_residual, rec.final_dual_residual) == checks[-1][1:]


def test_converged_at_zero_x_scales_by_b():
    problem = make_inconsistent_problem(gen_gaussian(12, 5, 4), 4)
    caches = build_caches(problem.A, SolverKind.REK)
    state = SolverState.initial(SolverKind.REK, problem, seed=0)
    # x = 0, z = b: the primary residual is 0 and the dual one is |A^T b|.
    b_norm = np.linalg.norm(problem.b)
    dual = np.linalg.norm(problem.A.rmatvec(problem.b))
    frob = np.sqrt(caches.norms.frob_sq)
    norms = check_norms(state, problem)
    for tol in (1e-5, 0.5 * dual / (frob * b_norm), 2.0 * dual / (frob * b_norm), 1e9):
        expect = dual <= tol * frob * b_norm
        assert converged(state, problem, caches, StopConfig(tol=tol), norms) == expect
    assert not converged(state, problem, caches, StopConfig(tol=1e-5), norms)


def test_grek_stops_at_zero_solution():
    # b is orthogonal to range(A), so x_star = 0 and z = b from the start.
    A = DenseMatrix(np.vstack([np.eye(3), np.zeros((2, 3))]))
    problem = LsProblem(A=A, b=np.array([0.0, 0.0, 0.0, 1.0, 2.0]))
    rec = solve(SolverKind.GREK, problem, StopConfig(), seed=0)
    assert rec.converged
    assert rec.iters == 3  # the first check, at min(m, n) steps
    assert rec.final_primary_residual == 0.0
    assert rec.final_dual_residual == 0.0


def _off_range_problem(b):
    """A 5x3 problem whose b has no component in range(A) = span(e1, e2, e3): x_star = 0."""
    return LsProblem(A=DenseMatrix(np.vstack([np.eye(3), np.zeros((2, 3))])), b=np.array(b))


# name: (problem, steps before the check)
CONVERGED_CASES = {
    "stepped": (lambda: make_inconsistent_problem(gen_gaussian(12, 5, 6), 6), 30),
    # At the start x = 0, and z = b leaves s = -A^T b = 0.
    "b-off-range": (lambda: _off_range_problem([0.0, 0.0, 0.0, 1.0, 2.0]), 0),
    # At the start x = 0 and z = 0.
    "b-zero": (lambda: _off_range_problem(np.zeros(5)), 0),
}


@pytest.mark.parametrize("kind", [SolverKind.REK, SolverKind.RK, SolverKind.GPROJ])
def test_converged_matches_hand_formula(kind):
    for case, (make, steps) in CONVERGED_CASES.items():
        problem = make()
        caches = build_caches(problem.A, kind)
        state = SolverState.initial(kind, problem, seed=0)
        for _ in range(steps):
            step(state, problem, caches, StopConfig())
        norms = check_norms(state, problem)
        A, b = problem.A, problem.b
        frob = np.sqrt(caches.norms.frob_sq)
        outcomes = set()
        for tol in (1e-12, 1e-3, 1e-1, 1e2):
            if kind in PROJECTION_KINDS:
                bounds = (math.inf, tol * frob**2 * np.linalg.norm(state.z))
                expect = np.linalg.norm(A.rmatvec(state.z)) <= bounds[1]
            else:
                # ||b|| stands in for ||A||_F ||x|| at x = 0.
                x_norm = np.linalg.norm(state.x)
                size = frob * x_norm if x_norm else np.linalg.norm(b)
                bounds = (tol * size, tol * frob * size)
                z = 0.0 if kind in CONSISTENT_KINDS else state.z
                expect = np.linalg.norm(b - z - A.matvec(state.x)) <= bounds[0]
                if kind in EXTENDED_KINDS:
                    expect = expect and np.linalg.norm(A.rmatvec(state.z)) <= bounds[1]
            got = stopping_bounds(state, problem, caches.norms.frob_sq, tol)
            assert got == pytest.approx(bounds, rel=1e-14, abs=0.0), case
            outcome = converged(state, problem, caches, StopConfig(tol=tol), norms)
            assert outcome == expect, case
            outcomes.add(outcome)
        if case == "stepped":
            assert outcomes == {True, False}
        elif kind is not SolverKind.RK:
            # s = 0, and x = 0 leaves r = b - z = 0: a zero bound is met too.
            assert outcomes == {True}, case


def test_rse_values():
    x_star = np.array([1.0, 2.0])
    assert rse(x_star, x_star) == 0.0
    assert rse(np.zeros(2), x_star) == 1.0
    assert rse(2 * x_star, x_star) == 1.0
    with pytest.raises(ValueError):
        rse(x_star, np.zeros(2))


def test_solve_tsrek_oracle():
    problem = make_inconsistent_problem(gen_gaussian(200, 50, 7), 7)
    rec = solve(SolverKind.TSREK, problem, StopConfig(tol=1e-9, max_iters=25_000), seed=1)
    assert rec.converged
    assert rec.final_rse <= 1e-8


def test_solve_gproj_matches_range_split():
    problem = make_inconsistent_problem(gen_gaussian(40, 10, 8), 8)
    rec = solve(SolverKind.GPROJ, problem, StopConfig(tol=1e-8), seed=2)
    assert rec.converged
    # Re-run the iteration to inspect the final z.
    caches = build_caches(problem.A, SolverKind.GPROJ)
    state = SolverState.initial(SolverKind.GPROJ, problem, seed=2)
    for _ in range(rec.iters):
        step(state, problem, caches, StopConfig())
    b_perp = project_off_range(problem.A, problem.b)
    assert np.linalg.norm(state.z - b_perp) / np.linalg.norm(problem.b) <= 1e-4


def test_solve_max_iters_zero():
    problem = make_inconsistent_problem(gen_gaussian(10, 4, 9), 9)
    for kind in (SolverKind.GREK, SolverKind.RK, SolverKind.GPROJ):
        rec = solve(kind, problem, StopConfig(max_iters=0), seed=0)
        assert rec.iters == 0
        assert not rec.converged  # x = 0, z = b, and A^T b is not small
        # One check, at 0 steps: r = b - z is 0 with z = b and b without z,
        # s = -A^T b, and x = 0 has rse 1; nan where the kind has no r, s or x.
        method = METHODS[kind]
        b_norm = 0.0 if method.cols else float(np.linalg.norm(problem.b))
        primary = b_norm if method.rows else math.nan
        dual = float(np.linalg.norm(problem.A.rmatvec(problem.b))) if method.cols else math.nan
        row = (0, primary, dual, 1.0 if method.rows else math.nan)
        assert np.array_equal(rec.history, [row], equal_nan=True)
        final = (rec.final_primary_residual, rec.final_dual_residual)
        assert np.array_equal(final, row[1:3], equal_nan=True)
        assert rec.final_rse == (1.0 if method.rows else None)


def test_solve_records_history():
    problem = make_inconsistent_problem(gen_gaussian(20, 6, 10), 10)
    rec = solve(SolverKind.GREK, problem, StopConfig(tol=1e-8, check_every=6), seed=0)
    assert rec.history
    steps = [row[0] for row in rec.history]
    assert steps == sorted(steps)
    assert all(k % 6 == 0 for k in steps[:-1])
    rses = [row[3] for row in rec.history]
    assert rses[-1] <= 1e-8


def test_solve_history_ends_at_the_final_check():
    problem = make_inconsistent_problem(gen_gaussian(20, 6, 10), 10)
    rec = solve(SolverKind.REK, problem, StopConfig(), seed=0)
    assert rec.history[-1] == (
        rec.iters, rec.final_primary_residual, rec.final_dual_residual, rec.final_rse
    )


@pytest.mark.parametrize("kind", sorted(EXTENDED_KINDS))
def test_iterates_stay_in_row_space(kind):
    problem = make_inconsistent_problem(gen_gaussian(15, 6, 11), 11)
    caches = build_caches(problem.A, kind)
    dense = problem.A.to_dense()
    proj = np.linalg.pinv(dense) @ dense  # projector onto the row space
    state = SolverState.initial(kind, problem, seed=4)
    for _ in range(40):
        step(state, problem, caches, StopConfig(fraction=0.25))
    x_norm = np.linalg.norm(state.x)
    if x_norm > 0:
        assert np.linalg.norm(state.x - proj @ state.x) <= 1e-8 * x_norm


@pytest.mark.parametrize("kind", sorted(CONSISTENT_KINDS))
def test_consistent_error_monotone(kind):
    problem = consistent_problem(25, 8, 12)
    caches = build_caches(problem.A, kind)
    state = SolverState.initial(kind, problem, seed=6)
    prev = np.linalg.norm(state.x - problem.x_star)
    for _ in range(60):
        step(state, problem, caches, StopConfig(fraction=0.25))
        cur = np.linalg.norm(state.x - problem.x_star)
        assert cur <= prev * (1 + 1e-12)
        prev = cur


@pytest.mark.parametrize("kind", sorted(EXTENDED_KINDS | PROJECTION_KINDS))
def test_z_error_monotone(kind):
    problem = make_inconsistent_problem(gen_gaussian(18, 7, 13), 13)
    caches = build_caches(problem.A, kind)
    state = SolverState.initial(kind, problem, seed=7)
    prev = np.linalg.norm(state.z - problem.r)
    for _ in range(60):
        step(state, problem, caches, StopConfig(fraction=0.25))
        cur = np.linalg.norm(state.z - problem.r)
        assert cur <= prev * (1 + 1e-12)
        prev = cur


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fixed_seed_bitwise_reproducible(kind):
    problem = make_inconsistent_problem(gen_gaussian(16, 6, 14), 14)
    recs = [
        solve(kind, problem, StopConfig(tol=1e-6, max_iters=300), seed=11)
        for _ in range(2)
    ]
    assert recs[0].iters == recs[1].iters
    assert np.array_equal(
        [recs[0].final_primary_residual], [recs[1].final_primary_residual], equal_nan=True
    )
    assert np.array_equal(recs[0].history, recs[1].history, equal_nan=True)


def test_incremental_residuals_match_fresh():
    problem = make_inconsistent_problem(gen_gaussian(20, 8, 15), 15)
    caches = build_caches(problem.A, SolverKind.TGREK)
    state = SolverState.initial(SolverKind.TGREK, problem, seed=3)
    for _ in range(50):
        step(state, problem, caches, StopConfig())
    fresh_r = problem.b - state.z - problem.A.matvec(state.x)
    fresh_s = -problem.A.rmatvec(state.z)
    scale = max(np.linalg.norm(problem.b), 1.0)
    assert np.linalg.norm(state.r - fresh_r) <= 1e-9 * scale
    assert np.linalg.norm(state.s - fresh_s) <= 1e-9 * scale * np.sqrt(caches.norms.frob_sq)


def _upkeep_matrix(shape):
    g = np.random.Generator(np.random.Philox(17))
    if shape == "tall":
        return DenseMatrix(g.standard_normal((40, 12)))
    if shape == "wide":
        return DenseMatrix(g.standard_normal((12, 40)))
    if shape == "square":
        return DenseMatrix(g.standard_normal((20, 20)))
    vals = np.where(g.random((40, 20)) < 0.3, g.standard_normal((40, 20)), 0.0)
    i, j = np.nonzero(vals)
    return DualSparseMatrix(40, 20, i, j, vals[i, j])


WHOLE_AXIS_RULES = ("greedy", "argmax")


def _keeps(kind, shape):
    """(keeps r, keeps s) on an _upkeep_matrix shape: a whole-axis rule, or a Gram axis."""
    method = METHODS[kind]
    whole = method.rule in WHOLE_AXIS_RULES
    return (
        method.rows and (whole or shape == "wide"),
        method.cols and (whole or shape in ("tall", "square")),
    )


@pytest.mark.parametrize("shape", ["tall", "wide", "square", "sparse"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_maintained_residuals_match_fresh(kind, shape):
    A = _upkeep_matrix(shape)
    problem = make_inconsistent_problem(A, 18)
    caches = build_caches(A, kind)
    state = SolverState.initial(kind, problem, seed=5)
    for _ in range(200):
        step(state, problem, caches, StopConfig(fraction=0.25))
    x_norm = 0.0 if state.x is None else np.linalg.norm(state.x)
    bound = 4 * np.finfo(float).eps * caches.norms.frob_sq * (x_norm + np.linalg.norm(problem.b))
    keeps_r, keeps_s = _keeps(kind, shape)
    if keeps_r:
        fresh_r = problem.b - A.matvec(state.x)
        if state.z is not None:
            fresh_r -= state.z
        assert np.linalg.norm(state.r - fresh_r) <= bound
    if keeps_s:
        assert np.linalg.norm(state.s + A.rmatvec(state.z)) <= bound


@pytest.mark.parametrize("shape", ["tall", "wide", "square", "sparse"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gram_only_for_a_maintained_short_axis(kind, shape):
    A = _upkeep_matrix(shape)
    caches = build_caches(A, kind)
    keeps_r = kind not in PROJECTION_KINDS
    keeps_s = kind not in CONSISTENT_KINDS
    # A square A ties, and the tie goes to the columns.
    if shape in ("tall", "square"):
        assert caches.rows.gram is None
        assert (caches.cols.gram is not None) == keeps_s
        if keeps_s:
            assert np.allclose(caches.cols.gram, A.values.T @ A.values)
    elif shape == "wide":
        assert caches.cols.gram is None
        assert (caches.rows.gram is not None) == keeps_r
        if keeps_r:
            assert np.allclose(caches.rows.gram, A.values @ A.values.T)
    else:
        assert caches.rows.gram is None and caches.cols.gram is None
    assert (caches.rows.kept, caches.cols.kept) == _keeps(kind, shape)


ON_DEMAND = [
    (kind, shape)
    for kind in ALL_KINDS
    for shape in ("tall", "wide", "sparse")
    if _keeps(kind, shape) != (METHODS[kind].rows, METHODS[kind].cols)
]


def _poisoned_solve(monkeypatch, kind, problem, config, poison):
    """solve(), with every unkept residual set to NaN before each step when poison is set."""
    original_step = solvers.step

    def poisoning_step(state, *args):
        for name, keeps in zip(("r", "s"), poison):
            if getattr(state, name) is not None and not keeps:
                setattr(state, name, np.full_like(getattr(state, name), np.nan))
        original_step(state, *args)

    monkeypatch.setattr(solvers, "step", poisoning_step)
    rec = solve(kind, problem, config, seed=4)
    monkeypatch.setattr(solvers, "step", original_step)
    return rec


@pytest.mark.parametrize("kind, shape", ON_DEMAND)
def test_unkept_residuals_are_never_read_between_checks(monkeypatch, kind, shape):
    problem = make_inconsistent_problem(_upkeep_matrix(shape), 18)
    config = StopConfig(tol=1e-8, check_every=7, max_iters=700, fraction=0.25)
    plain = _poisoned_solve(monkeypatch, kind, problem, config, (True, True))
    rec = _poisoned_solve(monkeypatch, kind, problem, config, _keeps(kind, shape))
    assert rec.iters == plain.iters and rec.iters > config.check_every
    assert rec.converged == plain.converged
    # Each check refreshes r and g, so the final residuals are fresh too.
    assert (rec.final_primary_residual, rec.final_dual_residual) == (
        plain.final_primary_residual,
        plain.final_dual_residual,
    )
    for name in ("x", "z"):
        assert np.array_equal(getattr(rec, name), getattr(plain, name))


@pytest.mark.parametrize("kind", [SolverKind.REK, SolverKind.RK, SolverKind.GPROJ])
def test_solve_returns_the_iterates_of_its_last_check(kind):
    problem = make_inconsistent_problem(gen_gaussian(40, 10, 3), 3)
    rec = solve(kind, problem, StopConfig(check_every=10, max_iters=200), seed=0)
    assert (rec.x is not None, rec.z is not None) == (METHODS[kind].rows, METHODS[kind].cols)
    # The last history row was taken from these very iterates.
    if rec.x is not None:
        assert rse(rec.x, problem.x_star) == rec.final_rse
    if rec.z is not None:
        assert float(np.linalg.norm(problem.A.rmatvec(rec.z))) == rec.final_dual_residual


@pytest.mark.parametrize("kind", [SolverKind.REK, SolverKind.RK, SolverKind.TSREKS])
def test_on_demand_kinds_form_products_only_at_checks(kind):
    # Tall dense: rows on demand; g, where the kind has it, kept through A^T A.
    base = make_inconsistent_problem(gen_gaussian(40, 10, 3), 3)
    A = CountingMatrix(base.A.values)
    problem = LsProblem(A=A, b=base.b, x_star=base.x_star, r=base.r)
    config = StopConfig(tol=1e-30, check_every=10, max_iters=100, fraction=0.25)
    rec = solve(kind, problem, config, seed=0)
    assert rec.iters == 100 and not rec.converged
    # One A x per check; one A^T z per check plus the initial g = A^T b.
    assert A.calls == {"matvec": 10, "rmatvec": 11 if METHODS[kind].cols else 0}


def test_sparse_and_dense_agree_for_srek():
    g = np.random.Generator(np.random.Philox(16))
    dense_vals = np.where(g.random((12, 6)) < 0.5, g.standard_normal((12, 6)), 0.0)
    dense_vals[0, 0] = 1.0  # keep at least one entry
    A_dense = DenseMatrix(dense_vals)
    i, j = np.nonzero(dense_vals)
    A_sparse = DualSparseMatrix(12, 6, i, j, dense_vals[i, j])
    b = g.standard_normal(12)
    results = []
    for A in (A_dense, A_sparse):
        problem = LsProblem(A=A, b=b)
        caches = build_caches(A, SolverKind.SREK)
        state = SolverState.initial(SolverKind.SREK, problem, seed=0)
        for _ in range(30):
            step(state, problem, caches, StopConfig())
        results.append(state.x.copy())
    assert np.allclose(results[0], results[1], atol=1e-10)


KIND_NAMES = ["REK", "TREK_ALT", "TREKS", "GREK", "SREK", "TGREK", "TSREK", "TSREKS"]
KIND_NAMES += ["RK", "TRKS", "TGRK", "TSRK", "TSRKS", "GPROJ", "SPROJ"]


def test_every_kind_has_one_method_row():
    # RNG tags and bench cell seeds are built from kind.value, in this order.
    assert [k.value for k in SolverKind] == KIND_NAMES
    assert all(isinstance(k, str) and k.name == k.value for k in SolverKind)
    assert SolverKind("TSREKS") is SolverKind.TSREKS
    assert all(pickle.loads(pickle.dumps(k)) is k and copy.deepcopy(k) is k for k in SolverKind)
    assert list(METHODS) == list(SolverKind)
    rules = {"norm", "norm_sample", "greedy", "argmax", "top_sample"}
    assert all(m.rule in rules and (m.rows or m.cols) for m in METHODS.values())
    A = gen_gaussian(6, 4, 0)
    for kind, method in METHODS.items():
        caches = build_caches(A, kind)
        rows, cols = caches.rows, caches.cols
        plans = {(True, True): (rows, cols), (True, False): (rows,), (False, True): (cols,)}
        assert caches.axes == plans[method.rows, method.cols] and rows.row and not cols.row
        assert all((ax.rule, ax.pair) == (method.rule, method.pair) for ax in caches.axes)


def test_families_partition_the_kinds():
    families = (EXTENDED_KINDS, CONSISTENT_KINDS, PROJECTION_KINDS)
    assert sum(len(f) for f in families) == len(ALL_KINDS)
    assert EXTENDED_KINDS | CONSISTENT_KINDS | PROJECTION_KINDS == set(ALL_KINDS)


class FractionSpy:
    """A stop config that counts reads of fraction."""

    reads = 0

    @property
    def fraction(self):
        self.reads += 1
        return 0.5


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sampling_kinds_are_the_fraction_readers(kind):
    problem = make_inconsistent_problem(gen_gaussian(12, 6, 19), 19)
    caches = build_caches(problem.A, kind)
    state = SolverState.initial(kind, problem, seed=2)
    spy = FractionSpy()
    for _ in range(5):
        step(state, problem, caches, spy)
    assert (spy.reads > 0) == (kind in SAMPLING_KINDS)


SAMPLED_PAIR_KINDS = [SolverKind.TREK_ALT, SolverKind.TREKS, SolverKind.TSREKS, SolverKind.TRKS, SolverKind.TSRKS]


@pytest.mark.parametrize("shape", [(6, 1), (1, 6)])
@pytest.mark.parametrize("kind", SAMPLED_PAIR_KINDS)
def test_sampled_pair_kinds_take_1d_steps_on_a_one_line_axis(kind, shape):
    problem = make_inconsistent_problem(gen_gaussian(*shape, 21), 21)
    A, b = problem.A, problem.b
    caches = build_caches(A, kind)
    state = SolverState.initial(kind, problem, seed=3)
    step(state, problem, caches, StopConfig(fraction=0.5))
    if shape == (6, 1) and state.z is not None:
        # One column: the column step projects z off it.
        assert abs(A.col(0) @ state.z) <= 1e-12 * np.linalg.norm(b) * np.linalg.norm(A.col(0))
    if shape == (1, 6) and state.z is None:
        # One row: the row step solves it.
        assert abs(b[0] - A.row(0) @ state.x) <= 1e-12 * abs(b[0])
    rec = solve(kind, problem, StopConfig(tol=1e-8), seed=3)
    if kind in EXTENDED_KINDS or shape == (1, 6):
        assert rec.converged


@pytest.mark.parametrize(
    "settings",
    [
        {"fraction": 0.0},
        {"fraction": -0.5},
        {"fraction": 1.5},
        {"check_every": 0},
        {"check_every": -1},
        {"max_iters": -1},
        # solve stops at k == max_iters, which a fractional cap never meets.
        {"max_iters": 2.5},
        {"max_iters": 10.0},
        {"max_iters": True},
        {"check_every": 2.5},
        {"check_every": True},
    ],
)
def test_stop_config_rejects_out_of_range(settings):
    with pytest.raises(ValueError):
        StopConfig(**settings)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_stop_config_rejects_a_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        StopConfig(tol=tol)


def test_stop_config_accepts_the_edges():
    config = StopConfig(fraction=1.0, check_every=1, max_iters=0)
    assert (config.fraction, config.check_every, config.max_iters) == (1.0, 1, 0)
    assert StopConfig(check_every=np.int64(3), max_iters=np.int64(6)).max_iters == 6


def _pair_counts(kind, problem, axis, draws, seed, config=None):
    """Counts of the ordered pairs _select draws on one axis of the initial state."""
    caches = build_caches(problem.A, kind)
    ax = caches.rows if axis == "row" else caches.cols
    state = SolverState.initial(kind, problem, seed=seed)
    config = config or StopConfig()
    counts = {}
    for _ in range(draws):
        idx = solvers._select(ax, state, problem, caches, config)
        counts[idx] = counts.get(idx, 0) + 1
    return counts


def _pair_chi_square(counts, weights, draws):
    """Chi-square of ordered pair counts against p_i p_j / (1 - p_i), p = weights / sum."""
    p = np.asarray(weights, dtype=float) / np.sum(weights)
    chi2 = 0.0
    for i in range(p.size):
        for j in range(p.size):
            if i != j:
                expected = draws * p[i] * p[j] / (1.0 - p[i])
                chi2 += (counts.pop((i, j), 0) - expected) ** 2 / expected
    assert not counts, f"pairs outside the law: {counts}"
    return chi2


@pytest.mark.parametrize("axis", ["row", "column"])
@pytest.mark.parametrize("kind", [SolverKind.TREK_ALT, SolverKind.TREKS])
def test_norm_pair_law(kind, axis):
    weights = [5.0, 3.0, 2.0]
    problem = LsProblem(A=DenseMatrix(np.diag(np.sqrt(weights))), b=np.ones(3))
    draws = 20_000
    # At fraction 1 the TREKS sample is the whole axis; TREK_ALT reads no fraction.
    config = StopConfig(fraction=1.0)
    counts = _pair_counts(kind, problem, axis, draws, seed=31, config=config)
    assert _pair_chi_square(counts, weights, draws) <= 15.09  # 99%, 5 degrees of freedom


def test_greedy_pair_law():
    # Unit rows with r = b at x = 0: residual_sq (4, 3.5, 3, 0, ...) over 10
    # rows gives the greedy bound 2.525, so the index set is {0, 1, 2}.
    weights = [4.0, 3.5, 3.0]
    b = np.zeros(10)
    b[:3] = np.sqrt(weights)
    problem = LsProblem(A=DenseMatrix(np.eye(10)), b=b)
    draws = 20_000
    counts = _pair_counts(SolverKind.TGRK, problem, "row", draws, seed=32)
    assert _pair_chi_square(counts, weights, draws) <= 15.09  # 99%, 5 degrees of freedom
    # On A = I, z0 = b gives g0 = b: the same scores and index set on the columns.
    counts = _pair_counts(SolverKind.TGREK, problem, "column", draws, seed=32)
    assert _pair_chi_square(counts, weights, draws) <= 15.09


@pytest.mark.parametrize("axis", ["row", "column"])
def test_norm_pair_always_distinct_on_a_dominant_line(axis):
    # p = (1 - 1e-8, 1e-8): redrawing until distinct would almost never end.
    problem = LsProblem(A=DenseMatrix(np.diag(np.sqrt([1e8, 1.0]))), b=np.ones(2))
    counts = _pair_counts(SolverKind.TREK_ALT, problem, axis, 1000, seed=33)
    assert set(counts) <= {(0, 1), (1, 0)}


def _matrix_with_zero_lines(shape):
    """A with every third row and every fourth column zero, between nonzero ones."""
    g = np.random.Generator(np.random.Philox(41))
    m, n = (12, 8) if shape != "wide" else (8, 12)
    vals = g.standard_normal((m, n))
    vals[1::3] = 0.0
    vals[:, 2::4] = 0.0
    if shape != "sparse":
        return DenseMatrix(vals)
    vals[g.random((m, n)) < 0.3] = 0.0
    i, j = np.nonzero(vals)
    return DualSparseMatrix(m, n, i, j, vals[i, j])


@pytest.mark.parametrize("shape", ["tall", "wide", "sparse"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_no_rule_picks_a_zero_norm_line(monkeypatch, kind, shape):
    A = _matrix_with_zero_lines(shape)
    problem = LsProblem(A=A, b=np.random.Generator(np.random.Philox(42)).standard_normal(A.rows))
    caches = build_caches(A, kind)
    picks = []
    original = solvers._axis_step

    def spy(state, problem, caches, axis, idx):
        picks.append((axis, idx))
        return original(state, problem, caches, axis, idx)

    monkeypatch.setattr(solvers, "_axis_step", spy)
    state = SolverState.initial(kind, problem, seed=6)
    for _ in range(300):
        step(state, problem, caches, StopConfig(fraction=0.5))
    assert picks
    for axis, idx in picks:
        sq_norms = caches.norms.row_sq_norms if axis.row else caches.norms.col_sq_norms
        assert all(sq_norms[i] > 0 for i in idx)
        assert len(set(idx)) == len(idx)


# (make, m, n, seed, max_iters): two consistent problems, one of them the
# shape of the benchmark's sweep, and a wide one whose A has full row rank,
# so z★ = 0.
PROJECTION_STOP_CASES = {
    "consistent-400x100": (make_consistent_problem, 400, 100, 1, None),
    "consistent-60x15": (make_consistent_problem, 60, 15, 2, None),
    "wide-15x40": (make_inconsistent_problem, 15, 40, 3, 3000),
}


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="ROADMAP item 15: GPROJ and SPROJ stop on ||A^T z|| <= tol |A|_F^2 |z|, which "
    "holds only at rounding noise when z* = 0; the fix waits for a benchmark change, "
    "as perfbench/workloads.check_cell holds projection cells to the old rule",
)
@pytest.mark.parametrize("kind", ["GPROJ", "SPROJ"])
@pytest.mark.parametrize("case", sorted(PROJECTION_STOP_CASES))
def test_projection_kinds_stop_within_twice_grek(case, kind):
    make, m, n, seed, max_iters = PROJECTION_STOP_CASES[case]
    problem = make(gen_gaussian(m, n, seed), seed)
    config = StopConfig(max_iters=max_iters)
    grek = solve(SolverKind.GREK, problem, config, seed=0)
    proj = solve(kind, problem, config, seed=0)
    assert grek.converged
    assert proj.converged and proj.iters <= 2 * grek.iters
