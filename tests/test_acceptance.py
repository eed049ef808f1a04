"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS line with
the measured quantities when it succeeds.
"""

import time

import numpy as np

from rekbench.linalg import DenseMatrix, DualSparseMatrix, build_norm_cache
from rekbench.problems import (
    gen_gaussian,
    gen_parallel_beam,
    make_inconsistent_problem,
    project_off_range,
    read_matrix_market,
    write_matrix_market,
)
from rekbench.selection import build_index_set, greedy_threshold, scores_from_residual
from rekbench.solvers import (
    CONSISTENT_KINDS,
    EXTENDED_KINDS,
    PROJECTION_KINDS,
    SolverKind,
    SolverState,
    StopConfig,
    build_caches,
    solve,
    step,
)
from rekbench.theory import compute_constants, empirical_contraction, rates_all
from test_solvers import consistent_problem
from test_updates import col_step, row_coeffs, row_step


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def test_criterion_1_petrov_galerkin_exactness():
    g = philox(1001)
    t0 = time.time()
    states = 0
    while states < 1000:
        m = int(g.integers(4, 12))
        n = int(g.integers(2, 8))
        A = DenseMatrix(g.standard_normal((m, n)))
        cache = build_norm_cache(A)
        b = g.standard_normal(m)
        x = g.standard_normal(n)
        z = g.standard_normal(m)
        i1, i2 = (int(i) for i in g.choice(m, size=2, replace=False))
        r = b - z - A.matvec(x)
        if row_coeffs(A, i1, i2, r[i1], r[i2]) is None:
            continue
        x2 = row_step(A, x, b - z, i1, i2)
        scale = np.linalg.norm(b) + np.sqrt(cache.frob_sq) * np.linalg.norm(x2)
        assert abs(b[i1] - z[i1] - A.row(i1) @ x2) <= 1e-10 * scale
        assert abs(b[i2] - z[i2] - A.row(i2) @ x2) <= 1e-10 * scale
        j1, j2 = (int(j) for j in g.choice(n, size=2, replace=False))
        z2 = col_step(A, z, j1, j2)
        z_scale = np.sqrt(cache.frob_sq) * np.linalg.norm(z)
        assert abs(A.col(j1) @ z2) <= 1e-10 * z_scale
        assert abs(A.col(j2) @ z2) <= 1e-10 * z_scale
        states += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 1: 1000 two-dimensional updates exact in {elapsed:.2f}s")


def test_criterion_2_oracle_convergence_all_extended():
    problem = make_inconsistent_problem(gen_gaussian(200, 50, 7), 7)
    cap = 500 * 50
    t0 = time.time()
    worst = {}
    for kind in sorted(EXTENDED_KINDS):
        rec = solve(kind, problem, StopConfig(tol=1e-9, max_iters=cap), seed=3)
        assert rec.converged, f"{kind.value} did not converge within {cap} steps"
        assert rec.final_rse <= 1e-8, f"{kind.value} rse {rec.final_rse}"
        worst[kind.value] = rec.iters
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 2: all extended methods rse<=1e-8, iters={worst}, {elapsed:.1f}s")


def test_criterion_3_thm1_monte_carlo():
    A = gen_gaussian(40, 20, 42)
    problem = make_inconsistent_problem(A, 42)
    bound = rates_all(compute_constants(A)).thm1_beta
    t0 = time.time()
    means, errs = empirical_contraction(SolverKind.GPROJ, problem, 200, 20, seed=11)
    elapsed = time.time() - t0
    ok = (means <= bound + 3 * errs) | np.isnan(means)
    assert np.all(ok), f"violations at steps {np.flatnonzero(~ok)}"
    assert elapsed < 30.0
    print(f"\n[PASS] criterion 3: GPROJ mean ratios <= {bound:.4f}+3se, {elapsed:.1f}s")


def test_criterion_4_thm3_pathwise():
    A = gen_gaussian(40, 20, 42)
    bound = rates_all(compute_constants(A)).thm3_beta_hat
    caches = build_caches(A, SolverKind.SPROJ)
    violations = 0
    for run in range(50):
        b = philox(500 + run).standard_normal(40)
        problem = make_inconsistent_problem(A, 900 + run)
        problem.b = b
        b_perp = project_off_range(A, b)
        state = SolverState.initial(SolverKind.SPROJ, problem, seed=run)
        prev = float(np.sum((state.z - b_perp) ** 2))
        for _ in range(20):
            step(state, problem, caches, StopConfig())
            cur = float(np.sum((state.z - b_perp) ** 2))
            if prev > 1e-300 and cur / prev > bound + 1e-12:
                violations += 1
            prev = cur
    assert violations == 0
    print(f"\n[PASS] criterion 4: SPROJ pathwise ratio <= {bound:.6f}, 50 runs x 20 steps")


def test_criterion_5_desk_scale_ordering():
    t0 = time.time()
    problem = make_inconsistent_problem(gen_gaussian(1000, 250, 77), 77)
    medians = {}
    for kind in (SolverKind.GREK, SolverKind.TGREK, SolverKind.SREK, SolverKind.TSREK):
        iters = [
            solve(kind, problem, StopConfig(tol=1e-5), seed=trial).iters for trial in range(5)
        ]
        medians[kind.value] = float(np.median(iters))
    elapsed = time.time() - t0
    assert medians["TGREK"] <= 0.75 * medians["GREK"]
    assert medians["TSREK"] <= 0.75 * medians["SREK"]
    assert medians["TSREK"] < medians["GREK"]
    assert elapsed < 120.0
    print(f"\n[PASS] criterion 5: median iters {medians}, {elapsed:.1f}s")


def test_criterion_6_monotonicity_suite():
    col_kinds = sorted(EXTENDED_KINDS | PROJECTION_KINDS)
    row_kinds = sorted(CONSISTENT_KINDS)
    runs = 0
    seed = 0
    while runs < 100:
        seed += 1
        if runs % 2 == 0:
            kind = col_kinds[runs // 2 % len(col_kinds)]
            problem = make_inconsistent_problem(gen_gaussian(15, 6, seed), seed)
            target = ("z", problem.r)
        else:
            kind = row_kinds[runs // 2 % len(row_kinds)]
            problem = consistent_problem(15, 6, seed)
            target = ("x", problem.x_star)
        caches = build_caches(problem.A, kind)
        state = SolverState.initial(kind, problem, seed=seed)
        vec = getattr(state, target[0])
        prev = np.linalg.norm(vec - target[1])
        for _ in range(30):
            step(state, problem, caches, StopConfig(fraction=0.3))
            cur = np.linalg.norm(getattr(state, target[0]) - target[1])
            assert cur <= prev * (1 + 1e-12), f"{kind} error increased"
            prev = cur
        runs += 1
    print("\n[PASS] criterion 6: 100 runs, error norms non-increasing")


def test_criterion_7_determinism():
    problem = make_inconsistent_problem(gen_gaussian(30, 10, 21), 21)
    for kind in SolverKind:
        caches = build_caches(problem.A, kind)
        histories = []
        for _ in range(2):
            state = SolverState.initial(kind, problem, seed=9)
            snaps = []
            for _ in range(40):
                step(state, problem, caches, StopConfig(fraction=0.2))
                vec = state.x if state.x is not None else state.z
                snaps.append(vec.copy())
            histories.append(snaps)
        for a, b in zip(histories[0], histories[1]):
            assert np.array_equal(a, b), f"{kind} not bitwise reproducible"
    print("\n[PASS] criterion 7: all 15 methods bitwise reproducible under fixed seed")


def test_criterion_8_greedy_set_nonempty_10k():
    g = philox(808)
    checked = 0
    while checked < 10_000:
        size = int(g.integers(1, 50))
        residual = g.standard_normal(size) * 10.0 ** g.integers(-6, 7)
        sq_norms = g.random(size) * 10.0 ** g.integers(-6, 7)
        if g.random() < 0.1:
            sq_norms[g.integers(size)] = 0.0
        residual_sq, scores = scores_from_residual(residual, sq_norms)
        total_sq = float(residual_sq.sum())
        if total_sq <= 0 or scores.max() <= 0:
            continue
        cache = build_norm_cache(DenseMatrix(np.sqrt(sq_norms)[:, None]))
        argmax = int(np.argmax(scores))
        eps = greedy_threshold(scores[argmax], total_sq, cache.frob_sq)
        norms = cache.row_sq_norms
        index_set = build_index_set(residual_sq, norms, norms > 0, eps * total_sq, argmax)
        assert index_set.size > 0, "empty greedy set"
        assert argmax in index_set, "argmax not in greedy set"
        checked += 1
    print("\n[PASS] criterion 8: 10000 random score states, greedy set nonempty with argmax")


def test_criterion_9_matrix_market_round_trip(tmp_path):
    g = philox(909)
    for case in range(100):
        m = int(g.integers(2, 30))
        n = int(g.integers(2, 20))
        nnz = int(g.integers(1, m * n // 2 + 2))
        flat = g.choice(m * n, size=min(nnz, m * n), replace=False)
        i, j = flat // n, flat % n
        if case % 3 == 0 and m > 2 and n > 2:
            keep = (i != 0) & (j != n - 1)  # force an empty row and column
            if keep.any():
                i, j = i[keep], j[keep]
        A = DualSparseMatrix(m, n, i, j, g.standard_normal(i.size))
        path = tmp_path / f"rt{case}.mtx"
        write_matrix_market(A, path)
        B = read_matrix_market(path)
        assert B.shape == A.shape
        for a, b in zip(A.triples(), B.triples()):
            assert np.array_equal(a, b), f"round trip changed case {case}"
    sym = tmp_path / "sym.mtx"
    sym.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2.5\n3 1 -1.25\n3 3 4.0\n"
    )
    S = read_matrix_market(sym)
    expect = np.array([[2.5, 0, -1.25], [0, 0, 0], [-1.25, 0, 4.0]])
    assert np.array_equal(S.to_dense(), expect)
    write_matrix_market(S, tmp_path / "sym_rt.mtx")
    S2 = read_matrix_market(tmp_path / "sym_rt.mtx")
    for a, b in zip(S.triples(), S2.triples()):
        assert np.array_equal(a, b)
    print("\n[PASS] criterion 9: 100 sparse round trips exact + symmetric expansion")


def test_criterion_10_tomography():
    t0 = time.time()
    problem = gen_parallel_beam(16, 24, 24, 11)
    cap = 5000 * min(problem.A.shape)
    rec = solve(
        SolverKind.TSREKS,
        problem,
        StopConfig(tol=1e-4, fraction=0.1, max_iters=cap),
        seed=2,
    )
    elapsed = time.time() - t0
    assert rec.iters <= cap
    assert rec.final_rse <= 1e-3, f"rse {rec.final_rse}"
    assert elapsed < 120.0
    print(
        f"\n[PASS] criterion 10: TSREKS tomography rse={rec.final_rse:.2e} "
        f"in {rec.iters} steps, {elapsed:.1f}s"
    )
