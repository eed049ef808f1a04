"""The ground truth of generated problems: b pinned, x_star the least-squares solution.

A change to how a generator obtains x_star must leave b unchanged, so every
trajectory and benchmark input stays the same.  b is pinned by the sha256
of its float64 bytes, in one GOLDEN table per BLAS key (tests/conftest.py);
x_star must agree with the dense oracle direct_least_squares(A, b) and
satisfy the normal equations to working precision, and r must be stored as
b - A x_star.  A tall consistent problem's x_star is its planted x and its
r is zero, bit for bit.  Where A is wide, rank deficient or
ill-conditioned, x_star must be the oracle's, bit for bit.  The two tomo b
were recorded again when gen_parallel_beam began to project its draw off
range(A) once, not twice; the two benchmark inputs were recorded before
that change and kept their bits across it.  The three tall inconsistent
Gaussian b, the two tomo b and dense-greedy's b were recorded again when a
tall full-rank A began to project its draw through A^T A, not the SVD:
each moved in its last bits (dense-greedy's by at most 2e-16 relative),
and every x_star kept its bits.
"""

import hashlib

import numpy as np
import pytest
from conftest import HASWELL_KEY, SKYLAKEX_KEY, pinned

from rekbench import rng
from rekbench.linalg import DenseMatrix, build_norm_cache, direct_least_squares
from rekbench.problems import (
    gen_gaussian,
    gen_parallel_beam,
    make_consistent_problem,
    make_inconsistent_problem,
)


def _inconsistent(m, n, seed):
    return lambda: make_inconsistent_problem(gen_gaussian(m, n, seed), seed)


def _consistent(m, n, seed):
    return lambda: make_consistent_problem(gen_gaussian(m, n, seed), seed)


def _tomo(side, angles, detectors, seed):
    return lambda: gen_parallel_beam(side, angles, detectors, seed)


def _repeated_column():
    values = gen_gaussian(40, 10, 7).values
    values[:, 9] = values[:, 0]
    return make_inconsistent_problem(DenseMatrix(values), 7)


def _ill_conditioned():
    # U diag(sigma) V^T with orthonormal U, V and condition number 1e6.
    g = np.random.Generator(np.random.Philox(11))
    u, _ = np.linalg.qr(g.standard_normal((60, 15)))
    v, _ = np.linalg.qr(g.standard_normal((15, 15)))
    return make_inconsistent_problem(DenseMatrix(u * np.logspace(0, -6, 15) @ v.T), 11)


# name: generator.  The last two are the inputs of the benchmark's gated
# workloads at seed 1 (perfbench/workloads.py): dense-greedy's problem and
# the b of sweep's bundle.
PLANTED = {
    "gaussian-40x10-seed1": _inconsistent(40, 10, 1),
    "gaussian-60x15-seed1": _inconsistent(60, 15, 1),
    "gaussian-40x20-seed42": _inconsistent(40, 20, 42),
    "tomo-8-a12-d12-seed1": _tomo(8, 12, 12, 1),
    "tomo-16-a24-d24-seed1": _tomo(16, 24, 24, 1),
    "consistent-40x10-seed1": _consistent(40, 10, 1),
    "dense-greedy-2000x500-seed1": _inconsistent(2000, 500, 1),
    "sweep-consistent-400x100-seed1": _consistent(400, 100, 1),
}

# name: first 16 hex digits of the sha256 of b's bytes, under the SkylakeX kernels
SKYLAKEX = {
    "gaussian-40x10-seed1": "afece4b0abd03df3",
    "gaussian-60x15-seed1": "7f6095f708d78517",
    "gaussian-40x20-seed42": "d6a05fdcb49c6d69",
    "tomo-8-a12-d12-seed1": "331eef6f62d98808",
    "tomo-16-a24-d24-seed1": "0bad91abc52fb6ff",
    "consistent-40x10-seed1": "b83691ee208c73d3",
    "dense-greedy-2000x500-seed1": "aae2f8e7bab1904c",
    "sweep-consistent-400x100-seed1": "572ac565ce01da5b",
}

# The same under the Haswell kernels
HASWELL = {
    "gaussian-40x10-seed1": "bee81995ad299d28",
    "gaussian-60x15-seed1": "dded2f2d4ccc0662",
    "gaussian-40x20-seed42": "290b82716053a889",
    "tomo-8-a12-d12-seed1": "119efdd41725be66",
    "tomo-16-a24-d24-seed1": "e05751530789bfc0",
    "consistent-40x10-seed1": "b83691ee208c73d3",
    "dense-greedy-2000x500-seed1": "14f7063dde737842",
    "sweep-consistent-400x100-seed1": "572ac565ce01da5b",
}

GOLDEN = {SKYLAKEX_KEY: SKYLAKEX, HASWELL_KEY: HASWELL}


def b_digest(problem):
    """First 16 hex digits of the sha256 of problem.b's bytes: a value of GOLDEN."""
    return hashlib.sha256(problem.b.tobytes()).hexdigest()[:16]


ORACLE = {
    "wide-15x40": _inconsistent(15, 40, 3),
    "wide-tomo-8-a3-d8": _tomo(8, 3, 8, 1),
    "repeated-column-40x10": _repeated_column,
    "kappa-1e6-60x15": _ill_conditioned,
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_b_is_unchanged_and_x_star_solves_least_squares(name):
    p = PLANTED[name]()
    x_norm = np.linalg.norm(p.x_star)
    oracle = direct_least_squares(p.A, p.b)
    assert np.linalg.norm(p.x_star - oracle) <= 1e-12 * x_norm
    normal = np.linalg.norm(p.A.rmatvec(p.b - p.A.matvec(p.x_star)))
    assert normal <= 1e-15 * build_norm_cache(p.A).frob_sq * x_norm
    assert np.array_equal(p.r, p.b - p.A.matvec(p.x_star))
    if p.meta["generator"] == "gen_gaussian":
        # A consistent b is A x for the Gaussian draw x, which is x_star: r is zero, bit for bit.
        draw = rng.stream(p.meta["seed"], rng.method_tag("gen_consistent_b"))
        assert np.array_equal(p.x_star, draw.standard_normal(p.A.cols))
        assert not p.r.any()
    # b = A x + noise passes through the kernels, so its bits are pinned per BLAS.
    assert b_digest(p) == pinned(GOLDEN)[name]


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_x_star_is_the_oracle_where_a_planted_x_may_not_be(name):
    p = ORACLE[name]()
    assert np.array_equal(p.x_star, direct_least_squares(p.A, p.b))
    assert np.array_equal(p.r, p.b - p.A.matvec(p.x_star))
