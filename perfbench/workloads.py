"""Workloads of the rekbench benchmark: inputs, cells and output checks.

A workload fixes a problem generator and size, the solver kinds and the
trials; one round runs every (kind, trial) cell once.  Inputs and cell
seeds derive only from the workload seed.  All cells use tol 1e-5 and the
default check interval.

BENCHMARK.json lists dense-greedy and sweep.  tomo-norm stays runnable, for
traced runs of the sparse paths, but is off that list: on the shared 2-vCPU
host its ten-seed solve_s spread reached 0.25, the largest bound allowed.

Why these three:

* dense-greedy -- Gaussian 2000x500 inconsistent, GREK/TGREK/SREK/TSREK/
  TSREKS.  Dense BLAS mat_row/mat_t_col, residual scoring and greedy index
  sets do the work; norm-sampled draws and sparse storage are absent.
* tomo-norm -- parallel-beam tomography (side 16, 24 angles, 24 detectors,
  576x256, about 11k nonzeros), inconsistent, REK/TREK_ALT/TREKS.  The
  Python-loop sparse residual upkeep these kinds never read dominates, and
  rng.choice norm draws do real work; greedy scoring and BLAS are absent.
* sweep -- ``rekbench bench --jobs 2`` over a consistent Gaussian 400x100
  bundle on disk, all 15 kinds x 3 trials.  Many short runs, so per-cell
  cost (bundle parsing, build_caches, checks, thread pool, CSV) dominates;
  the only workload that runs the row-only and column-only kinds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from rekbench import cli, problems, rng, solvers
from rekbench.linalg import DenseMatrix, DualSparseMatrix
from rekbench.problems import LsProblem

TOL = 1e-5
# Final rse at tol 1e-5 is at most 3e-7 on these workloads at the baseline;
# the limit sits well above that, so only a real accuracy loss trips it.
RSE_LIMIT = 1e-5
# Fresh residuals are recomputed here with dense numpy products, whose
# rounding differs from the library's; the stopping rule gets this slack.
RESIDUAL_SLACK = 1.01


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # "gaussian" (inconsistent), "tomo" or "bundle" (consistent, on disk)
    size: tuple
    kinds: tuple
    trials: int = 1
    jobs: int = 1  # bench --jobs, bundle workloads only


ALL_KINDS = tuple(k.value for k in solvers.SolverKind)

WORKLOADS = {
    "dense-greedy": Workload(
        "dense-greedy", "gaussian", (2000, 500), ("GREK", "TGREK", "SREK", "TSREK", "TSREKS")
    ),
    "tomo-norm": Workload("tomo-norm", "tomo", (16, 24, 24), ("REK", "TREK_ALT", "TREKS")),
    "sweep": Workload("sweep", "bundle", (400, 100), ALL_KINDS, trials=3, jobs=2),
}

# Tiny sizes of the same workloads, so the harness can run in seconds.  The
# tomography size is one that converges: side 6 with 8 angles x 8 detectors
# does not reach tol 1e-5 within the default iteration cap.
SMOKE = {
    "dense-greedy": dict(size=(60, 15)),
    "tomo-norm": dict(size=(8, 12, 12)),
    "sweep": dict(size=(40, 10), trials=1),
}


def get_workload(name, smoke=False):
    w = WORKLOADS[name]
    return replace(w, **SMOKE[name]) if smoke else w


def cells(w, seed):
    """(kind, trial, cell seed) of one round; bench derives the same seeds."""
    return [
        (kind, trial, rng.cell_seed(seed, kind, 0, trial))
        for kind in w.kinds
        for trial in range(w.trials)
    ]


# ---------------------------------------------------------------------------
# Set-up: problem generation with its direct-solver oracle


def build_inputs(w, seed, bundle_dir):
    """Generate the workload's inputs; an LsProblem, or the bundle path."""
    if w.generator == "gaussian":
        m, n = w.size
        return problems.make_inconsistent_problem(problems.gen_gaussian(m, n, seed), seed)
    if w.generator == "tomo":
        return problems.gen_parallel_beam(*w.size, seed)
    m, n = w.size
    argv = ["gen", "gaussian", "--m", str(m), "--n", str(n), "--seed", str(seed), "--out", bundle_dir]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"rekbench {' '.join(argv)} exited with {code}")
    return bundle_dir


def time_setup(w, seed, bundle_dir, budget_s, tracer=None):
    """Build the inputs at least twice and until budget_s has been spent
    (once, traced, when a tracer is given).  Return the times, the digests
    of the inputs and the last inputs."""
    times, digests = [], set()
    while True:
        t0 = time.perf_counter()
        with tracer or contextlib.nullcontext():
            inputs = build_inputs(w, seed, bundle_dir)
        times.append(time.perf_counter() - t0)
        digests.add(input_digest(inputs))
        if tracer is not None or (len(times) >= 2 and sum(times) >= budget_s):
            return times, digests, inputs


def input_digest(inputs):
    """Digest of A and b, to compare the inputs two seeds generate."""
    h = hashlib.sha256()
    if isinstance(inputs, str):
        for name in ("A.mtx", "b.txt"):
            with open(os.path.join(inputs, name), "rb") as fh:
                h.update(fh.read())
    else:
        h.update(inputs.A.to_dense().tobytes())
        h.update(np.asarray(inputs.b).tobytes())
    return h.hexdigest()


def save_inputs(problem, path):
    """Hand a generated problem to the timed process, which never runs the oracle."""
    A = problem.A
    if A.is_sparse:
        i, j, v = A.triples()
        arrays = dict(shape=np.array(A.shape), i=i, j=j, v=v)
    else:
        arrays = dict(values=A.values)
    np.savez(path, b=problem.b, x_star=problem.x_star, r=problem.r, **arrays)


def load_inputs(path):
    with np.load(path) as f:
        if "values" in f:
            A = DenseMatrix(f["values"])
        else:
            A = DualSparseMatrix(*f["shape"], f["i"], f["j"], f["v"])
        return LsProblem(A=A, b=f["b"], x_star=f["x_star"], r=f["r"])


# ---------------------------------------------------------------------------
# Output checks


def check_oracle(problem, A):
    """The oracle x_star satisfies the normal equations A^T (b - A x_star) = 0."""
    x_star = problem.x_star
    frob_sq = float(np.sum(A * A))
    scale = frob_sq * max(float(np.linalg.norm(x_star)), float(np.linalg.norm(problem.b)), 1e-300)
    return float(np.linalg.norm(A.T @ (problem.b - A @ x_star))) <= 1e-9 * scale


def check_cell(problem, A, kind, state, converged):
    """Status of one cell's final state against the oracle, and its rse.

    A is the problem matrix as a dense array.  Extended and row-only kinds
    compare x with x_star; column-only kinds compare z with b - A x_star.
    The fresh residuals are recomputed and held to the stopping rule.
    """
    if state is None:
        return "no final state", None
    if not converged:
        return "not converged", None
    kind = solvers.SolverKind(kind)
    b, x_star = problem.b, problem.x_star
    frob_sq = float(np.sum(A * A))
    frob = math.sqrt(frob_sq)
    if kind in solvers.PROJECTION_KINDS:
        target = b - A @ x_star
        err = float(np.sum((state.z - target) ** 2)) / float(b @ b)
        z_norm = float(np.linalg.norm(state.z))
        ok_rule = float(np.linalg.norm(A.T @ state.z)) <= RESIDUAL_SLACK * TOL * frob_sq * z_norm
    else:
        err = float(np.sum((state.x - x_star) ** 2)) / float(x_star @ x_star)
        x_norm = float(np.linalg.norm(state.x))
        shifted = b - A @ state.x if state.z is None else b - state.z - A @ state.x
        ok_rule = float(np.linalg.norm(shifted)) <= RESIDUAL_SLACK * TOL * frob * x_norm
        if state.z is not None:
            dual = float(np.linalg.norm(A.T @ state.z))
            ok_rule = ok_rule and dual <= RESIDUAL_SLACK * TOL * frob_sq * x_norm
    if not err <= RSE_LIMIT:
        return f"rse {err:.3g} above {RSE_LIMIT:g}", err
    if not ok_rule:
        return "fresh residual above tol", err
    return "ok", err


def state_digest(state):
    """Hash of the final iterate(s): x, and z where the kind keeps one."""
    h = hashlib.sha256()
    for v in (state.x, state.z):
        if v is not None:
            h.update(np.ascontiguousarray(v).tobytes())
    return h.hexdigest()[:16]
