"""The iterative methods as uniform step functions over SolverState.

One step is one combined (z-update, x-update) pair.  Both the selection
scores and the update right-hand sides are taken from the state at the
start of the step (the column update uses the pre-step z, and the row
update right-hand side b_i - z_i uses the pre-step z as well).

The shifted residual b - z - Ax and the dual residual A^T z are maintained
incrementally and recomputed fresh at every convergence check to flush
drift.  Each row or column step changes x by dx (or z by dz) and updates
the other axis's residual once: from two rows of the cached Gram matrix
when that axis is the shorter one of a dense A, else with one product
A @ dx or A^T @ dz.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import rng as rngmod
from .linalg import build_norm_cache
from .selection import (
    scores_from_residual,
    build_index_set,
    greedy_threshold,
    simple_random_sample,
    top_two,
    weighted_pick,
    weighted_pick_norms,
)
from .updates import ParallelPairError, pair_geometry_from, two_dim_row_coeffs


class SolverKind(str, Enum):
    REK = "REK"
    TREK_ALT = "TREK_ALT"
    TREKS = "TREKS"
    GREK = "GREK"
    SREK = "SREK"
    TGREK = "TGREK"
    TSREK = "TSREK"
    TSREKS = "TSREKS"
    RK = "RK"
    TRKS = "TRKS"
    TGRK = "TGRK"
    TSRK = "TSRK"
    TSRKS = "TSRKS"
    GPROJ = "GPROJ"
    SPROJ = "SPROJ"


K = SolverKind
EXTENDED_KINDS = frozenset(
    {K.REK, K.TREK_ALT, K.TREKS, K.GREK, K.SREK, K.TGREK, K.TSREK, K.TSREKS}
)
CONSISTENT_KINDS = frozenset({K.RK, K.TRKS, K.TGRK, K.TSRK, K.TSRKS})
PROJECTION_KINDS = frozenset({K.GPROJ, K.SPROJ})
SAMPLING_KINDS = frozenset({K.TREKS, K.TSREKS, K.TRKS, K.TSRKS})

_REDRAW_TRIES = 50


@dataclass
class StopConfig:
    tol: float = 1e-5
    check_every: int | None = None  # default min(m, n)
    max_iters: int | None = None  # default 200 * min(m, n)
    track_history: bool = False
    fraction: float = 0.01  # sampling fraction for the *S methods


@dataclass
class ProblemCaches:
    norms: object
    nonzero_rows: np.ndarray
    nonzero_cols: np.ndarray
    row_gram: np.ndarray | None = None  # A A^T, updates r after a row step
    col_gram: np.ndarray | None = None  # A^T A, updates g after a column step


def build_caches(A, kind=None) -> ProblemCaches:
    """Norms of A, plus for a dense A the Gram matrix of its shorter axis.

    The Gram matrix is built only when kind maintains that axis's residual
    (r for the row axis, g for the column axis), so it costs at most one
    more copy of A.  The longer axis always uses one product per step.
    """
    norms = build_norm_cache(A)
    caches = ProblemCaches(
        norms=norms,
        nonzero_rows=np.flatnonzero(norms.row_sq_norms > 0),
        nonzero_cols=np.flatnonzero(norms.col_sq_norms > 0),
    )
    if kind is None or A.is_sparse:
        return caches
    kind = SolverKind(kind)
    values = A.values
    if A.cols <= A.rows:
        if kind not in CONSISTENT_KINDS:
            caches.col_gram = values.T @ values
    elif kind not in PROJECTION_KINDS:
        caches.row_gram = values @ values.T
    return caches


@dataclass
class SolverState:
    kind: SolverKind
    x: np.ndarray | None
    z: np.ndarray | None
    r: np.ndarray | None  # b - z - Ax (extended) or b - Ax (consistent)
    g: np.ndarray | None  # A^T z
    k: int
    rng: np.random.Generator

    @classmethod
    def initial(cls, kind, problem, seed=0):
        kind = SolverKind(kind)
        m, n = problem.A.shape
        b = np.asarray(problem.b, dtype=np.float64)
        gen = rngmod.stream(seed, rngmod.method_tag(kind.value))
        if kind in PROJECTION_KINDS:
            z = b.copy()
            return cls(kind, None, z, None, problem.A.rmatvec(z), 0, gen)
        if kind in CONSISTENT_KINDS:
            return cls(kind, np.zeros(n), None, b.copy(), None, 0, gen)
        z = b.copy()
        # x0 = 0 and z0 = b, so the shifted residual starts exactly at 0.
        return cls(kind, np.zeros(n), z, np.zeros(m), problem.A.rmatvec(z), 0, gen)

    def refresh(self, problem):
        """Recompute the maintained residual vectors from scratch."""
        A, b = problem.A, problem.b
        if self.kind in PROJECTION_KINDS:
            self.g = A.rmatvec(self.z)
        elif self.kind in CONSISTENT_KINDS:
            self.r = b - A.matvec(self.x)
        else:
            self.r = b - self.z - A.matvec(self.x)
            self.g = A.rmatvec(self.z)


@dataclass
class RunRecord:
    kind: SolverKind
    seed: int
    iters: int
    wall_time: float
    final_rse: float | None
    final_primary_residual: float
    final_dual_residual: float
    converged: bool
    history: list


def rse(x, x_star):
    """Relative squared error |x - x_star|^2 / |x_star|^2."""
    x_star = np.asarray(x_star, dtype=np.float64)
    denom = float(x_star @ x_star)
    if denom == 0.0:
        raise ValueError("rse undefined for a zero ground truth")
    diff = np.asarray(x, dtype=np.float64) - x_star
    return float(diff @ diff) / denom


# ---------------------------------------------------------------------------
# Selection dispatch (row and column halves share the same shapes)


def _pick_two_distinct(pick, singleton):
    """Two distinct draws from pick(); None second index if impossible."""
    i1 = pick()
    if singleton:
        return i1, None
    for _ in range(_REDRAW_TRIES):
        i2 = pick()
        if i2 != i1:
            return i1, i2
    return i1, None


def _select(kind, axis, state, caches, config):
    """Chosen (first, second-or-None) indices along one axis, or None to skip.

    axis 'row' scores the maintained r against row norms; axis 'column'
    scores the maintained g = A^T z against column norms.
    """
    norms = caches.norms
    if axis == "row":
        residual = state.r
        sq_norms = norms.row_sq_norms
        nonzero = caches.nonzero_rows
        population = len(sq_norms)
        greedy_one, greedy_two = (K.GREK,), (K.TGREK, K.TGRK)
        argmax_one, argmax_two = (K.SREK,), (K.TSREK, K.TSRK)
        sample_norm_two = (K.TREKS, K.TREK_ALT, K.TRKS)
        sample_top_two = (K.TSREKS, K.TSRKS)
    else:
        residual = state.g
        sq_norms = norms.col_sq_norms
        nonzero = caches.nonzero_cols
        population = len(sq_norms)
        greedy_one, greedy_two = (K.GREK, K.GPROJ), (K.TGREK,)
        argmax_one, argmax_two = (K.SREK, K.SPROJ), (K.TSREK,)
        sample_norm_two = (K.TREKS, K.TREK_ALT)
        sample_top_two = (K.TSREKS,)
    if nonzero.size == 0:
        return None

    if kind in (K.REK, K.RK):
        return weighted_pick_norms(norms, nonzero, axis, state.rng), None

    if kind in sample_norm_two:
        fraction = 1.0 if kind is K.TREK_ALT else config.fraction
        sample = simple_random_sample(population, fraction, state.rng)
        valid = sample.indices[sq_norms[sample.indices] > 0]
        if valid.size == 0:
            return None
        if valid.size == 1:
            return int(valid[0]), None
        return _pick_two_distinct(
            lambda: weighted_pick_norms(norms, valid, axis, state.rng), False
        )

    # Everything below scores the residual; a zero residual means no-op.
    s = scores_from_residual(residual, sq_norms, axis)
    if s.total_sq <= 0.0 or s.scores.max() <= 0.0:
        return None

    if kind in greedy_one or kind in greedy_two:
        eps = greedy_threshold(s, norms.frob_sq)
        index_set = build_index_set(s, eps, norms)
        pick = lambda: weighted_pick(s, index_set, state.rng)
        if kind in greedy_one:
            return pick(), None
        return _pick_two_distinct(pick, index_set.size == 1)

    if kind in argmax_one:
        return int(nonzero[np.argmax(s.scores[nonzero])]), None

    if kind in argmax_two:
        if nonzero.size == 1:
            return int(nonzero[0]), None
        return top_two(s, nonzero)

    if kind in sample_top_two:
        sample = simple_random_sample(population, config.fraction, state.rng)
        valid = sample.indices[sq_norms[sample.indices] > 0]
        if valid.size == 0:
            return None
        if valid.size == 1:
            return int(valid[0]), None
        return top_two(s, valid)

    raise ValueError(f"no {axis} selection rule for {kind}")


# ---------------------------------------------------------------------------
# Update application with incremental residual maintenance


def _combination(add_scaled, size, idx, coeffs):
    """delta = sum_k coeffs[k] * (row or column idx[k] of A), as a dense vector."""
    delta = np.zeros(size)
    for i, c in zip(idx, coeffs):
        add_scaled(delta, i, c)
    return delta


def _residual_change(gram, product, delta, idx, coeffs):
    """product(delta), where product is A @ or A^T @ and delta a _combination.

    Read from the cached Gram rows of the chosen lines when there is a
    Gram matrix for this axis, else computed as one product.
    """
    if gram is None:
        return product(delta)
    out = coeffs[0] * gram[idx[0]]
    if len(idx) == 2:
        out += coeffs[1] * gram[idx[1]]
    return out


def _row_step(state, A, caches, i1, i2):
    """Row update at (i1, i2), or at i1 alone, using the maintained residual."""
    norms = caches.norms
    r1 = float(state.r[i1])
    idx = None
    if i2 is not None and i2 != i1:
        try:
            co = two_dim_row_coeffs(A, norms, i1, i2, r1, float(state.r[i2]))
        except ParallelPairError:
            pass
        else:
            idx, coeffs = (i1, i2), (co.gamma, co.lam)
    if idx is None:
        c = r1 / norms.row_sq_norms[i1]
        if c == 0.0:
            return
        idx, coeffs = (i1,), (c,)
    dx = _combination(A.add_scaled_row, A.cols, idx, coeffs)
    state.x += dx
    state.r -= _residual_change(caches.row_gram, A.matvec, dx, idx, coeffs)


def _col_step(state, A, caches, j1, j2):
    """Column update at (j1, j2), or at j1 alone, using the maintained dual residual."""
    norms = caches.norms
    g1 = float(state.g[j1])
    idx = None
    if j2 is not None and j2 != j1:
        n1_sq = norms.col_sq_norms[j1]
        n2_sq = norms.col_sq_norms[j2]
        dot = A.col_pair_dot(j1, j2)
        geo = pair_geometry_from(dot, n1_sq, n2_sq)
        if not geo.parallel:
            g2 = float(state.g[j2])
            gamma = (dot * g2 - n2_sq * g1) / geo.denom
            lam = (dot * g1 - n1_sq * g2) / geo.denom
            idx, coeffs = (j1, j2), (gamma, lam)
    if idx is None:
        c = -g1 / norms.col_sq_norms[j1]
        if c == 0.0:
            return
        idx, coeffs = (j1,), (c,)
    dz = _combination(A.add_scaled_col, A.rows, idx, coeffs)
    state.z += dz
    if state.r is not None:
        state.r -= dz
    state.g += _residual_change(caches.col_gram, A.rmatvec, dz, idx, coeffs)


def step(kind, state, problem, caches, config):
    """Advance the state by exactly one iteration of the named method."""
    kind = SolverKind(kind)
    A = problem.A
    rows = cols = None
    if kind not in PROJECTION_KINDS:
        rows = _select(kind, "row", state, caches, config)
    if kind not in CONSISTENT_KINDS:
        cols = _select(kind, "column", state, caches, config)
    if rows is not None:
        _row_step(state, A, caches, *rows)
    if cols is not None:
        _col_step(state, A, caches, *cols)
    state.k += 1
    return state


# ---------------------------------------------------------------------------
# Stopping rule and driver


def converged(state, problem, caches, config):
    """Fresh evaluation of the stopping criteria for the state's method."""
    A, b = problem.A, problem.b
    tol = config.tol
    frob_sq = caches.norms.frob_sq
    frob = math.sqrt(frob_sq)
    if state.kind in PROJECTION_KINDS:
        z_norm = float(np.linalg.norm(state.z))
        if z_norm == 0.0:
            return True
        return float(np.linalg.norm(A.rmatvec(state.z))) <= tol * frob_sq * z_norm
    x_norm = float(np.linalg.norm(state.x))
    if x_norm == 0.0:
        # The bounds below scale with ||A||_F ||x||, which vanishes here;
        # ||b|| takes its place, as both measure vectors the size of A x.
        # So b orthogonal to range(A) (x_star = 0) stops at x = 0, z = b.
        b_norm = float(np.linalg.norm(b))
        if state.kind in CONSISTENT_KINDS:
            return b_norm <= tol * b_norm
        primary = float(np.linalg.norm(b - state.z))
        dual = float(np.linalg.norm(A.rmatvec(state.z)))
        return primary <= tol * b_norm and dual <= tol * frob * b_norm
    if state.kind in CONSISTENT_KINDS:
        return float(np.linalg.norm(b - A.matvec(state.x))) <= tol * frob * x_norm
    primary = float(np.linalg.norm(b - state.z - A.matvec(state.x)))
    dual = float(np.linalg.norm(A.rmatvec(state.z)))
    return primary <= tol * frob * x_norm and dual <= tol * frob_sq * x_norm


def _residual_norms(state, problem):
    """(primary, dual) residual norms, computed fresh."""
    A, b = problem.A, problem.b
    if state.kind in PROJECTION_KINDS:
        return math.nan, float(np.linalg.norm(A.rmatvec(state.z)))
    if state.kind in CONSISTENT_KINDS:
        return float(np.linalg.norm(b - A.matvec(state.x))), math.nan
    return (
        float(np.linalg.norm(b - state.z - A.matvec(state.x))),
        float(np.linalg.norm(A.rmatvec(state.z))),
    )


def _current_rse(state, problem):
    if state.kind in PROJECTION_KINDS or problem.x_star is None:
        return math.nan
    if float(problem.x_star @ problem.x_star) == 0.0:
        return math.nan
    return rse(state.x, problem.x_star)


def solve(kind, problem, config=None, seed=0):
    """Run the named method to convergence or the iteration cap."""
    kind = SolverKind(kind)
    config = config or StopConfig()
    m, n = problem.A.shape
    caches = build_caches(problem.A, kind)
    check_every = config.check_every or min(m, n)
    max_iters = config.max_iters if config.max_iters is not None else 200 * min(m, n)
    state = SolverState.initial(kind, problem, seed)
    history = []
    done = False
    t0 = time.perf_counter()
    if max_iters == 0:
        done = converged(state, problem, caches, config)
    for _ in range(max_iters):
        step(kind, state, problem, caches, config)
        if state.k % check_every == 0 or state.k == max_iters:
            state.refresh(problem)
            if config.track_history:
                history.append((state.k, *_residual_norms(state, problem), _current_rse(state, problem)))
            if converged(state, problem, caches, config):
                done = True
                break
    wall = time.perf_counter() - t0
    state.refresh(problem)
    primary, dual = _residual_norms(state, problem)
    final_rse = _current_rse(state, problem)
    return RunRecord(
        kind=kind,
        seed=seed,
        iters=state.k,
        wall_time=wall,
        final_rse=None if math.isnan(final_rse) else final_rse,
        final_primary_residual=primary,
        final_dual_residual=dual,
        converged=done,
        history=history,
    )
