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
from .updates import ParallelPairError, two_dim_row_coeffs


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


@dataclass(frozen=True)
class Method:
    """How a kind picks lines, and on which axes it steps.

    rule is one of norm (draw by squared norm), norm_sample (norm draws from
    a simple random sample of StopConfig.fraction of the axis), greedy (draw
    from the greedy index set), argmax (largest score) and top_sample
    (largest scores in a sample, always a pair); pair picks two distinct
    lines per axis.
    """

    rule: str
    pair: bool
    rows: bool  # steps x against r = b - z - Ax (or b - Ax without z)
    cols: bool  # steps z against g = A^T z

    @property
    def axes(self):
        return ("row",) * self.rows + ("column",) * self.cols


K = SolverKind
METHODS = {
    K.REK: Method("norm", pair=False, rows=True, cols=True),
    K.TREK_ALT: Method("norm", pair=True, rows=True, cols=True),
    K.TREKS: Method("norm_sample", pair=True, rows=True, cols=True),
    K.GREK: Method("greedy", pair=False, rows=True, cols=True),
    K.SREK: Method("argmax", pair=False, rows=True, cols=True),
    K.TGREK: Method("greedy", pair=True, rows=True, cols=True),
    K.TSREK: Method("argmax", pair=True, rows=True, cols=True),
    K.TSREKS: Method("top_sample", pair=True, rows=True, cols=True),
    K.RK: Method("norm", pair=False, rows=True, cols=False),
    K.TRKS: Method("norm_sample", pair=True, rows=True, cols=False),
    K.TGRK: Method("greedy", pair=True, rows=True, cols=False),
    K.TSRK: Method("argmax", pair=True, rows=True, cols=False),
    K.TSRKS: Method("top_sample", pair=True, rows=True, cols=False),
    K.GPROJ: Method("greedy", pair=False, rows=False, cols=True),
    K.SPROJ: Method("argmax", pair=False, rows=False, cols=True),
}
_NORM_RULES = ("norm", "norm_sample")
_SAMPLE_RULES = ("norm_sample", "top_sample")

EXTENDED_KINDS = frozenset(k for k, m in METHODS.items() if m.rows and m.cols)
CONSISTENT_KINDS = frozenset(k for k, m in METHODS.items() if not m.cols)
PROJECTION_KINDS = frozenset(k for k, m in METHODS.items() if not m.rows)
# The kinds that read StopConfig.fraction.
SAMPLING_KINDS = frozenset(k for k, m in METHODS.items() if m.rule in _SAMPLE_RULES)


@dataclass
class StopConfig:
    tol: float = 1e-5
    check_every: int | None = None  # default min(m, n)
    max_iters: int | None = None  # default 200 * min(m, n)
    track_history: bool = False
    fraction: float = 0.01  # sampling fraction for the *S methods

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.check_every is not None and self.check_every < 1:
            raise ValueError(f"check_every must be at least 1, got {self.check_every}")
        if self.max_iters is not None and self.max_iters < 0:
            raise ValueError(f"max_iters must be at least 0, got {self.max_iters}")


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
    method = METHODS[SolverKind(kind)]
    values = A.values
    if A.cols <= A.rows:
        if method.cols:
            caches.col_gram = values.T @ values
    elif method.rows:
        caches.row_gram = values @ values.T
    return caches


@dataclass
class SolverState:
    kind: SolverKind
    x: np.ndarray | None  # None without row steps
    z: np.ndarray | None  # None without column steps
    r: np.ndarray | None  # b - z - Ax (b - Ax without z); None without x
    g: np.ndarray | None  # A^T z; None without z
    k: int
    rng: np.random.Generator

    @classmethod
    def initial(cls, kind, problem, seed=0):
        kind = SolverKind(kind)
        method = METHODS[kind]
        m, n = problem.A.shape
        b = np.asarray(problem.b, dtype=np.float64)
        gen = rngmod.stream(seed, rngmod.method_tag(kind.value))
        x = z = r = g = None
        if method.cols:
            z = b.copy()
            g = problem.A.rmatvec(z)
        if method.rows:
            x = np.zeros(n)
            # x0 = 0, so r0 = b - z0: exactly 0 when z0 = b.
            r = np.zeros(m) if method.cols else b.copy()
        return cls(kind, x, z, r, g, 0, gen)

    def refresh(self, problem):
        """Recompute the maintained residual vectors from x and z."""
        method = METHODS[self.kind]
        A, b = problem.A, problem.b
        if method.rows:
            self.r = (b - self.z if method.cols else b) - A.matvec(self.x)
        if method.cols:
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
# Selection (row and column halves share the same shapes)


def _draw_pair(pick, domain, pair):
    """(i1, i2) with i2 drawn from the rest of domain; i2 None for one line.

    pick(d) draws one index from the index array d.  Drawing the second
    line from domain without i1 gives the law of redrawing until distinct.
    """
    i1 = pick(domain)
    if not pair or domain.size == 1:
        return i1, None
    return i1, pick(domain[domain != i1])


def _select(method, axis, state, caches, config):
    """Chosen (first, second-or-None) indices along one axis, or None to skip.

    axis 'row' scores the maintained r against row norms; axis 'column'
    scores the maintained g = A^T z against column norms.
    """
    if axis == "row":
        residual, sq_norms, nonzero = state.r, caches.norms.row_sq_norms, caches.nonzero_rows
    else:
        residual, sq_norms, nonzero = state.g, caches.norms.col_sq_norms, caches.nonzero_cols
    if nonzero.size == 0:
        return None
    rule, pair, rng = method.rule, method.pair, state.rng
    if rule not in _NORM_RULES:
        # The other rules score the residual; a zero residual means no-op.
        residual_sq, scores = scores_from_residual(residual, sq_norms)
        argmax = int(np.argmax(scores))
        if scores[argmax] <= 0.0:
            return None
        if rule == "greedy":
            total_sq = float(residual_sq.sum())
            bound = greedy_threshold(scores[argmax], total_sq, caches.norms.frob_sq) * total_sq
            index_set = build_index_set(residual_sq, sq_norms, bound, argmax)
            return _draw_pair(lambda d: weighted_pick(residual_sq, d, rng), index_set, pair)
        if not pair:
            return argmax, None

    domain = nonzero
    if rule in _SAMPLE_RULES:
        # An axis with one line is its own sample, so it takes a 1-D step.
        if sq_norms.size > 1:
            domain = simple_random_sample(sq_norms.size, config.fraction, rng)
        domain = domain[sq_norms[domain] > 0]
        if domain.size == 0:
            return None
    if rule in _NORM_RULES:
        return _draw_pair(lambda d: weighted_pick_norms(sq_norms, d, rng), domain, pair)
    if domain.size == 1:
        return int(domain[0]), None
    return top_two(scores, domain)


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


def _axis_step(state, A, caches, axis, i1, i2):
    """Step on lines (i1, i2), or on i1 alone, of one axis.

    A row step moves x by a combination of rows that zeroes the chosen
    entries of r.  A column step moves z by a combination of columns that
    zeroes the chosen entries of g = A^T z: the same 2x2 system on the
    column Gram entries, with -g as its residual.  Either falls back to
    the 1-D step on i1 when the pair is parallel.
    """
    row = axis == "row"
    norms = caches.norms
    sq_norms = norms.row_sq_norms if row else norms.col_sq_norms
    residual = state.r if row else state.g
    # Negation is exact, so the column formulas see -g bit for bit.
    sign = 1.0 if row else -1.0
    r1 = sign * float(residual[i1])
    idx = None
    if i2 is not None and i2 != i1:
        dot = A.row_pair_dot(i1, i2) if row else A.col_pair_dot(i1, i2)
        try:
            gamma, lam = two_dim_row_coeffs(
                dot, sq_norms[i1], sq_norms[i2], r1, sign * float(residual[i2])
            )
        except ParallelPairError:
            pass
        else:
            idx, coeffs = (i1, i2), (gamma, lam)
    if idx is None:
        c = r1 / sq_norms[i1]
        if c == 0.0:
            return
        idx, coeffs = (i1,), (c,)
    if row:
        dx = _combination(A.add_scaled_row, A.cols, idx, coeffs)
        state.x += dx
        state.r -= _residual_change(caches.row_gram, A.matvec, dx, idx, coeffs)
    else:
        dz = _combination(A.add_scaled_col, A.rows, idx, coeffs)
        state.z += dz
        if state.r is not None:
            state.r -= dz
        state.g += _residual_change(caches.col_gram, A.rmatvec, dz, idx, coeffs)


def step(kind, state, problem, caches, config):
    """Advance the state by exactly one iteration of the named method."""
    method = METHODS[SolverKind(kind)]
    # Both axes pick from the state at the start of the step.
    chosen = [(axis, _select(method, axis, state, caches, config)) for axis in method.axes]
    for axis, lines in chosen:
        if lines is not None:
            _axis_step(state, problem.A, caches, axis, *lines)
    state.k += 1
    return state


# ---------------------------------------------------------------------------
# Stopping rule and driver


def _residual_norms(state):
    """(primary, dual) norms of the state's r and g; nan where not kept."""
    return tuple(math.nan if v is None else float(np.linalg.norm(v)) for v in (state.r, state.g))


def converged(state, problem, caches, config):
    """The stopping criteria for the state's method, on its r and g.

    The caller refreshes the state first, so r and g are the fresh
    residuals of x and z rather than the incrementally maintained ones.
    """
    method = METHODS[state.kind]
    tol = config.tol
    frob_sq = caches.norms.frob_sq
    frob = math.sqrt(frob_sq)
    primary, dual = _residual_norms(state)
    if not method.rows:
        z_norm = float(np.linalg.norm(state.z))
        return z_norm == 0.0 or dual <= tol * frob_sq * z_norm
    x_norm = float(np.linalg.norm(state.x))
    if x_norm == 0.0:
        # The bounds below scale with ||A||_F ||x||, which vanishes here;
        # ||b|| takes its place, as both measure vectors the size of A x.
        # So b orthogonal to range(A) (x_star = 0) stops at x = 0, z = b.
        b_norm = float(np.linalg.norm(problem.b))
        primary_bound, dual_bound = tol * b_norm, tol * frob * b_norm
    else:
        primary_bound, dual_bound = tol * frob * x_norm, tol * frob_sq * x_norm
    return primary <= primary_bound and (not method.cols or dual <= dual_bound)


def _current_rse(state, problem):
    if state.x is None or problem.x_star is None:
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
                history.append((state.k, *_residual_norms(state), _current_rse(state, problem)))
            if converged(state, problem, caches, config):
                done = True
                break
    wall = time.perf_counter() - t0
    # The loop ends on a check, and the initial r and g are already fresh.
    primary, dual = _residual_norms(state)
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
