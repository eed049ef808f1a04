"""The iterative methods as uniform step functions over SolverState.

One step takes each axis the kind steps on in turn, rows first, each an
AxisCache that build_caches plans once per run: it selects one or two
lines, then steps x against r = b - z - Ax (rows) or z against s = -A^T z
(columns), the residual of A^T z = 0.  A row step writes only x and r,
which no column selection reads, and no step draws from the generator; so
both axes pick from the state at the start of the step, and the row step's
b_i - z_i uses the pre-step z.

A kind keeps the shifted residual r = b - z - Ax of its row axis, or the
dual residual s = -A^T z of its column axis, up to date only where it pays:
when its rule reads the whole axis (greedy, argmax), or when the cached
Gram matrix of that axis, the shorter one of a dense A, updates it from
two of its rows in O(min(m, n)).  Otherwise a step forms just the entries
it reads from x and z: r_i = b_i - z_i - a_i x for the drawn or sampled
rows, s_j = -a_j^T z for the drawn or sampled columns.  So the norm rules
(REK, TREK_ALT, TREKS, RK, TRKS) and the sampled top rule (TSREKS, TSRKS)
pay per step for the lines they draw or sample, not for a product with A.
Every convergence check recomputes r and s from x and z, which also
flushes drift.

Every weighted rule draws from one CDF over its domain: by squared norm
(norm, norm_sample) or by squared residual (greedy).  A pair's second line
is one more draw from that CDF that steps over the first line's interval,
which is the law of redrawing until the two differ.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import rng as rngmod
from .linalg import build_norm_cache, combine_lines
from .selection import (
    build_index_set,
    cumulative_weights,
    greedy_threshold,
    pick_from_cdf,
    scores_from_residual,
    simple_random_sample,
    top_two,
)
from .updates import two_dim_row_coeffs


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
    cols: bool  # steps z against s = -A^T z


_ROWS = {
    "REK": Method("norm", pair=False, rows=True, cols=True),
    "TREK_ALT": Method("norm", pair=True, rows=True, cols=True),
    "TREKS": Method("norm_sample", pair=True, rows=True, cols=True),
    "GREK": Method("greedy", pair=False, rows=True, cols=True),
    "SREK": Method("argmax", pair=False, rows=True, cols=True),
    "TGREK": Method("greedy", pair=True, rows=True, cols=True),
    "TSREK": Method("argmax", pair=True, rows=True, cols=True),
    "TSREKS": Method("top_sample", pair=True, rows=True, cols=True),
    "RK": Method("norm", pair=False, rows=True, cols=False),
    "TRKS": Method("norm_sample", pair=True, rows=True, cols=False),
    "TGRK": Method("greedy", pair=True, rows=True, cols=False),
    "TSRK": Method("argmax", pair=True, rows=True, cols=False),
    "TSRKS": Method("top_sample", pair=True, rows=True, cols=False),
    "GPROJ": Method("greedy", pair=False, rows=False, cols=True),
    "SPROJ": Method("argmax", pair=False, rows=False, cols=True),
}
SolverKind = Enum("SolverKind", {name: name for name in _ROWS}, module=__name__, type=str)
METHODS = {SolverKind(name): m for name, m in _ROWS.items()}
# The rules that read the whole residual of an axis; the others read the
# lines they draw or sample.
_WHOLE_AXIS_RULES = ("greedy", "argmax")
_SAMPLE_RULES = ("norm_sample", "top_sample")
# The rules that take the top score(s); the others draw from a CDF.
_TOP_RULES = ("argmax", "top_sample")

EXTENDED_KINDS = frozenset(k for k, m in METHODS.items() if m.rows and m.cols)
CONSISTENT_KINDS = frozenset(k for k, m in METHODS.items() if not m.cols)
PROJECTION_KINDS = frozenset(k for k, m in METHODS.items() if not m.rows)
# The kinds that read StopConfig.fraction.
SAMPLING_KINDS = frozenset(k for k, m in METHODS.items() if m.rule in _SAMPLE_RULES)


@dataclass
class StopConfig:
    """The run settings, and the one place their defaults are stated."""

    tol: float = 1e-5
    check_every: int | None = None  # default min(m, n)
    max_iters: int | None = None  # default 200 * min(m, n)
    fraction: float = 0.01  # sampling fraction for the *S methods

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.check_every is not None and self.check_every < 1:
            raise ValueError(f"check_every must be at least 1, got {self.check_every}")
        if self.max_iters is not None and self.max_iters < 0:
            raise ValueError(f"max_iters must be at least 0, got {self.max_iters}")


class AxisCache:
    """How one kind selects and steps on one axis (rows or columns) of A, planned once per run."""

    def __init__(self, A, row, method, norms):
        self.row = row
        self.rule, self.pair = method.rule, method.pair
        steps = method.rows if row else method.cols
        self.sq_norms = sq_norms = norms.row_sq_norms if row else norms.col_sq_norms
        # A A^T for rows, A^T A for columns, where the kind steps on the
        # shorter axis of a dense A (the columns when m = n): it updates the
        # residual at O(min(m, n)) per step, for at most one more copy of A.
        self.gram = None
        if steps and not A.is_sparse and (A.rows < A.cols if row else A.cols <= A.rows):
            values = A.values
            self.gram = values @ values.T if row else values.T @ values
        # Whether the kind keeps this axis's residual (r or s) up to date: it
        # steps on the axis, and its rule reads the whole residual or gram
        # updates it.  Otherwise a step forms only the entries it reads.
        self.kept = steps and (self.rule in _WHOLE_AXIS_RULES or self.gram is not None)
        self.positive = sq_norms > 0
        self.nonzero = np.flatnonzero(self.positive)
        # The norm rule's draw over nonzero, built once.
        self.cdf = cumulative_weights(sq_norms[self.nonzero]) if self.nonzero.size else None
        # Buffers the greedy and argmax rules score into, step after step.
        self.residual_sq = np.empty_like(sq_norms)
        self.scores = np.zeros_like(sq_norms)
        # The line kernels: entries of Ax or A^T z, one pair's inner product,
        # a combination of lines, and the product that updates the residual.
        if row:
            self.dots, self.pair_dot = A.row_dots, A.row_pair_dot
            self.combination, self.product = A.row_combination, A.matvec
        else:
            self.dots, self.pair_dot = A.col_dots, A.col_pair_dot
            self.combination, self.product = A.col_combination, A.rmatvec


@dataclass
class ProblemCaches:
    norms: object
    rows: AxisCache
    cols: AxisCache
    axes: tuple  # the axes the kind steps on, rows first


def build_caches(A, kind) -> ProblemCaches:
    """Norms of A and, once per run, the plan of each axis for kind."""
    method = METHODS[SolverKind(kind)]
    norms = build_norm_cache(A)
    rows, cols = AxisCache(A, True, method, norms), AxisCache(A, False, method, norms)
    return ProblemCaches(norms, rows, cols, (rows,) * method.rows + (cols,) * method.cols)


@dataclass
class SolverState:
    kind: SolverKind
    x: np.ndarray | None  # None without row steps
    z: np.ndarray | None  # None without column steps
    r: np.ndarray | None  # b - z - Ax (b - Ax without z); None without x
    s: np.ndarray | None  # -A^T z; None without z
    k: int
    rng: np.random.Generator

    @classmethod
    def initial(cls, kind, problem, seed=0):
        kind = SolverKind(kind)
        method = METHODS[kind]
        m, n = problem.A.shape
        b = np.asarray(problem.b, dtype=np.float64)
        gen = rngmod.stream(seed, rngmod.method_tag(kind.value))
        x = z = r = s = None
        if method.cols:
            z = b.copy()
            s = -problem.A.rmatvec(z)
        if method.rows:
            x = np.zeros(n)
            # x0 = 0, so r0 = b - z0: exactly 0 when z0 = b.
            r = np.zeros(m) if method.cols else b.copy()
        return cls(kind, x, z, r, s, 0, gen)

    def refresh(self, problem):
        """Recompute the maintained residual vectors from x and z."""
        A, b = problem.A, problem.b
        if self.x is not None:
            self.r = (b if self.z is None else b - self.z) - A.matvec(self.x)
        if self.z is not None:
            self.s = -A.rmatvec(self.z)


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
    history: list  # (k, primary, dual, rse) at every check


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


def _entries(ax, state, problem, idx):
    """Entries idx (an index array) of r for a row axis, of s = -A^T z for a column axis.

    A kept residual is read; otherwise r_i = b_i - z_i - a_i x (b_i - a_i x
    without z) and s_j = -a_j^T z are formed from the current x and z.
    """
    if ax.kept:
        return (state.r if ax.row else state.s)[idx]
    if ax.row:
        b = problem.b[idx]
        return (b if state.z is None else b - state.z[idx]) - ax.dots(idx, state.x)
    return -ax.dots(idx, state.z)


def _select(ax, state, problem, caches, config):
    """The chosen lines of the axis ax, (i,) or a distinct pair (i1, i2); None to skip.

    A row axis scores r against row norms; a column axis scores s = -A^T z
    against column norms.  The domain is the nonzero lines of the axis, a
    simple random sample of them (an axis of one line is its own sample) or
    the greedy index set.  The pick is a CDF draw over the domain or its
    top score(s); a domain of one line gives a 1-D step.  All scores zero
    (a zero residual) means no-op.
    """
    rule, rng = ax.rule, state.rng
    domain = ax.nonzero
    if rule in _SAMPLE_RULES and ax.sq_norms.size > 1:
        sample = simple_random_sample(ax.sq_norms.size, config.fraction, rng)
        domain = sample[ax.positive[sample]]
    if domain.size == 0:
        return None

    if rule in _WHOLE_AXIS_RULES:
        residual = state.r if ax.row else state.s
        residual_sq, scores = scores_from_residual(
            residual, ax.sq_norms, (ax.residual_sq, ax.scores), ax.positive
        )
        # Zero-norm lines score 0, so top is also the top line of the domain.
        top = int(scores.argmax())
        if scores[top] <= 0.0:
            return None
        if rule == "greedy":
            total_sq = float(residual_sq.sum())
            bound = greedy_threshold(float(scores[top]), total_sq, caches.norms.frob_sq) * total_sq
            domain = build_index_set(residual_sq, ax.sq_norms, ax.positive, bound, top)
        elif domain.size < scores.size:
            scores = scores[domain]
    elif rule == "top_sample":
        residual = _entries(ax, state, problem, domain)
        _, scores = scores_from_residual(residual, ax.sq_norms[domain])
        top = int(scores.argmax())
        if scores[top] <= 0.0:
            return None
        top = int(domain[top])

    single = not ax.pair or domain.size == 1
    if rule in _TOP_RULES:
        return (top,) if single else top_two(scores, domain)
    if rule == "greedy":
        cdf = cumulative_weights(residual_sq[domain])
    else:
        cdf = ax.cdf if rule == "norm" else cumulative_weights(ax.sq_norms[domain])
    k1 = pick_from_cdf(cdf, rng)
    if single:
        return (int(domain[k1]),)
    return int(domain[k1]), int(domain[pick_from_cdf(cdf, rng, k1)])


# ---------------------------------------------------------------------------
# Update application with incremental residual maintenance


def _axis_step(state, problem, caches, ax, idx):
    """Step on the lines idx of the axis ax, as _select returns them: (i1,) or (i1, i2).

    A row step moves x by a combination of rows that zeroes the chosen
    entries of r, a column step z by a combination of columns that zeroes
    the chosen entries of s = -A^T z: one 2x2 system on the Gram entries of
    the pair, or the 1-D step on i1 when the pair is parallel.  Only the
    residuals the kind keeps are updated: from the Gram rows of the chosen
    lines where the axis has them, else with one product.
    """
    i1 = idx[0]
    chosen = _entries(ax, state, problem, np.array(idx))
    r1, n1 = float(chosen[0]), float(ax.sq_norms[i1])
    coeffs = None
    if len(idx) == 2:
        i2 = idx[1]
        n2, r2 = float(ax.sq_norms[i2]), float(chosen[1])
        coeffs = two_dim_row_coeffs(ax.pair_dot(i1, i2), n1, n2, r1, r2)
    if coeffs is None:
        c = r1 / n1
        if c == 0.0:
            return
        idx, coeffs = (i1,), (c,)
    move = ax.combination(idx, coeffs)
    iterate, residual = (state.x, state.r) if ax.row else (state.z, state.s)
    iterate += move
    if not ax.row and caches.rows.kept:
        state.r -= move
    if ax.kept:
        residual -= ax.product(move) if ax.gram is None else combine_lines(ax.gram, idx, coeffs)


def step(state, problem, caches, config):
    """Advance the state by exactly one iteration of its method, on caches built for its kind."""
    for ax in caches.axes:
        idx = _select(ax, state, problem, caches, config)
        if idx is not None:
            _axis_step(state, problem, caches, ax, idx)
    state.k += 1
    return state


# ---------------------------------------------------------------------------
# Stopping rule and driver


def _residual_norms(state):
    """(primary, dual) norms of the state's r and s; nan where not kept."""
    return tuple(math.nan if v is None else float(np.linalg.norm(v)) for v in (state.r, state.s))


def converged(state, problem, caches, config, norms=None):
    """The stopping criteria for the state's method, on its r and s.

    The caller refreshes the state first, so r and s are the fresh
    residuals of x and z rather than the incrementally maintained ones.
    norms, when given, is their _residual_norms pair.
    """
    tol = config.tol
    frob_sq = caches.norms.frob_sq
    frob = math.sqrt(frob_sq)
    primary, dual = norms or _residual_norms(state)
    if state.x is None:
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
    return primary <= primary_bound and (state.z is None or dual <= dual_bound)


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
        norms = _residual_norms(state)
        done = converged(state, problem, caches, config, norms)
    for _ in range(max_iters):
        step(state, problem, caches, config)
        if state.k % check_every == 0 or state.k == max_iters:
            state.refresh(problem)
            norms = _residual_norms(state)
            history.append((state.k, *norms, _current_rse(state, problem)))
            if converged(state, problem, caches, config, norms):
                done = True
                break
    wall = time.perf_counter() - t0
    # The record takes the last check's norms (of the fresh initial r and s at 0 steps).
    primary, dual = norms
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
