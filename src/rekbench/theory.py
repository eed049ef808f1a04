"""Matrix constants and per-iteration contraction-rate bounds, plus
Monte-Carlo machinery to compare empirical contraction against them.

Coherence extremes (delta, Delta and their column analogs) come from an
exact pairwise scan up to the oracle cap; tau quantities are the Frobenius
norm squared minus extreme row/column norms; lambda_min is the smallest
nonzero eigenvalue of the Gram matrix.  TheoryConstants also carries
|A|_F^2, so every rate is a function of the constants alone.  Rates that
evaluate below zero (vacuous bounds, possible for near-orthogonal
systems) are clamped to 0 and flagged by name rather than reported
silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .linalg import _dense_values, _gram_extremes, build_norm_cache
from .problems import project_off_range
from .solvers import (
    CONSISTENT_KINDS,
    SolverKind,
    SolverState,
    StopConfig,
    build_caches,
    step,
)
from .updates import pair_geometry_from

_BLOCK = 256


@dataclass(frozen=True)
class TheoryConstants:
    delta: float
    Delta: float
    delta_t: float
    Delta_t: float
    tau_min: float
    tau_max: float
    tau_t_min: float
    tau_t_max: float
    t: float
    frob_sq: float
    lambda_min: float
    lambda_max: float
    D: float
    D_t: float
    rows_have_parallel_pair: bool
    cols_have_parallel_pair: bool


@dataclass(frozen=True)
class BoundRates:
    thm1_beta: float
    thm2_alpha: float
    thm2_beta: float
    thm2_prefactor: float
    thm3_beta_hat: float
    thm4_alpha_hat: float
    thm4_beta_hat: float
    thm4_prefactor: float
    thm7_alpha1: float
    thm7_beta1: float
    thm8_alpha1_t: float | None
    thm8_beta1_t: float | None
    vacuous: tuple = ()
    raw: dict = field(default_factory=dict)


def _coherence_extremes(dense):
    """(min, max) |cos angle| over distinct nonzero rows of a dense array."""
    norms = np.linalg.norm(dense, axis=1)
    keep = np.flatnonzero(norms > 0)
    if keep.size < 2:
        return 0.0, 0.0
    unit = dense[keep]  # a copy, normalized in place
    unit /= norms[keep][:, None]
    lo, hi = np.inf, 0.0
    for start in range(0, unit.shape[0], _BLOCK):
        block = unit[start : start + _BLOCK]
        prods = block @ unit.T
        np.abs(prods, out=prods)
        # Mask the self-pairs on this block's diagonal strip.
        diag = np.arange(block.shape[0])
        prods[diag, start + diag] = np.nan
        lo = min(lo, np.nanmin(prods))
        hi = max(hi, np.nanmax(prods))
    return float(min(lo, 1.0)), float(min(hi, 1.0))


def _coherence_combination(lo, hi):
    return min(lo * lo * (1 - lo) / (1 + lo), hi * hi * (1 - hi) / (1 + hi))


def compute_constants(A):
    """Exact TheoryConstants of A, from every row pair and every column pair."""
    # First: the oracle cap refuses A before any scan, and a sparse A is densified once.
    dense = _dense_values(A)
    lam_min, lam_max = _gram_extremes(dense)
    norms = build_norm_cache(A)
    frob_sq = norms.frob_sq
    delta, Delta = _coherence_extremes(dense)
    delta_t, Delta_t = _coherence_extremes(dense.T)
    row_sq = norms.row_sq_norms[norms.row_sq_norms > 0]
    col_sq = norms.col_sq_norms[norms.col_sq_norms > 0]
    return TheoryConstants(
        delta=delta,
        Delta=Delta,
        delta_t=delta_t,
        Delta_t=Delta_t,
        tau_min=float(frob_sq - row_sq.max()) if row_sq.size else 0.0,
        tau_max=float(frob_sq - row_sq.min()) if row_sq.size else 0.0,
        tau_t_min=float(frob_sq - col_sq.max()) if col_sq.size else 0.0,
        tau_t_max=float(frob_sq - col_sq.min()) if col_sq.size else 0.0,
        t=float(row_sq.min()) if row_sq.size else 0.0,
        frob_sq=frob_sq,
        lambda_min=lam_min,
        lambda_max=lam_max,
        D=_coherence_combination(delta, Delta),
        D_t=_coherence_combination(delta_t, Delta_t),
        rows_have_parallel_pair=pair_geometry_from(Delta, 1.0, 1.0).parallel,
        cols_have_parallel_pair=pair_geometry_from(Delta_t, 1.0, 1.0).parallel,
    )


def _greedy_rate(c, tau, weight):
    """1 - weight * (|A|_F^2 / tau + 1) * lambda_min / |A|_F^2; 0 when tau = 0.

    The greedy contraction factor: weight 1/2 for the 1-D greedy rules,
    1 / (1 + Delta) for their 2-D pairs.  tau = 0 is the degenerate case of
    a single nonzero line on the axis.
    """
    return 1.0 - weight * (c.frob_sq / tau + 1.0) * c.lambda_min / c.frob_sq if tau > 0 else 0.0


def _argmax_rate(c, tau):
    """1 - lambda_min / tau, the largest-score contraction factor; 0 when tau = 0."""
    return 1.0 - c.lambda_min / tau if tau > 0 else 0.0


def rates_all(c, c_omega_rows=None, c_omega_cols=None):
    """All computable bound rates and prefactors.

    Bounds whose constants are purely existential (no computable value)
    are excluded; the data-informed rates thm8_* are evaluated only when
    an empirical (c, omega) pair is supplied for the respective axis.
    """
    raw = {}
    raw["thm1_beta"] = _greedy_rate(c, c.tau_t_max, 0.5)
    raw["thm2_beta"] = raw["thm1_beta"]
    raw["thm2_alpha"] = _greedy_rate(c, c.tau_max, 0.5)
    raw["thm2_prefactor"] = 1.0 + 2.0 * c.frob_sq / c.t if c.t > 0 else math.inf
    raw["thm3_beta_hat"] = _argmax_rate(c, c.tau_t_max)
    raw["thm4_alpha_hat"] = _argmax_rate(c, c.tau_max)
    raw["thm4_beta_hat"] = raw["thm3_beta_hat"]
    raw["thm4_prefactor"] = 1.0 + 2.0 * c.tau_max / c.t if c.t > 0 else math.inf
    raw["thm7_alpha1"] = _greedy_rate(c, c.tau_max, 1.0 / (1.0 + c.Delta))
    raw["thm7_beta1"] = _greedy_rate(c, c.tau_t_max, 1.0 / (1.0 + c.Delta_t))

    def _thm8(tau, delta, c_omega):
        if c_omega is None or tau <= 0:
            return None
        c_val, omega = c_omega
        denom = c_val * c_val * (1.0 - delta * delta)
        if denom <= 0:
            return None
        return 1.0 - c.lambda_min / tau - (c.lambda_min / tau) * (omega / denom)

    raw["thm8_alpha1_t"] = _thm8(c.tau_max, c.delta, c_omega_rows)
    raw["thm8_beta1_t"] = _thm8(c.tau_t_max, c.delta_t, c_omega_cols)

    vacuous = tuple(
        name
        for name, val in raw.items()
        if val is not None and not name.endswith("prefactor") and val < 0.0
    )
    clamped = {
        name: (max(0.0, val) if val is not None and not name.endswith("prefactor") else val)
        for name, val in raw.items()
    }
    return BoundRates(vacuous=vacuous, raw=raw, **clamped)


# |e|^2 / |e_0|^2 at which an error is rounding noise: |e| = 1e-12 |e_0|,
# some 4500 units in the last place of |e_0|.
ROUNDING_FLOOR = 1e-24


def empirical_contraction(kind, problem, trials, steps, seed=0):
    """Per-step mean error-contraction ratios with standard errors.

    The error is z - b_perp for projection/extended methods and x - x_star
    for consistent-system row methods; ratios are |e_j|^2 / |e_{j-1}|^2
    averaged over trials.  A step is skipped where the previous error has
    already reached the rounding floor: |e|^2 at most ROUNDING_FLOOR times
    the trial's first |e_0|^2, where what is left is rounding noise that
    the method cannot contract.
    """
    kind = SolverKind(kind)
    config = StopConfig()
    caches = build_caches(problem.A, kind)
    consistent = kind in CONSISTENT_KINDS
    if consistent:
        if problem.x_star is None:
            raise ValueError("consistent-method contraction needs x_star")
        target = problem.x_star
    elif problem.r is None and problem.x_star is None:
        target = project_off_range(problem.A, problem.b)
    else:  # r, or b - A x_star as LsProblem.validate takes it
        target = problem.b - problem.A.matvec(problem.x_star) if problem.r is None else problem.r

    def error_sq(state):
        return float(np.sum(((state.x if consistent else state.z) - target) ** 2))

    ratios = np.full((steps, trials), np.nan)
    for trial in range(trials):
        state = SolverState.initial(kind, problem, rngmod.cell_seed(seed, kind.value, 0, trial))
        prev = error_sq(state)
        floor = max(ROUNDING_FLOOR * prev, 1e-300)
        for j in range(steps):
            step(state, problem, caches, config)
            cur = error_sq(state)
            if prev > floor:
                ratios[j, trial] = cur / prev
            prev = cur
    means = np.full(steps, np.nan)
    stderrs = np.full(steps, np.nan)
    for j in range(steps):
        vals = ratios[j][~np.isnan(ratios[j])]
        if vals.size:
            means[j] = vals.mean()
            stderrs[j] = (vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
    return means, stderrs
