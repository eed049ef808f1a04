"""Row/column selection rules: greedy thresholds, weighted and simple
random sampling, and deterministic argmax (semi-randomized) picks.

Scores are squared homogeneous residuals |residual_i|^2 / norm_i^2; the
greedy threshold blends the maximum score with the average so the built
index set is provably nonempty whenever the residual is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AlreadyConverged(Exception):
    """Selection was asked to act on an exactly zero residual."""


class DegenerateProblemError(ValueError):
    """Population too small to sample a distinct pair from."""


@dataclass(frozen=True)
class ScoreVector:
    """Squared homogeneous residuals along one axis.

    scores[i] = residual_sq[i] / sq_norm[i] (0 where the norm is 0);
    total_sq is the squared norm of the unnormalized residual vector.
    """

    scores: np.ndarray
    residual_sq: np.ndarray
    total_sq: float
    axis: str  # "row" | "column"


@dataclass(frozen=True)
class SampleSet:
    indices: np.ndarray
    fraction: float


def scores_from_residual(residual, sq_norms, axis):
    """Build a ScoreVector from an already-computed residual vector."""
    residual_sq = np.square(residual)
    scores = np.divide(
        residual_sq,
        sq_norms,
        out=np.zeros_like(residual_sq),
        where=sq_norms > 0,
    )
    return ScoreVector(scores, residual_sq, float(residual_sq.sum()), axis)


def greedy_threshold(s, frob_sq):
    """epsilon = (max_score / total_sq + 1 / frob_sq) / 2."""
    if s.total_sq <= 0.0:
        raise AlreadyConverged(f"{s.axis} residual is zero")
    return 0.5 * (float(s.scores.max()) / s.total_sq + 1.0 / frob_sq)


def build_index_set(s, epsilon, cache):
    """Indices with residual_sq >= epsilon * total_sq * sq_norm (norm > 0).

    Equivalently scores >= epsilon * total_sq; always contains the argmax
    because the max score is at least the weighted average total_sq/frob_sq.
    """
    sq_norms = cache.row_sq_norms if s.axis == "row" else cache.col_sq_norms
    mask = (sq_norms > 0) & (s.residual_sq >= epsilon * s.total_sq * sq_norms)
    if s.scores.max() > 0.0:
        # The argmax satisfies the inequality exactly in real arithmetic, so
        # rounding in the threshold product must not be allowed to drop it.
        mask[int(np.argmax(s.scores))] = True
    return np.flatnonzero(mask)


def _draw(index_set, p, rng):
    """One draw from index_set with probabilities p.

    The same algorithm and the same single rng.random() call as
    rng.choice(index_set, p=p), so the draws are identical, without its
    argument checks.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(index_set[cdf.searchsorted(rng.random(), side="right")])


def weighted_pick(s, index_set, rng):
    """Draw from index_set with probability proportional to residual_sq."""
    index_set = np.asarray(index_set)
    w = s.residual_sq[index_set]
    total = w.sum()
    if total <= 0.0:
        raise AlreadyConverged("all selection weights are zero")
    return _draw(index_set, w / total, rng)


def weighted_pick_norms(cache, index_set, axis, rng):
    """Draw with probability proportional to squared row/column norms."""
    index_set = np.asarray(index_set)
    sq_norms = cache.row_sq_norms if axis == "row" else cache.col_sq_norms
    w = sq_norms[index_set]
    total = w.sum()
    if total <= 0.0:
        raise AlreadyConverged("all norms in the selection set are zero")
    return _draw(index_set, w / total, rng)


def simple_random_sample(population, fraction, rng):
    """Uniform sample without replacement, size max(2, round(frac * pop))."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if population < 2:
        raise DegenerateProblemError("population must be at least 2")
    size = min(population, max(2, round(fraction * population)))
    indices = np.sort(rng.choice(population, size=size, replace=False))
    return SampleSet(indices, fraction)


def top_two(s, domain):
    """(argmax, second argmax) of scores over domain; ties -> lowest index."""
    domain = np.sort(np.asarray(domain))
    if domain.size < 2:
        raise DegenerateProblemError("top_two needs a domain of at least 2")
    vals = s.scores[domain]
    first = int(np.argmax(vals))
    rest = np.delete(np.arange(domain.size), first)
    second = int(rest[np.argmax(vals[rest])])
    return int(domain[first]), int(domain[second])
