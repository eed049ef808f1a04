"""Row/column selection rules: greedy thresholds, weighted and simple
random sampling, and deterministic argmax (semi-randomized) picks.

Every function works on the plain arrays of one axis: its residual, its
squared line norms and index arrays into them.  Scores are squared
homogeneous residuals |residual_i|^2 / norm_i^2; the greedy threshold
blends the maximum score with the average so the built index set is
provably nonempty whenever the residual is nonzero.
"""

from __future__ import annotations

import numpy as np


def scores_from_residual(residual, sq_norms, out=None, positive=None):
    """(residual_sq, scores), scores = residual_sq / sq_norms (0 where the norm is 0).

    out, a (residual_sq, scores) pair of buffers sized like residual whose
    scores are 0 where the norm is 0, receives the result in place of two
    new arrays; positive is sq_norms > 0, when the caller holds it.
    """
    if positive is None:
        positive = sq_norms > 0
    if out is None:
        out = (None, np.zeros(np.shape(residual)))
    residual_sq = np.square(residual, out=out[0])
    scores = np.divide(residual_sq, sq_norms, out=out[1], where=positive)
    return residual_sq, scores


def greedy_threshold(max_score, total_sq, frob_sq):
    """epsilon = (max_score / total_sq + 1 / frob_sq) / 2.

    total_sq is the sum of residual_sq, the squared norm of the residual,
    and must be positive.
    """
    return 0.5 * (max_score / total_sq + 1.0 / frob_sq)


def build_index_set(residual_sq, sq_norms, positive, bound, argmax):
    """Indices with residual_sq >= bound * sq_norm (norm > 0), plus argmax.

    positive is sq_norms > 0.  bound is epsilon * total_sq, so the test is
    scores >= epsilon * total_sq; argmax, the index of the largest score,
    always satisfies it because the max score is at least the weighted
    average total_sq / frob_sq.
    """
    mask = positive & (residual_sq >= bound * sq_norms)
    # The argmax satisfies the inequality exactly in real arithmetic, so
    # rounding in the threshold product must not be allowed to drop it.
    mask[argmax] = True
    return mask.nonzero()[0]


def cumulative_weights(weights):
    """The CDF of a draw proportional to weights (positive sum), as rng.choice builds it."""
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def pick_from_cdf(cdf, rng, skip=None):
    """Position drawn by cdf with one rng.random(), as rng.choice draws it.

    skip, a position of a cdf of two or more, is left out: the uniform is
    scaled onto the rest of [0, 1) and stepped over skip's interval, so the
    other positions keep their relative weights.  That is the law of redrawing
    until the draw differs from skip, with the other positions' weights
    resolved to the absolute precision of cdf.
    """
    u = rng.random()
    if skip is None:
        return int(cdf.searchsorted(u, side="right"))
    lo = cdf[skip - 1] if skip else 0.0
    width = cdf[skip] - lo
    t = u * (1.0 - width)
    last = cdf.size - 1
    # The clamps keep rounding at the edges of skip's interval off skip.
    if t < lo or skip == last:
        return min(int(cdf[:skip].searchsorted(t, side="right")), skip - 1)
    after = int(cdf[skip + 1 :].searchsorted(t + width, side="right"))
    return skip + 1 + min(after, last - skip - 1)


def weighted_pick(residual_sq, index_set, rng):
    """Draw from index_set with probability proportional to residual_sq.

    The same algorithm and the same single rng.random() call as
    rng.choice(index_set, p=w / w.sum()), so the draws are identical,
    without its argument checks.
    """
    index_set = np.asarray(index_set)
    return int(index_set[pick_from_cdf(cumulative_weights(residual_sq[index_set]), rng)])


def weighted_pick_norms(sq_norms, index_set, rng):
    """Draw from index_set with probability proportional to squared line norms."""
    return weighted_pick(sq_norms, index_set, rng)


def simple_random_sample(population, fraction, rng):
    """Sorted uniform sample without replacement, size max(2, round(frac * pop)); pop >= 2."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    size = min(population, max(2, round(fraction * population)))
    sample = rng.choice(population, size=size, replace=False)
    sample.sort()
    return sample


def top_two(scores, sorted_domain):
    """(first, second) of sorted_domain by score; ties -> lowest index.

    scores[k] is the score of sorted_domain[k]; the domain holds at least 2.
    """
    domain = np.asarray(sorted_domain)
    vals = np.array(scores, dtype=np.float64)
    first = int(vals.argmax())
    vals[first] = -np.inf
    return int(domain[first]), int(domain[vals.argmax()])
