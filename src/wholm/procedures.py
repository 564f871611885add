"""Step-down procedures: weighted Holm (WHP), alternative weighted Holm (WAP)
and the conventional unweighted Holm baseline.

WHP ranks hypotheses by weighted p-values p_i/w_i, WAP by raw p-values; ties
go to the smaller index.  Both then share one rule: a hypothesis is rejected
iff its adjusted value is at most alpha.  `rank_adjusted` computes, by rank,
the tail weight sums (accumulated from the last rank upward) and the adjusted
values, the running max of (p/w)_(j) * tail_j capped at 1.  In exact
arithmetic the step-down threshold p/w <= alpha/tail holds iff the product is
at most alpha, so keeping the ranks whose adjusted value is at most alpha is
the step-down.  In floating point the two forms round differently at a
boundary; only the product is used, so the adjusted reports print the very
numbers the decisions were made on.

`whp_stepdown`, `wap_stepdown` and `holm_stepdown` decide one problem and
record the trace, whose thresholds are reported on the raw scale,
w*alpha/tail.  `batch_stepdown` decides many rows at once for the Monte Carlo
engine; it forms the same products in the same order, so its decisions equal
the per-problem ones bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Sequence, Tuple

import numpy as np

from .core import (OrderingKey, OrderingPermutation, RejectionSet,
                   TestingProblem, order, validate_problem, weighted_pvalues)


class Procedure(Enum):
    HOLM = "holm"
    WHP = "whp"
    WAP = "wap"


@dataclass(frozen=True)
class RankedAdjustment:
    """One step-down pass, indexed by rank.

    `tails[j]` is the weight of the hypotheses at ranks j and later;
    `adjusted[j]` is the adjusted value of the hypothesis at rank j.
    """

    ordering: OrderingPermutation
    tails: Tuple[float, ...]
    adjusted: Tuple[float, ...]


def rank_adjusted(problem: TestingProblem, key: OrderingKey) -> RankedAdjustment:
    """Rank by weighted (WHP) or raw (WAP) p-values and adjust along the ranks."""
    tilde = weighted_pvalues(problem).tilde_p
    ordering = order(tilde if key is OrderingKey.WEIGHTED else problem.p, key)
    perm = ordering.perm
    # summed from the last rank upward, the order `batch_stepdown` uses too
    tails = tuple(accumulate([problem.w[i] for i in reversed(perm)]))[::-1]
    products = [tilde[i] * tail for i, tail in zip(perm, tails)]
    # capping the running max equals capping at every step: min/max commute
    adjusted = tuple([min(value, 1.0) for value in accumulate(products, max)])
    return RankedAdjustment(ordering=ordering, tails=tails, adjusted=adjusted)


def _stepdown(problem: TestingProblem, key: OrderingKey) -> RejectionSet:
    ranked = rank_adjusted(problem, key)
    perm, tails, alpha = ranked.ordering.perm, ranked.tails, problem.alpha
    # adjusted values never decrease along the ranks, so the ranks at or
    # below alpha are a prefix
    k = bisect_right(ranked.adjusted, alpha)
    # raw-scale thresholds, guaranteed in (0, 1)
    trace = tuple([(j + 1, perm[j], problem.w[perm[j]] * alpha / tails[j])
                   for j in range(k)])
    return RejectionSet(rejected=frozenset(perm[:k]), trace=trace)


def whp_stepdown(problem: TestingProblem) -> RejectionSet:
    """Weighted Holm: reject while the ordered weighted p-value stays at or
    below alpha divided by the remaining weight mass."""
    return _stepdown(problem, OrderingKey.WEIGHTED)


def wap_stepdown(problem: TestingProblem) -> RejectionSet:
    """Alternative weighted Holm: raw p-value ordering, weight-share thresholds."""
    return _stepdown(problem, OrderingKey.RAW)


def holm_stepdown(p: Sequence[float], alpha: float) -> RejectionSet:
    """Classic Holm procedure: thresholds alpha / (m - j + 1)."""
    problem = validate_problem([f"H{i + 1}" for i in range(len(p))], p,
                               [1.0] * len(p), alpha)
    return whp_stepdown(problem)


def batch_stepdown(procedure: Procedure, p, w, alpha: float) -> np.ndarray:
    """Rejection masks of WHP or WAP over rows of p-values.

    `p` has shape (R, m); `w` is broadcast against it, so one weight vector,
    an (R, m) array or the scalar 1.0 (which gives Holm) all work.  Row r of
    the result is True exactly where `whp_stepdown` (or `wap_stepdown`)
    rejects on the problem (p[r], w[r], alpha): rows are ordered with a
    stable sort, tail sums accumulate from the last rank upward, and a rank
    is rejected iff it and every rank before it have (p/w) * tail <= alpha,
    which is the scalar code's adjusted value <= alpha.  Only the shape of
    `p` is checked, not its values.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise ValueError(f"p must have shape (R, m), got {p.shape}")
    w = np.broadcast_to(np.asarray(w, dtype=float), p.shape)
    tilde = p / w
    if procedure is Procedure.WHP:
        perm = np.argsort(tilde, axis=1, kind="stable")
    elif procedure is Procedure.WAP:
        perm = np.argsort(p, axis=1, kind="stable")
    else:
        raise ValueError(f"batch_stepdown decides WHP or WAP, got {procedure}")
    rows = np.arange(p.shape[0])[:, None]
    tails = np.cumsum(w[rows, perm][:, ::-1], axis=1)[:, ::-1]
    passed = tilde[rows, perm] * tails <= alpha
    # the running max stays at or below alpha only while every rank passes
    mask = np.empty_like(passed)
    mask[rows, perm] = np.logical_and.accumulate(passed, axis=1)
    return mask
