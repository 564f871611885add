"""Step-down procedures: weighted Holm (WHP), alternative weighted Holm (WAP)
and the conventional unweighted Holm baseline.

WHP orders hypotheses by weighted p-values p_i/w_i and tests the j-th ordered
hypothesis against alpha / (tail sum of ordered weights).  WAP orders by raw
p-values and tests against (w_(j) / tail sum) * alpha.  Both stop at the first
index that fails its threshold.

Both procedures evaluate their threshold in one float form, `p/w <= alpha/tail`
(the trace still reports the raw-scale threshold `w*alpha/tail`).  Writing
WAP's test as `p <= w*alpha/tail` instead rounds differently at the boundary:
p = 0.05, w = 5.375 alone in its tail gives `5.375*0.05/5.375` = 0.04999...96,
so WAP kept a hypothesis that WHP rejected on the same ordering.  With one form,
equal orderings give equal decisions and WAP's rejections stay inside WHP's.

`whp_stepdown`, `wap_stepdown` and `holm_stepdown` decide one problem and
record the trace.  `batch_stepdown` decides many rows at once for the Monte
Carlo engine; it evaluates the same float expressions, so its decisions equal
the per-problem ones bit for bit.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from .core import (OrderingKey, RejectionSet, TestingProblem, order,
                   validate_problem, weighted_pvalues)


class Procedure(Enum):
    HOLM = "holm"
    WHP = "whp"
    WAP = "wap"


def _tail_weight_sums(weights_in_rank_order):
    # Accumulated from the last rank upward so the summation order is fixed.
    m = len(weights_in_rank_order)
    tails = [0.0] * m
    acc = 0.0
    for j in range(m - 1, -1, -1):
        acc += weights_in_rank_order[j]
        tails[j] = acc
    return tails


def whp_stepdown(problem: TestingProblem) -> RejectionSet:
    """Weighted Holm: reject while the ordered weighted p-value stays at or
    below alpha divided by the remaining weight mass."""
    tilde = weighted_pvalues(problem).tilde_p
    perm = order(tilde, OrderingKey.WEIGHTED).perm
    tails = _tail_weight_sums([problem.w[i] for i in perm])
    trace = []
    for j, idx in enumerate(perm):
        if tilde[idx] <= problem.alpha / tails[j]:
            # raw-scale threshold, guaranteed in (0, 1)
            trace.append((j + 1, idx, problem.w[idx] * problem.alpha / tails[j]))
        else:
            break
    return RejectionSet(rejected=frozenset(i for _, i, _ in trace), trace=tuple(trace))


def wap_stepdown(problem: TestingProblem) -> RejectionSet:
    """Alternative weighted Holm: raw p-value ordering, weight-share thresholds."""
    perm = order(problem.p, OrderingKey.RAW).perm
    tails = _tail_weight_sums([problem.w[i] for i in perm])
    trace = []
    for j, idx in enumerate(perm):
        if problem.p[idx] / problem.w[idx] <= problem.alpha / tails[j]:
            trace.append((j + 1, idx, problem.w[idx] * problem.alpha / tails[j]))
        else:
            break
    return RejectionSet(rejected=frozenset(i for _, i, _ in trace), trace=tuple(trace))


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
    stable sort, tail sums accumulate from the last rank upward, and the
    comparison is the scalar code's `p/w <= alpha/tail`.  Only the shape of
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
    w_ranked = np.take_along_axis(w, perm, axis=1)
    tails = np.cumsum(w_ranked[:, ::-1], axis=1)[:, ::-1]
    passed = np.take_along_axis(tilde, perm, axis=1) <= alpha / tails
    # a rank is rejected only if every rank before it passed as well
    rejected_ranks = np.logical_and.accumulate(passed, axis=1)
    mask = np.empty_like(rejected_ranks)
    np.put_along_axis(mask, perm, rejected_ranks, axis=1)
    return mask
