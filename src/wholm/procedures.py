"""Step-down procedures: weighted Holm (WHP), alternative weighted Holm (WAP)
and the conventional unweighted Holm baseline.

WHP ranks hypotheses by weighted p-values p_i/w_i, WAP by raw p-values; ties
go to the smaller index.  Both then share one rule: a hypothesis is rejected
iff its adjusted value, the running max of (p/w)_(j) * tail_j capped at 1, is
at most alpha.  In exact arithmetic the step-down threshold p/w <= alpha/tail
holds iff the product is at most alpha; in floating point the two forms round
differently at a boundary, and only the product is used, so the adjusted
reports print the very numbers the decisions were made on.

`adjust_rows` is the one kernel that ranks, sums the tails and compares with
alpha, over (R, m) rows; its ranking, `rank_rows`, is also the one closed
testing and the graph use.  The adjusted reports and `whp_stepdown`,
`wap_stepdown` and `holm_stepdown` are one-row calls of it, the step-downs
with a trace of raw-scale thresholds w*alpha/tail.  The Monte Carlo engine
and the witness searches check their own input once and call `adjust_rows`
directly, counting by rank.
`ProblemStack` holds same-size problems as the arrays that every stacked
kernel reads.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .core import OrderingKey, RejectionSet, TestingProblem, validate_problem


class Procedure(Enum):
    HOLM = "holm"
    WHP = "whp"
    WAP = "wap"


def ranking(procedure: Procedure) -> OrderingKey:
    """The ranking of WHP (p/w) or WAP (raw p)."""
    if procedure is Procedure.WHP:
        return OrderingKey.WEIGHTED
    if procedure is Procedure.WAP:
        return OrderingKey.RAW
    raise ValueError(f"a ranking is defined for WHP or WAP, got {procedure}")


def rank_rows(p: np.ndarray, tilde: np.ndarray, key: OrderingKey) -> np.ndarray:
    """The index at each rank of each row of `p` (R, m): a stable argsort of
    the weighted p-values `tilde` = p/w (WEIGHTED) or of p (RAW), so ties go
    to the smaller index.  This is the one ranking of the step-downs, closed
    testing and the graphical run."""
    return np.argsort(tilde if key is OrderingKey.WEIGHTED else p, axis=1,
                      kind="stable")


class ProblemStack(NamedTuple):
    """Problems of one size m as arrays, one problem per row: (P, m)
    p-values and weights, and (P,) alphas.  `adjust_rows`,
    `closure.ClosedStack` and the graph's walk all read it."""

    p: np.ndarray
    w: np.ndarray
    alpha: np.ndarray

    @classmethod
    def of(cls, problems: Sequence[TestingProblem]) -> "ProblemStack":
        if len({problem.m for problem in problems}) != 1:
            raise ValueError("a stack holds one or more problems of one size")
        return cls(np.array([problem.p for problem in problems]),
                   np.array([problem.w for problem in problems]),
                   np.array([problem.alpha for problem in problems]))

    @property
    def m(self) -> int:
        return self.p.shape[1]


def adjust_rows(p, w, alpha, key: OrderingKey):
    """Rank each row of `p` (R, m) by p/w (WEIGHTED) or p (RAW) with
    `rank_rows`, and return four (R, m) arrays by rank: the index at each
    rank, the tail weights (summed from the last rank upward), the adjusted
    values and the rejections, adjusted value <= alpha, a prefix of each
    row.  `w` and `alpha` (a scalar or an (R, 1) column) broadcast against
    `p`, which is taken as valid."""
    p, w = np.asarray(p, dtype=float), np.asarray(w, dtype=float)
    w = w if w.shape == p.shape else np.broadcast_to(w, p.shape)
    tilde = p / w
    perm = rank_rows(p, tilde, key)
    rows = np.arange(p.shape[0])[:, None]
    tails = np.cumsum(w[rows, perm][:, ::-1], axis=1)[:, ::-1]
    # capping the running max equals capping at every step: min/max commute
    adjusted = np.minimum(np.maximum.accumulate(tilde[rows, perm] * tails,
                                                axis=1), 1.0)
    return perm, tails, adjusted, adjusted <= alpha


def _stepdown(p: Sequence[float], w: Sequence[float], alpha: float,
              key: OrderingKey) -> RejectionSet:
    perm, tails, _, rejected = adjust_rows([p], [w], alpha, key)
    ranks = perm[0][rejected[0]].tolist()
    # raw-scale thresholds, guaranteed in (0, 1)
    trace = tuple([(j + 1, i, w[i] * alpha / tail) for j, (i, tail)
                   in enumerate(zip(ranks, tails[0].tolist()))])
    return RejectionSet(rejected=frozenset(ranks), trace=trace)


def whp_stepdown(problem: TestingProblem) -> RejectionSet:
    """Weighted Holm: reject while the ordered weighted p-value stays at or
    below alpha divided by the remaining weight mass."""
    return _stepdown(problem.p, problem.w, problem.alpha, OrderingKey.WEIGHTED)


def wap_stepdown(problem: TestingProblem) -> RejectionSet:
    """Alternative weighted Holm: raw p-value ordering, weight-share thresholds."""
    return _stepdown(problem.p, problem.w, problem.alpha, OrderingKey.RAW)


def holm_stepdown(p: Sequence[float], alpha: float) -> RejectionSet:
    """Classic Holm procedure: thresholds alpha / (m - j + 1).  Raises
    ValueError as `core.validate_problem` does for the same p and alpha."""
    m = len(p)
    problem = validate_problem(range(m), p, [1.0] * m, alpha)
    return _stepdown(problem.p, problem.w, problem.alpha, OrderingKey.WEIGHTED)
