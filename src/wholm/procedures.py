"""Step-down procedures: weighted Holm (WHP), alternative weighted Holm (WAP)
and the conventional unweighted Holm baseline.

WHP ranks hypotheses by weighted p-values p_i/w_i, WAP by raw p-values; ties
go to the smaller index.  Both then share one rule: a hypothesis is rejected
iff its adjusted value, the running max of (p/w)_(j) * tail_j capped at 1, is
at most alpha.  In exact arithmetic the step-down threshold p/w <= alpha/tail
holds iff the product is at most alpha; in floating point the two forms round
differently at a boundary, and only the product is used, so the adjusted
reports print the very numbers the decisions were made on.

`rank` ranks (R, m) rows, with the one argsort, `rank_rows`, and returns a
`Ranked` view: the ranking, its flat index, and the p-values and weights by
rank, from which p/w is derived.  `rank` is the one place a ranking key is
read, and the view is the one input through which every engine reads a
problem: the kernel `adjust_rows`, closed testing and the graph each take a
view and the alphas, and none ranks, builds a flat index or reads a p-value
or weight in hypothesis order again.  `adjust_rows` is the one kernel that
sums the tails of a view and compares with alpha.  Each front door ranks
once and hands its view to every engine it calls: the adjusted reports and
`whp_stepdown`, `wap_stepdown` and `holm_stepdown` are one-row calls, the
step-downs with a trace of raw-scale thresholds w*alpha/tail, and the
Monte Carlo engine and the witness searches check their own input once,
rank it and call `adjust_rows` directly.  Decisions pass between modules in
hypothesis order, moved there from rank order by the view's flat index.
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
    testing and the graphical run, called only by `rank`."""
    return np.argsort(tilde if key is OrderingKey.WEIGHTED else p, axis=1,
                      kind="stable")


class Ranked(NamedTuple):
    """(R, m) rows ranked by `rank`: the index at each rank `perm`, the flat
    index `flat` into (R, m) arrays in hypothesis order of each rank (`take`
    reads by rank, `put` writes back), and the p-values `p` and weights `w`
    by rank.  The weighted p-values by rank, `tilde`, are derived: division
    is elementwise, so they are the bits of p/w gathered by rank, also for a
    view rebuilt with `_replace`."""

    perm: np.ndarray
    flat: np.ndarray
    p: np.ndarray
    w: np.ndarray

    @property
    def tilde(self) -> np.ndarray:
        return self.p / self.w


def rank(p, w, key: OrderingKey) -> Ranked:
    """Each row of `p` (R, m) ranked by p/w (WEIGHTED) or p (RAW) with
    `rank_rows`, as a `Ranked` view; `w` broadcasts against `p`, and p/w is
    formed only under WEIGHTED.  A `key` that is not an `OrderingKey`
    raises ValueError."""
    if not isinstance(key, OrderingKey):
        raise ValueError(f"a ranking key must be an OrderingKey, got {key!r}")
    p, w = np.asarray(p, dtype=float), np.asarray(w, dtype=float)
    w = w if w.shape == p.shape else np.broadcast_to(w, p.shape)
    perm = rank_rows(p, p / w if key is OrderingKey.WEIGHTED else None, key)
    flat = perm + np.arange(0, perm.size, perm.shape[1])[:, None]
    return Ranked(perm, flat, p.take(flat), w.take(flat))


def adjust_rows(ranked: Ranked, alpha):
    """The decisions of the (R, m) rows of a `rank` view, as three (R, m)
    arrays: by rank, the tail weights (summed from the last rank upward); in
    hypothesis order, the adjusted values and the rejections, adjusted value
    <= alpha, which are a prefix of each row's ranking.  `alpha` (a scalar
    or an (R, 1) column) broadcasts against the rows, which are taken as
    valid."""
    tails = np.cumsum(ranked.w[:, ::-1], axis=1)[:, ::-1]
    # capping the running max equals capping at every step: min/max commute
    adjusted = np.empty_like(ranked.p)
    adjusted.put(ranked.flat, np.minimum(np.maximum.accumulate(
        ranked.tilde * tails, axis=1), 1.0))
    return tails, adjusted, adjusted <= alpha


def _stepdown(p: Sequence[float], w: Sequence[float], alpha: float,
              key: OrderingKey) -> RejectionSet:
    ranked = rank([p], [w], key)
    tails, _, rejected = adjust_rows(ranked, alpha)
    ranks = ranked.perm[0][:np.count_nonzero(rejected)].tolist()
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
