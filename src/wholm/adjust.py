"""Adjusted (weighted) p-values for the two step-down procedures.

The adjusted value of a hypothesis is the smallest global level at which the
procedure would reject it: the running max of (p/w)_(j) * tail_j along the
procedure's ranking, capped at 1.  The step-downs decide with the same
numbers (`procedures.rank_adjusted`), so a hypothesis is rejected at level
alpha iff its adjusted value printed here is at most alpha, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .core import OrderingKey, OrderingPermutation, TestingProblem
from .procedures import Procedure, rank_adjusted


@dataclass(frozen=True)
class AdjustedReport:
    """Adjusted values indexed by original hypothesis position.

    `ordering` is the rank -> original-index permutation the recursion ran
    along; values are nondecreasing along it.  Every value is capped at 1 at
    each recursion step, not only at the first one, so the report always stays
    inside [0, 1].  This never changes a rejection decision since alpha < 1.
    """

    values: Tuple[float, ...]
    procedure: Procedure
    ordering: OrderingPermutation


def _report(problem: TestingProblem, key: OrderingKey,
            procedure: Procedure) -> AdjustedReport:
    ranked = rank_adjusted(problem, key)
    values = [0.0] * problem.m
    for idx, value in zip(ranked.ordering.perm, ranked.adjusted):
        values[idx] = value
    return AdjustedReport(values=tuple(values), procedure=procedure,
                          ordering=ranked.ordering)


def adjusted_whp(problem: TestingProblem) -> AdjustedReport:
    """Adjusted weighted p-values: running max of tilde_p_(j) * tail weight sum."""
    return _report(problem, OrderingKey.WEIGHTED, Procedure.WHP)


def adjusted_wap(problem: TestingProblem) -> AdjustedReport:
    """Adjusted p-values under the raw ordering: running max of
    (p_(j)/w_(j)) * tail weight sum."""
    return _report(problem, OrderingKey.RAW, Procedure.WAP)
