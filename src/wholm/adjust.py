"""Adjusted (weighted) p-values for the two step-down procedures.

The adjusted value of a hypothesis is the smallest global level at which the
procedure would reject it: the running max of (p/w)_(j) * tail_j along the
procedure's ranking, capped at 1.  The values are a one-row call of the
adjusted-value kernel `procedures.adjust_rows`, whose decisions the
step-downs return, so a hypothesis is rejected at level alpha iff its
adjusted value printed here is at most alpha, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import OrderingPermutation, TestingProblem
from .procedures import Procedure, adjust_rows, ranking


@dataclass(frozen=True)
class AdjustedReport:
    """Adjusted values indexed by original hypothesis position.

    `ordering` is the rank -> original-index permutation the recursion ran
    along; values are nondecreasing along it.  Every value is capped at 1 at
    each recursion step, not only at the first one, so the report always stays
    inside [0, 1].  This never changes a rejection decision since alpha < 1.
    `rejected` holds the indices whose value is at most alpha.
    """

    values: Tuple[float, ...]
    procedure: Procedure
    ordering: OrderingPermutation
    rejected: frozenset


def _report(problem: TestingProblem, procedure: Procedure) -> AdjustedReport:
    key = ranking(procedure)
    perm, _, adjusted, rejected = adjust_rows([problem.p], [problem.w],
                                              problem.alpha, key)
    values = np.empty(problem.m)
    values[perm[0]] = adjusted[0]
    return AdjustedReport(values=tuple(values.tolist()), procedure=procedure,
                          ordering=OrderingPermutation(tuple(perm[0].tolist()),
                                                       key),
                          rejected=frozenset(perm[0][rejected[0]].tolist()))


def adjusted_whp(problem: TestingProblem) -> AdjustedReport:
    """Adjusted weighted p-values: running max of tilde_p_(j) * tail weight sum."""
    return _report(problem, Procedure.WHP)


def adjusted_wap(problem: TestingProblem) -> AdjustedReport:
    """Adjusted p-values under the raw ordering: running max of
    (p_(j)/w_(j)) * tail weight sum."""
    return _report(problem, Procedure.WAP)
