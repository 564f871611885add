"""The property runner behind `wholm check` and the acceptance tests.

`PROPERTIES` is the one table of the paper's structural claims that hold on
every problem: closed testing and the graph reproduce WHP and WAP, WAP
rejects a subset of what WHP rejects (decisions and adjusted values), both
procedures are consonant, and WHP meets the monotonicity condition.
`check_properties` checks every claim on every problem of a corpus and names
the first violating problem of each.  `run_check_battery` runs it on a
seeded `closure.random_corpus`, drawn as three arrays, and adds the two
randomized p-value monotonicity searches, each of which draws all its
trials before it decides any.

The corpus is evaluated in stacks: its problems are grouped by m, and each
group is cut into stacks of at most `PROPERTY_STACK_ROWS` problems, turned
into one `procedures.ProblemStack` of arrays that every oracle reads.  The
closed-testing claims (`ctp-equivalence-*`, `consonance-*` and
`monotonicity-whp`) read one `closure.ClosedStack` per procedure per stack,
built from one subset table and closed for all of the stack's problems at
once, and give the same answers as `ctp`, `check_consonance` and
`check_monotonicity_condition`, which are one-row calls of the same code.
The graph claims (`graphical-equivalence-*`) read one walk of the stack per
ordering, `graphical.graph_rejections`, whose one-row call is
`run_graphical`.  Their references, the step-down rejections, and the
adjusted values come from one call of the step-downs' kernel
`procedures.adjust_rows` per ranking per stack.  Every engine returns its
rejections as (P, m) bool arrays in hypothesis order, the kernel its
adjusted values too, so nothing is reordered here and each rejection claim
is one numpy comparison per stack.  Witnesses are in corpus order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, List, Sequence

import numpy as np

from .closure import (ClosedStack, find_pvalue_monotonicity_violation,
                      random_corpus)
from .core import TestingProblem
from .graphical import GraphInvariantError, graph_rejections
from .procedures import Procedure, ProblemStack, adjust_rows, ranking

# Problems evaluated together.  A stack's largest array is the (2 * rows, 2^m)
# table of `closure._all_subsets`: 256 KB at 64 rows and m = 8.  With one
# stack per size, `run_check_battery` peaked at 63.4 MB RSS at 2,000 trials
# (57.8 MB at 64 rows) and at 92.5 MB at 10,000 (63.4 MB).  The stacks do
# not change any result, only how many problems share a numpy call.
PROPERTY_STACK_ROWS = 64


@dataclass(frozen=True)
class CheckResult:
    """One property over a corpus.  `witness` is the first violating problem
    (or, for a search, the pair it found); None when there is none."""

    name: str
    passed: bool
    detail: str = ""
    witness: Any = None


def _adjusted_dominance(stack):
    # Exactly, WHP's adjusted values never exceed WAP's.  In floats each
    # value is a running max of (p/w) * tail capped at 1, with one rounding
    # for p/w, at most m - 1 for the tail and one for the product: at most
    # m + 1 roundings of relative size 2^-53, so each is within
    # (m + 1) * 2^-53 relative of its exact value, and their ratio within
    # (m + 1) * 2^-52 to first order.  2 (m + 2) * 2^-52 covers the
    # second-order terms with room to spare; at m = 10 it is 5.3e-15.
    slack = 2 * (stack.arrays.m + 2) * 2.0 ** -52
    whp, wap = stack.adjusted[Procedure.WHP], stack.adjusted[Procedure.WAP]
    return (whp <= wap * (1.0 + slack)).all(axis=1)


class _Stack:
    """The `ProblemStack` `arrays` of problems of one size and, under each
    procedure, their step-down rejections and adjusted values, both (P, m)
    in hypothesis order as `adjust_rows` returns them, and their
    `ClosedStack`."""

    def __init__(self, problems: Sequence[TestingProblem]):
        self.arrays = p, w, alpha = ProblemStack.of(problems)
        self.rejected, self.adjusted, self.closed = {}, {}, {}
        for procedure in (Procedure.WHP, Procedure.WAP):
            *_, self.adjusted[procedure], self.rejected[procedure] = (
                adjust_rows(p, w, alpha[:, None], ranking(procedure)))
            self.closed[procedure] = ClosedStack(self.arrays, procedure)


def _ctp_equivalence(procedure):
    return lambda stack: (stack.closed[procedure].rejections
                          == stack.rejected[procedure]).all(axis=1)


def _graphical_equivalence(procedure):
    return lambda stack: (graph_rejections(stack.arrays, ranking(procedure))
                          == stack.rejected[procedure]).all(axis=1)


def _consonance(procedure):
    return lambda stack: [witness is None for witness in
                          stack.closed[procedure].consonance_witnesses]


# (name, holds(stack) -> one bool per problem of the stack, as a list or a
# (P,) array).  The lambdas look the library functions up when they run, so
# a rebound name is the one used.
PROPERTIES = (
    ("ctp-equivalence-whp", _ctp_equivalence(Procedure.WHP)),
    ("ctp-equivalence-wap", _ctp_equivalence(Procedure.WAP)),
    ("graphical-equivalence-whp", _graphical_equivalence(Procedure.WHP)),
    ("graphical-equivalence-wap", _graphical_equivalence(Procedure.WAP)),
    ("rejection-dominance", lambda stack: (
        stack.rejected[Procedure.WAP]
        <= stack.rejected[Procedure.WHP]).all(axis=1)),
    ("adjusted-dominance", _adjusted_dominance),
    ("consonance-whp", _consonance(Procedure.WHP)),
    ("consonance-wap", _consonance(Procedure.WAP)),
    ("monotonicity-whp", lambda stack: [
        found is None for found in
        stack.closed[Procedure.WHP].monotonicity_counterexamples]),
)


def check_properties(problems: Sequence[TestingProblem]) -> List[CheckResult]:
    """One result per entry of `PROPERTIES`, in table order, each with its
    violation count and its first violating problem in corpus order as the
    witness.  Raises ValueError for an empty corpus, and
    `GraphInvariantError` naming the problem's index in the corpus for a
    degenerate graph update."""
    if not problems:
        raise ValueError("no problems to check")
    groups = defaultdict(list)
    for index, problem in enumerate(problems):
        groups[problem.m].append(index)
    violating = [[] for _ in PROPERTIES]
    for indices in groups.values():
        for start in range(0, len(indices), PROPERTY_STACK_ROWS):
            rows = indices[start:start + PROPERTY_STACK_ROWS]
            stack = _Stack([problems[i] for i in rows])
            try:
                for found, (_, holds) in zip(violating, PROPERTIES):
                    found.extend(rows[k] for k in np.flatnonzero(
                        np.logical_not(holds(stack))).tolist())
            except GraphInvariantError as exc:
                raise GraphInvariantError(f"problem {rows[exc.row]}: {exc}",
                                          rows[exc.row]) from None
    return [CheckResult(name, not found,
                        f"{len(found)} violations over {len(problems)} problems",
                        problems[min(found)] if found else None)
            for (name, _), found in zip(PROPERTIES, violating)]


def run_check_battery(trials: int, seed: int) -> List[CheckResult]:
    """`check_properties` on `random_corpus(trials, seed, m_max=8)`, then
    both searches, each over `trials` trials drawn from `seed`: WAP's passes
    when it finds a witness, WHP's when it finds none."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1: {trials}")
    results = check_properties(random_corpus(trials, seed=seed, m_max=8))
    for name, procedure, expected, found, none in (
            ("pvalue-monotonicity-violation-wap", Procedure.WAP, True,
             "counterexample found", f"no counterexample in {trials} trials"),
            ("pvalue-monotonicity-whp", Procedure.WHP, False,
             "unexpected counterexample", "no violation found")):
        witness = find_pvalue_monotonicity_violation(procedure, trials=trials,
                                                     seed=seed)
        results.append(CheckResult(name, (witness is not None) == expected,
                                   none if witness is None else found,
                                   witness))
    return results
