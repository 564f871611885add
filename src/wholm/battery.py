"""The property runner behind `wholm check` and the acceptance tests.

`PROPERTIES` is the one table of the paper's structural claims that hold on
every problem: closed testing and the graph reproduce WHP and WAP, WAP
rejects a subset of what WHP rejects (decisions and adjusted values), both
procedures are consonant, and WHP meets the monotonicity condition.
`check_properties` checks every claim on every problem of a corpus and names
the first violating problem of each.  `run_check_battery` runs the same
checks on a seeded `closure.random_corpus`, read as the arrays it is drawn
as, and adds the two randomized p-value monotonicity searches, each of
which draws all its trials before it decides any.

The corpus is evaluated in stacks, as arrays: `check_properties` flattens
its problems into one array of sizes, one of start offsets, the flat
p-values and weights and one alpha per problem, and `run_check_battery`
checks `closure._draw_corpus`'s arrays as they are drawn, cutting a
`TestingProblem` only for a witness, with the `closure._cut` that cuts
every problem of `random_corpus`.  One helper, `_stacks`, groups the
problems by m and cuts each group into stacks of at most
`PROPERTY_STACK_CELLS >> m` problems, gathered into (P, m) p-values and
weights and (P,) alphas.  Each stack is ranked once per ranking, by
`procedures.rank`, and its view is then the only way the kernel and the
oracles read the stack: each takes the view and the alphas, and nothing
else ranks it.  The references, the step-down rejections, and the
adjusted values come from one call of the step-downs' kernel
`procedures.adjust_rows` per view.  The closed-testing claims
(`ctp-equivalence-*`, `consonance-*` and `monotonicity-whp`) read one
`closure.ClosedStack` per procedure per stack, built from one subset table
and closed for all of the stack's problems at once, and give the same
answers as `ctp`, `check_consonance` and `check_monotonicity_condition`,
which are one-row calls of the same code.
The graph claims (`graphical-equivalence-*`) read one walk of the view per
ordering, `graphical.graph_rejections`, whose one-row call is
`run_graphical`.  Every engine returns its rejections as (P, m) bool arrays
in hypothesis order, the kernel its adjusted values too, so nothing is
reordered here and each rejection claim is one numpy comparison per stack.
Witnesses are in corpus order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Iterator, List, Sequence, Tuple

import numpy as np

from .closure import (ClosedStack, _Corpus, _cut, _draw_corpus,
                      find_pvalue_monotonicity_violation)
from .core import TestingProblem
from .graphical import GraphInvariantError, graph_rejections
from .procedures import Procedure, adjust_rows, rank, ranking

# Problems evaluated together, counted in cells: a stack of problems with m
# hypotheses holds at most PROPERTY_STACK_CELLS >> m of them, and at least
# one.  A stack's largest array is the one (rows, 2^m) table of subset
# totals of `closure._all_subsets`, so up to m = 14 it stays within 2^14
# floats, 128 KB: 64 rows at m = 8, and at 2,000 problems about one stack
# per size at m <= 6.  The stacks do not change any result, only how many
# problems share a numpy call.
PROPERTY_STACK_CELLS = 64 << 8


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
    whp, wap = stack.adjusted[Procedure.WHP], stack.adjusted[Procedure.WAP]
    slack = 2 * (whp.shape[1] + 2) * 2.0 ** -52
    return (whp <= wap * (1.0 + slack)).all(axis=1)


class _Stack:
    """Problems of one size m, given as `arrays`, their (P, m) p-values and
    weights and (P,) alphas, and, under each procedure, their
    `procedures.rank` view, their step-down rejections and adjusted values
    from `adjust_rows` on that view, both (P, m) in hypothesis order, and
    their `ClosedStack`, built on the same view."""

    def __init__(self, arrays: Tuple[np.ndarray, np.ndarray, np.ndarray]):
        p, w, self.alpha = arrays
        self.ranked, self.rejected, self.adjusted, self.closed = {}, {}, {}, {}
        for procedure in (Procedure.WHP, Procedure.WAP):
            ranked = self.ranked[procedure] = rank(p, w, ranking(procedure))
            _, self.adjusted[procedure], self.rejected[procedure] = (
                adjust_rows(ranked, self.alpha[:, None]))
            self.closed[procedure] = ClosedStack(ranked, self.alpha, procedure)


def _ctp_equivalence(procedure):
    return lambda stack: (stack.closed[procedure].rejections
                          == stack.rejected[procedure]).all(axis=1)


def _graphical_equivalence(procedure):
    return lambda stack: (graph_rejections(stack.ranked[procedure],
                                           stack.alpha)
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


def _flatten(problems: Sequence[TestingProblem]) -> _Corpus:
    """`problems` as a `_Corpus`."""
    sizes = np.array([problem.m for problem in problems])
    count = int(sizes.sum())
    p = np.fromiter(chain.from_iterable(problem.p for problem in problems),
                    float, count)
    w = np.fromiter(chain.from_iterable(problem.w for problem in problems),
                    float, count)
    return (sizes, np.cumsum(sizes) - sizes, p, w,
            np.array([problem.alpha for problem in problems]))


def _stacks(corpus: _Corpus) -> Iterator[Tuple[np.ndarray, Tuple]]:
    """The stacks of `corpus`, each as the corpus indices of its problems
    and their arrays: the (P, m) p-values and weights and the (P,) alphas.
    The problems are grouped by m, the groups in the order of their first
    problems, and each group is cut in corpus order into stacks of
    `PROPERTY_STACK_CELLS >> m` problems, at least one."""
    sizes, starts, p, w, alpha = corpus
    _, first = np.unique(sizes, return_index=True)
    for m in sizes[np.sort(first)].tolist():
        group = np.flatnonzero(sizes == m)
        rows = max(PROPERTY_STACK_CELLS >> m, 1)
        for start in range(0, group.size, rows):
            index = group[start:start + rows]
            cells = starts[index, None] + np.arange(m)
            yield index, (p[cells], w[cells], alpha[index])


def _check(corpus: _Corpus,
           problem: Callable[[int], TestingProblem]) -> List[CheckResult]:
    """`check_properties` on a nonempty `corpus`, whose problem k is
    `problem(k)`, called for the witnesses only."""
    violating = [[] for _ in PROPERTIES]
    for rows, arrays in _stacks(corpus):
        stack = _Stack(arrays)
        try:
            for found, (_, holds) in zip(violating, PROPERTIES):
                found.extend(rows[np.logical_not(holds(stack))].tolist())
        except GraphInvariantError as exc:
            index = int(rows[exc.row])
            raise GraphInvariantError(f"problem {index}: {exc}",
                                      index) from None
    count = len(corpus[0])
    return [CheckResult(name, not found,
                        f"{len(found)} violations over {count} problems",
                        problem(min(found)) if found else None)
            for (name, _), found in zip(PROPERTIES, violating)]


def check_properties(problems: Sequence[TestingProblem]) -> List[CheckResult]:
    """One result per entry of `PROPERTIES`, in table order, each with its
    violation count and its first violating problem in corpus order as the
    witness.  Raises ValueError for an empty corpus, and
    `GraphInvariantError` naming the problem's index in the corpus for a
    degenerate graph update."""
    if not problems:
        raise ValueError("no problems to check")
    return _check(_flatten(problems), problems.__getitem__)


def run_check_battery(trials: int, seed: int) -> List[CheckResult]:
    """`check_properties` on `random_corpus(trials, seed, m_max=8)`, then
    both searches, each over `trials` trials drawn from `seed`: WAP's passes
    when it finds a witness, WHP's when it finds none.  The corpus is
    checked as the arrays `closure._draw_corpus` draws, and a witness is
    cut from them by `closure._cut`, as `random_corpus` cuts it."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1: {trials}")
    draw = _draw_corpus(trials, seed, 8, 0.05)
    results = _check(draw, lambda k: _cut(draw, [k])[0])
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
