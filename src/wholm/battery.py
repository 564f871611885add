"""The property runner behind `wholm check` and the acceptance tests.

`PROPERTIES` is the one table of the paper's structural claims that hold on
every problem: closed testing and the graph reproduce WHP and WAP, WAP
rejects a subset of what WHP rejects (decisions and adjusted values), both
procedures are consonant, and WHP meets the monotonicity condition.
`check_properties` checks every claim on every problem of a corpus and names
the first violating problem of each.  `run_check_battery` adds the two
randomized p-value monotonicity searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence

from .adjust import adjusted_wap, adjusted_whp
from .closure import (check_consonance, check_monotonicity_condition, ctp,
                      find_pvalue_monotonicity_violation, random_corpus,
                      wap_local_test, whp_local_test)
from .core import OrderingKey, TestingProblem
from .graphical import run_graphical
from .procedures import Procedure, wap_stepdown, whp_stepdown


@dataclass(frozen=True)
class CheckResult:
    """One property over a corpus.  `witness` is the first violating problem
    (or, for a search, the pair it found); None when there is none."""

    name: str
    passed: bool
    detail: str = ""
    witness: Any = None


def _adjusted_dominance(problem, whp, wap):
    # Exactly, WHP's adjusted values never exceed WAP's.  In floats each
    # value is a running max of (p/w) * tail capped at 1, with one rounding
    # for p/w, at most m - 1 for the tail and one for the product: at most
    # m + 1 roundings of relative size 2^-53, so each is within
    # (m + 1) * 2^-53 relative of its exact value, and their ratio within
    # (m + 1) * 2^-52 to first order.  2 (m + 2) * 2^-52 covers the
    # second-order terms with room to spare; at m = 10 it is 5.3e-15.
    slack = 2 * (problem.m + 2) * 2.0 ** -52
    return all(a <= b * (1.0 + slack) for a, b in
               zip(adjusted_whp(problem).values, adjusted_wap(problem).values))


# (name, holds(problem, WHP rejections, WAP rejections)).  The lambdas look
# the library functions up when they run, so a rebound name is the one used.
PROPERTIES = (
    ("ctp-equivalence-whp", lambda problem, whp, wap:
        ctp(problem, whp_local_test).elementary_rejections.rejected == whp),
    ("ctp-equivalence-wap", lambda problem, whp, wap:
        ctp(problem, wap_local_test).elementary_rejections.rejected == wap),
    ("graphical-equivalence-whp", lambda problem, whp, wap:
        run_graphical(problem, OrderingKey.WEIGHTED)[0].rejected == whp),
    ("graphical-equivalence-wap", lambda problem, whp, wap:
        run_graphical(problem, OrderingKey.RAW)[0].rejected == wap),
    ("rejection-dominance", lambda problem, whp, wap: wap <= whp),
    ("adjusted-dominance", _adjusted_dominance),
    ("consonance-whp", lambda problem, whp, wap:
        check_consonance(problem, whp_local_test).holds),
    ("consonance-wap", lambda problem, whp, wap:
        check_consonance(problem, wap_local_test).holds),
    ("monotonicity-whp", lambda problem, whp, wap:
        check_monotonicity_condition(problem, Procedure.WHP).holds),
)


def check_properties(problems: Sequence[TestingProblem]) -> List[CheckResult]:
    """One result per entry of `PROPERTIES`, in table order, each with its
    violation count and its first violating problem as the witness.  The
    step-downs run once per problem."""
    violating = [[] for _ in PROPERTIES]
    for problem in problems:
        whp = whp_stepdown(problem).rejected
        wap = wap_stepdown(problem).rejected
        for found, (_, holds) in zip(violating, PROPERTIES):
            if not holds(problem, whp, wap):
                found.append(problem)
    return [CheckResult(name, not found,
                        f"{len(found)} violations over {len(problems)} problems",
                        found[0] if found else None)
            for (name, _), found in zip(PROPERTIES, violating)]


def run_check_battery(trials: int, seed: int) -> List[CheckResult]:
    results = check_properties(random_corpus(trials, seed=seed, m_max=8))
    wap_violation = find_pvalue_monotonicity_violation(Procedure.WAP,
                                                       trials=trials, seed=seed)
    results.append(CheckResult(
        "pvalue-monotonicity-violation-wap", wap_violation is not None,
        "counterexample found" if wap_violation else
        f"no counterexample in {trials} trials", wap_violation))
    whp_violation = find_pvalue_monotonicity_violation(Procedure.WHP,
                                                       trials=trials, seed=seed)
    results.append(CheckResult(
        "pvalue-monotonicity-whp", whp_violation is None,
        "no violation found" if whp_violation is None else
        "unexpected counterexample", whp_violation))
    return results
