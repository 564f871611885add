"""Randomized property battery behind the `check` CLI subcommand.

Runs the oracle-equivalence and structural checks over a seeded corpus and
reports one pass/fail line per property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .adjust import adjusted_wap, adjusted_whp
from .closure import (check_consonance, check_monotonicity_condition, ctp,
                      find_pvalue_monotonicity_violation, random_corpus,
                      wap_local_test, whp_local_test)
from .core import OrderingKey
from .graphical import run_graphical
from .procedures import Procedure, wap_stepdown, whp_stepdown


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def run_check_battery(trials: int, seed: int) -> List[CheckResult]:
    corpus = random_corpus(trials, seed=seed, m_max=8)
    results = []

    def record(name, passed, detail=""):
        results.append(CheckResult(name=name, passed=passed, detail=detail))

    failures = {name: 0 for name in
                ("ctp-equivalence-whp", "ctp-equivalence-wap",
                 "graphical-equivalence-whp", "graphical-equivalence-wap",
                 "rejection-dominance", "adjusted-dominance",
                 "consonance-whp", "consonance-wap", "monotonicity-whp")}
    for problem in corpus:
        whp = whp_stepdown(problem).rejected
        wap = wap_stepdown(problem).rejected
        if ctp(problem, whp_local_test).elementary_rejections.rejected != whp:
            failures["ctp-equivalence-whp"] += 1
        if ctp(problem, wap_local_test).elementary_rejections.rejected != wap:
            failures["ctp-equivalence-wap"] += 1
        if run_graphical(problem, OrderingKey.WEIGHTED)[0].rejected != whp:
            failures["graphical-equivalence-whp"] += 1
        if run_graphical(problem, OrderingKey.RAW)[0].rejected != wap:
            failures["graphical-equivalence-wap"] += 1
        if not wap <= whp:
            failures["rejection-dominance"] += 1
        adj_whp = adjusted_whp(problem).values
        adj_wap = adjusted_wap(problem).values
        # Exactly, WHP's adjusted values never exceed WAP's.  In floats each
        # value is a running max of (p/w) * tail capped at 1, with one
        # rounding for p/w, at most m - 1 for the tail and one for the
        # product: at most m + 1 roundings of relative size 2^-53, so each
        # is within (m + 1) * 2^-53 relative of its exact value, and their
        # ratio within (m + 1) * 2^-52 to first order.  2 (m + 2) * 2^-52
        # covers the second-order terms with room to spare; at the corpus's
        # m <= 8 it is at most 4.4e-15.
        slack = 2 * (problem.m + 2) * 2.0 ** -52
        if any(a > b * (1.0 + slack) for a, b in zip(adj_whp, adj_wap)):
            failures["adjusted-dominance"] += 1
        if not check_consonance(problem, whp_local_test).holds:
            failures["consonance-whp"] += 1
        if not check_consonance(problem, wap_local_test).holds:
            failures["consonance-wap"] += 1
        if not check_monotonicity_condition(problem, Procedure.WHP).holds:
            failures["monotonicity-whp"] += 1

    for name, count in failures.items():
        record(name, count == 0,
               f"{count} violations over {len(corpus)} problems")

    wap_violation = find_pvalue_monotonicity_violation(Procedure.WAP,
                                                       trials=trials, seed=seed)
    record("pvalue-monotonicity-violation-wap", wap_violation is not None,
           "counterexample found" if wap_violation else
           f"no counterexample in {trials} trials")
    whp_violation = find_pvalue_monotonicity_violation(Procedure.WHP,
                                                       trials=trials, seed=seed)
    record("pvalue-monotonicity-whp", whp_violation is None,
           "no violation found" if whp_violation is None else
           "unexpected counterexample")
    return results
