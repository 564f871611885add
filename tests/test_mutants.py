"""A catalogue of mutants of the library, each with the `wholm check` lines
that kill it: a line that fails under the mutant and passes on the library.

Each mutant is applied with `monkeypatch` on every module that imported the
mutated name; only `procedures` reads `rank_rows`, through `rank`, so one
patch reaches the step-down kernel, closed testing and the graph walk, and
`adjust_rows` is patched in `procedures` and the four modules that import
it; `closure._by_index_mask` is read only inside `closure`.
The killers are measured on `run_check_battery(2000, seed)`.  A mutant that
changes a library decision and that no line kills is a strict xfail naming
the ROADMAP items that would close the gap; no check, bound or corpus is
changed to kill a mutant.
"""

import sys

import numpy as np
import pytest

from wholm import (OrderingKey, adjust, battery, closure, ctp, montecarlo,
                   procedures, run_graphical, validate_problem,
                   wap_local_test, wap_stepdown, whp_local_test, whp_stepdown)
from wholm.battery import run_check_battery

_ADJUST_ROWS = procedures.adjust_rows


def _weighted_as_raw(p, tilde, key):
    """A: WHP ranked by raw p, so WHP becomes WAP everywhere."""
    return np.argsort(p, axis=1, kind="stable")


def _ties_to_the_larger_index(p, tilde, key):
    """B: ties go to the larger index (a stable argsort of the reversed
    columns, mapped back)."""
    keys = tilde if key is OrderingKey.WEIGHTED else p
    return keys.shape[1] - 1 - np.argsort(keys[:, ::-1], axis=1,
                                          kind="stable")


def _strict_adjust_rows(ranked, alpha):
    """C: `<` for `<=`, so an adjusted value equal to alpha is kept."""
    tails, adjusted, _ = _ADJUST_ROWS(ranked, alpha)
    return tails, adjusted, adjusted < alpha


def _unreversed_axes(row, perm):
    """D: the one-row local test's code row transposed by each hypothesis's
    rank without the reversal, so a mask reads the code of its bits in the
    reverse order."""
    m = len(perm)
    return row.reshape((2,) * m).transpose(np.argsort(perm)).reshape(-1)


def _patch_adjust_rows(monkeypatch, mutant):
    for module in (procedures, adjust, battery, closure, montecarlo):
        monkeypatch.setattr(module, "adjust_rows", mutant)
    # no loaded wholm module still reads the library's kernel
    assert not [name for name, module in sys.modules.items()
                if name.startswith("wholm")
                and getattr(module, "adjust_rows", None) is _ADJUST_ROWS]


def _killers(seed):
    return {result.name for result in run_check_battery(2000, seed)
            if not result.passed}


@pytest.mark.parametrize("seed", [0, 1])
def test_the_library_passes_every_line(seed):
    assert _killers(seed) == set()


@pytest.mark.parametrize("seed", [0, 1])
def test_whp_ranked_by_raw_p_is_killed_by_the_whp_search(monkeypatch, seed):
    # every engine reads the one ranking, so the equivalence lines move
    # together and only the p-value monotonicity search of WHP sees it
    monkeypatch.setattr(procedures, "rank_rows", _weighted_as_raw)
    assert _killers(seed) == {"pvalue-monotonicity-whp"}


def test_one_patch_of_the_ranking_reaches_every_engine(monkeypatch):
    # WHP rejects all three hypotheses and WAP none; under mutant A the
    # step-down, closed testing and the graph of WHP all give WAP's answer
    problem = validate_problem(["a", "b", "c"], [0.02, 0.001, 0.03],
                               [5.0, 0.1, 1.0], 0.05)
    assert whp_stepdown(problem).rejected == {0, 1, 2}
    monkeypatch.setattr(procedures, "rank_rows", _weighted_as_raw)
    assert whp_stepdown(problem) == wap_stepdown(problem)
    assert wap_stepdown(problem).rejected == set()
    assert (ctp(problem, whp_local_test).elementary_rejections.rejected
            == ctp(problem, wap_local_test).elementary_rejections.rejected
            == set())
    assert (run_graphical(problem, OrderingKey.WEIGHTED)[0].rejected
            == run_graphical(problem, OrderingKey.RAW)[0].rejected == set())


def test_ties_to_the_larger_index_change_a_decision(monkeypatch):
    # B is not an equivalent mutant: WAP ranks the tied p-values' larger
    # weight first and rejects both, where the library rejects neither
    problem = validate_problem(["a", "b"], [0.03, 0.03], [1.0, 3.0], 0.05)
    assert wap_stepdown(problem).rejected == set()
    monkeypatch.setattr(procedures, "rank_rows", _ties_to_the_larger_index)
    assert wap_stepdown(problem).rejected == {0, 1}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the battery's corpus draws continuous p-values, so it never holds a "
    "tie and no line sees where ties are ranked (ROADMAP items 4 and 17)"))
def test_ties_to_the_larger_index_are_killed(monkeypatch):
    monkeypatch.setattr(procedures, "rank_rows", _ties_to_the_larger_index)
    assert _killers(0) or _killers(1)


def test_strict_comparison_changes_a_decision(monkeypatch):
    # C is not an equivalent mutant: a lone p-value at alpha is rejected by
    # the library and kept under C
    problem = validate_problem(["a"], [0.05], [1.0], 0.05)
    assert whp_stepdown(problem).rejected == {0}
    _patch_adjust_rows(monkeypatch, _strict_adjust_rows)
    assert whp_stepdown(problem).rejected == set()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the battery's corpus draws continuous p-values, so no adjusted value "
    "equals alpha and no line sees the comparison (ROADMAP items 4 and 17)"))
def test_strict_comparison_is_killed(monkeypatch):
    _patch_adjust_rows(monkeypatch, _strict_adjust_rows)
    assert _killers(0) or _killers(1)


def test_unreversed_axes_change_a_decision(monkeypatch):
    # D is not an equivalent mutant: {H0} reads the decision on {H1}, so
    # closed testing under the WHP test rejects H1 where the step-down
    # rejects H0
    problem = validate_problem(["a", "b"], [0.01, 0.5], [1.0, 1.0], 0.05)
    assert ctp(problem, whp_local_test).elementary_rejections.rejected == {0}
    monkeypatch.setattr(closure, "_by_index_mask", _unreversed_axes)
    assert ctp(problem, whp_local_test).elementary_rejections.rejected == {1}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the battery closes its stacks in code space and never runs a one-row "
    "local test, so no line reads the permuted row (ROADMAP item 18)"))
def test_unreversed_axes_are_killed(monkeypatch):
    monkeypatch.setattr(closure, "_by_index_mask", _unreversed_axes)
    assert _killers(0) or _killers(1)
