"""A catalogue of mutants of the library, each with the `wholm check` lines
that kill it: a line that fails under the mutant and passes on the library.

Each mutant is applied with `monkeypatch` on every module that imported the
mutated name; only `procedures` reads `rank_rows`, through `rank`, so one
patch reaches the step-down kernel, closed testing and the graph walk, and
`adjust_rows` is patched in `procedures` and the four modules that import
it; `closure._by_index_mask` and `closure._counterexamples` are read only
inside `closure`, and `graphical._walk` and `graphical._initial_graphs`
only inside `graphical`; `run_simulation` is patched in `montecarlo`,
`cli` and the test module whose golden calls it.  Mutants E to I are built
by `_mutated` from the library function's own source, with one line
replaced.
The killers are measured on `run_check_battery(2000, seed)`.  A mutant that
changes a library decision and that no line kills is a strict xfail naming
the ROADMAP items that would close the gap; a mutant that changes no output
on any input the library builds is listed with the tier-1 test that kills
it.  No check, bound or corpus is changed to kill a mutant.
"""

import inspect
import sys

import numpy as np
import pytest

import test_cli
import test_graphical
import test_montecarlo
from test_closure import TestStacks
from wholm import (OrderingKey, adjust, battery, cli, closure, ctp, graphical,
                   montecarlo, procedures, run_graphical, validate_problem,
                   wap_local_test, wap_stepdown, whp_local_test, whp_stepdown)
from wholm.battery import run_check_battery
from wholm.procedures import Procedure

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


def _mutated(function, line, replacement="pass"):
    """`function` rebuilt from its own source in a copy of its module's
    namespace, with its one line that reads `line` (stripped) replaced by
    `replacement` at the same indent."""
    lines = inspect.getsource(function).splitlines(keepends=True)
    # a ValueError unless exactly one line reads `line`, which no xfail
    # here expects
    [i] = [i for i, text in enumerate(lines) if text.strip() == line]
    indent = lines[i][:len(lines[i]) - len(lines[i].lstrip())]
    lines[i] = f"{indent}{replacement}\n"
    module = sys.modules[function.__module__]
    namespace = dict(vars(module))
    exec(compile("".join(lines), module.__file__, "exec"), namespace)
    return namespace[function.__name__]


def _walk_without_denominator():
    """E: the graph update adds g_lj * g_jk to each coefficient but does not
    divide by 1 - g_lj * g_jl."""
    return _mutated(graphical._walk, "graph[:, :n] /= denom")


def _forward_tails():
    """F: `adjust_rows` sums its tail weights forward, from the first rank
    down, instead of from the last rank up."""
    return _mutated(procedures.adjust_rows,
                    "tails = np.cumsum(ranked.w[:, ::-1], axis=1)[:, ::-1]",
                    "tails = np.cumsum(ranked.w, axis=1)")


def _every_member_shares():
    """G: WAP's share in the monotonicity search goes to every member of a
    set, not to its first-ranked member alone."""
    return _mutated(closure._counterexamples, "share[high != 1] = 0.0")


def _others_by_difference():
    """H: `_initial_graphs` takes a hypothesis's other weights as the total
    less its own weight, which cancels when it holds nearly all the
    weight."""
    return _mutated(graphical._initial_graphs,
                    "others = np.add(left, right).take(flat)",
                    "others = (total - by_index).take(flat)")


def _wrong_df():
    """I: `run_simulation` takes the t statistics of n observations at n
    degrees of freedom, not n - 1."""
    return _mutated(montecarlo.run_simulation,
                    "pvals = t_sf(tstats, config.n - 1)",
                    "pvals = t_sf(tstats, config.n)")


def _patch_run_simulation(monkeypatch):
    mutant = _wrong_df()
    for module in (montecarlo, cli, test_montecarlo):
        monkeypatch.setattr(module, "run_simulation", mutant)


def _patch_initial_graphs(monkeypatch):
    # the node-by-node reference's module builds its stacks' initial graphs
    # with the name it imported
    mutant = _others_by_difference()
    for module in (graphical, test_graphical):
        monkeypatch.setattr(module, "_initial_graphs", mutant)


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


def test_graph_update_without_its_denominator_changes_a_decision(
        monkeypatch):
    # E is not an equivalent mutant: the 36th problem of a threshold-scale
    # draw (w ~ U(0.5, 5), p = w / total * alpha * U(0, 3), m = 3-8, numpy
    # seed 0), where the walk under raw ordering rejects all five and E
    # keeps H2
    problem = validate_problem(
        ["H0", "H1", "H2", "H3", "H4"],
        [0.01972192393215713, 0.0031224265458911454, 0.042898589802561754,
         0.0009977749077284058, 0.00014002756148203676],
        [4.202632098925649, 1.3057820941234697, 3.8670092378656022,
         0.8900659540154425, 2.416353081323097], 0.05)
    assert run_graphical(problem, OrderingKey.RAW)[0].rejected == {
        0, 1, 2, 3, 4}
    monkeypatch.setattr(graphical, "_walk", _walk_without_denominator())
    assert run_graphical(problem, OrderingKey.RAW)[0].rejected == {
        0, 1, 3, 4}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the battery draws p-values U(0, 1), so its graph walks seldom pass a "
    "first rejection and no line sees the missing division; a draw at the "
    "thresholds' scale meets a changed decision within 36 problems "
    "(ROADMAP item 17)"))
def test_graph_update_without_its_denominator_is_killed(monkeypatch):
    monkeypatch.setattr(graphical, "_walk", _walk_without_denominator())
    assert _killers(0) or _killers(1)


@pytest.mark.parametrize("seed", [0, 1])
def test_tails_summed_forward_are_killed_by_eight_lines(monkeypatch, seed):
    # WAP's constructed pair among them: the first-ranked tail is then its
    # own weight, so WAP rejects H_j at q as well as H_i
    _patch_adjust_rows(monkeypatch, _forward_tails())
    assert _killers(seed) == {
        "adjusted-dominance", "ctp-equivalence-whp", "ctp-equivalence-wap",
        "graphical-equivalence-whp", "graphical-equivalence-wap",
        "pvalue-monotonicity-violation-wap", "pvalue-monotonicity-whp",
        "rejection-dominance"}


@pytest.mark.parametrize("seed", [0, 1])
def test_every_member_shares_passes_every_line(monkeypatch, seed):
    # shares are formed only where a total drops on a removal, and step 1
    # of the `closure` docstring rules that out on every table the library
    # builds, so G changes no output on a reachable input
    monkeypatch.setattr(closure, "_counterexamples", _every_member_shares())
    assert _killers(seed) == set()


def test_every_member_shares_is_killed_by_a_doctored_table(monkeypatch):
    # the one tier-1 killer of G: the search-order test of WAP, which
    # scales a fifth of the real totals down
    killer = TestStacks().test_counterexample_is_the_first_in_search_order
    killer(Procedure.WAP)
    monkeypatch.setattr(closure, "_counterexamples", _every_member_shares())
    with pytest.raises(AssertionError):
        killer(Procedure.WAP)


def test_others_by_difference_change_a_decision(monkeypatch):
    # H is not an equivalent mutant: H1 holds nearly all the weight, so the
    # other weight of H1 cancels to 2.2e-16 and H1's level goes to H2 along
    # a coefficient of 1.35, and H2 is rejected where both step-downs keep it
    problem = validate_problem(["H1", "H2"], [0.0, 0.06], [1.0, 3e-16], 0.05)
    assert run_graphical(problem, OrderingKey.RAW)[0].rejected == {0}
    _patch_initial_graphs(monkeypatch)
    for ordering in OrderingKey:
        rejections, trace = run_graphical(problem, ordering)
        assert rejections.rejected == {0, 1}
        assert trace.initial.g[0, 1] > 1.35


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the battery draws weights U(0.5, 5), so no weight holds nearly all the "
    "weight and no line sees the cancellation (ROADMAP item 4's "
    "extreme-magnitude kind)"))
def test_others_by_difference_is_killed(monkeypatch):
    _patch_initial_graphs(monkeypatch)
    assert _killers(0) or _killers(1)


@pytest.mark.parametrize("ordering", list(OrderingKey))
def test_others_by_difference_is_killed_by_the_node_by_node_reference(
        monkeypatch, ordering):
    # the reference starts from its own Python-float initial graph, so the
    # walk's last bits are checked against a graph H does not build
    corpus = closure.random_corpus(300, seed=7, m_max=12)
    test_graphical.test_walk_equals_the_node_by_node_reference(corpus,
                                                               ordering)
    _patch_initial_graphs(monkeypatch)
    with pytest.raises(AssertionError):
        test_graphical.test_walk_equals_the_node_by_node_reference(corpus,
                                                                   ordering)


def test_wrong_df_is_killed_by_the_simulation_goldens(tmp_path, capsys):
    # the tier-1 killers of I: the seeded cell's Holm power reads 0.471
    # where the golden holds 0.463, and the `simulate` table's digest moves
    golden = test_montecarlo.TestRunSimulation().test_seeded_output_golden
    table = test_cli.TestSimulate().test_stdout_is_byte_identical_to_golden
    # one patch context per run: the golden leaves the block size patched
    for killer in (golden, lambda monkeypatch: table(tmp_path, capsys)):
        with pytest.MonkeyPatch.context() as monkeypatch:
            killer(monkeypatch)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _patch_run_simulation(monkeypatch)
            with pytest.raises(AssertionError):
                killer(monkeypatch)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "no `wholm check` line runs a simulation cell, and no oracle checks a "
    "cell's p-values against the distribution of its t statistics "
    "(ROADMAP items 18 and 20)"))
def test_wrong_df_is_killed(monkeypatch):
    _patch_run_simulation(monkeypatch)
    assert _killers(0) or _killers(1)
