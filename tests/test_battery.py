import cProfile
import inspect
import pstats
from collections import Counter

import numpy as np
import pytest

from test_closure import _boundary_corpus, _tied_corpus
from test_procedures import BOUNDARY_CORPUS
from wholm import (Procedure, adjust, battery, cli, closure, core, graphical,
                   montecarlo, procedures, wap_stepdown, whp_stepdown)
from wholm.battery import PROPERTIES, check_properties, run_check_battery
from wholm.closure import (ClosedStack, find_pvalue_monotonicity_violation,
                           random_corpus)
from wholm.graphical import _initial_graphs, _walk, graph_rejections
from wholm.procedures import adjust_rows, rank, ranking


def _stack_counts(corpus):
    """The number of the battery's stacks of each size m."""
    return Counter(p.shape[1] for _, (p, _, _) in
                   battery._stacks(battery._flatten(corpus)))


def _ordered_corpus():
    # The groups of sizes 7 and 8 each span two stacks or more.  The first
    # problem of either size has m = 8 and comes before every m = 7 problem,
    # so a runner that visited its groups in order of size would name
    # another as the first violation of both.
    corpus = random_corpus(1000, seed=7, m_max=8)
    stacks = _stack_counts(corpus)
    assert stacks[7] >= 2 and stacks[8] >= 2
    violating = [i for i, problem in enumerate(corpus) if problem.m in (7, 8)]
    assert corpus[violating[0]].m == 8
    return corpus, violating


class _LowFirstPValue(ClosedStack):
    """Consonance fails, by its witnesses, on every problem whose first
    p-value is below 0.2: problems of every size, in every stack."""

    def __init__(self, ranked, alpha, procedure):
        super().__init__(ranked, alpha, procedure)
        # the p-values back in hypothesis order
        p = np.empty_like(ranked.p)
        p.put(ranked.flat, ranked.p)
        self.consonance_witnesses = [1 if value < 0.2 else None
                                     for value in p[:, 0].tolist()]


def _fields(results):
    return [(r.name, r.passed, r.detail, repr(r.witness)) for r in results]


def test_every_property_holds_up_to_ten_hypotheses():
    corpus = random_corpus(500, seed=41, m_max=10)
    assert max(problem.m for problem in corpus) == 10
    assert [(r.name, r.passed, r.detail, r.witness)
            for r in check_properties(corpus)] == [
        (name, True, "0 violations over 500 problems", None)
        for name, _ in PROPERTIES]


def test_witness_is_the_first_violation_in_corpus_order(monkeypatch):
    corpus, violating = _ordered_corpus()

    class Failing(ClosedStack):
        def __init__(self, ranked, alpha, procedure):
            super().__init__(ranked, alpha, procedure)
            if self.m in (7, 8):
                self.consonance_witnesses = [1] * len(self.rejections)

    monkeypatch.setattr(battery, "ClosedStack", Failing)
    results = {r.name: r for r in check_properties(corpus)}
    for name in ("consonance-whp", "consonance-wap"):
        assert not results[name].passed
        assert results[name].detail == (
            f"{len(violating)} violations over 1000 problems")
        assert results[name].witness is corpus[violating[0]]
    assert [name for name, r in results.items() if not r.passed] == [
        "consonance-whp", "consonance-wap"]


def test_graph_witness_is_the_first_violation_in_corpus_order(monkeypatch):
    # the same corpus, with the stacked graph kernel failing instead
    corpus, violating = _ordered_corpus()
    walk = battery.graph_rejections

    def failing(ranked, alpha):
        rejected = walk(ranked, alpha)
        if rejected.shape[1] in (7, 8):
            return ~rejected
        return rejected

    monkeypatch.setattr(battery, "graph_rejections", failing)
    results = {r.name: r for r in check_properties(corpus)}
    for name in ("graphical-equivalence-whp", "graphical-equivalence-wap"):
        assert not results[name].passed
        assert results[name].detail == (
            f"{len(violating)} violations over 1000 problems")
        assert results[name].witness is corpus[violating[0]]
    assert [name for name, r in results.items() if not r.passed] == [
        "graphical-equivalence-whp", "graphical-equivalence-wap"]


@pytest.mark.parametrize("trials, seed", [
    (1, 0), (1, 5), (7, 5), (7, 11), (2000, 0), (2000, 5)])
def test_battery_checks_the_corpus_then_runs_both_searches(monkeypatch,
                                                           trials, seed):
    # the battery's arrays give what the problems of `random_corpus` give,
    # with witnesses (built from the arrays) that equal its problems; WAP's
    # monotonicity line decides the pair constructed at weights (1, 2),
    # whatever the trials and the seed, and WHP's runs the search
    monkeypatch.setattr(battery, "ClosedStack", _LowFirstPValue)
    corpus = random_corpus(trials, seed=seed, m_max=8)
    expected = _fields(check_properties(corpus))
    pair = tuple(battery._wap_counterexample([1.0, 2.0], 0.05))
    results = _fields(run_check_battery(trials, seed))
    assert results[:len(PROPERTIES)] == expected
    assert results[len(PROPERTIES):] == [
        ("pvalue-monotonicity-violation-wap", True, "counterexample found",
         repr(pair)),
        ("pvalue-monotonicity-whp", True, "no violation found", repr(
            find_pvalue_monotonicity_violation(Procedure.WHP, trials, seed)))]
    assert pair[0].p == (1.0, 0.025)
    assert pair[1].p == (pytest.approx(0.0625 / 3), 0.025)
    if trials == 2000:
        assert sum(not passed for _, passed, _, _ in expected) == 2


@pytest.mark.parametrize("cells, stacks", [
    (1, lambda corpus: len(corpus)),
    (1 << 40, lambda corpus: len({problem.m for problem in corpus}))])
def test_results_do_not_depend_on_the_stacks(monkeypatch, cells, stacks):
    # one problem per stack, and one stack per size
    monkeypatch.setattr(battery, "ClosedStack", _LowFirstPValue)
    corpus = random_corpus(400, seed=13, m_max=9)
    expected = _fields(check_properties(corpus))
    assert (len({problem.m for problem in corpus})
            < sum(_stack_counts(corpus).values()) < len(corpus))
    monkeypatch.setattr(battery, "PROPERTY_STACK_CELLS", cells)
    assert sum(_stack_counts(corpus).values()) == stacks(corpus)
    assert _fields(check_properties(corpus)) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_constructed_pair_loses_a_rejection_unless_all_weights_are_equal(
        seed):
    # `_wap_counterexample`'s proof, checked by both step-downs: WAP loses
    # a rejection on the pair unless all weights are equal, and WHP, which
    # is p-value monotone, never does
    gen = np.random.default_rng(seed)
    weights = [[1.0, 2.0], [1.0, 0.99994], [1.0, 1.0 + 2.0 ** -40],
               [3.0, 1.0, 3.0, 1.0]]
    weights += [np.exp(gen.normal(0.0, 1.0, int(m))).tolist()
                for m in gen.integers(2, 13, size=1000)]
    equal = [[1.0], [2.0, 2.0, 2.0], [0.1] * 7]
    for w in weights + equal:
        problem, lowered = battery._wap_counterexample(
            w, float(gen.uniform(0.001, 0.2)))
        assert lowered.w == problem.w == tuple(w)
        assert all(map(float.__le__, lowered.p, problem.p))
        for stepdown, loses in ((wap_stepdown, w not in equal),
                                (whp_stepdown, False)):
            assert bool(stepdown(problem).rejected
                        - stepdown(lowered).rejected) == loses, w


def test_nothing_passes_vacuously():
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            run_check_battery(trials, 1)
    with pytest.raises(ValueError, match="no problems"):
        check_properties([])


@pytest.mark.parametrize("seed, argsorts", [(0, 52), (1, 52), (2, 48)])
def test_the_battery_ranks_each_stack_once_per_procedure(monkeypatch, seed,
                                                         argsorts):
    # `procedures.rank` ranks each stack, and the step-down kernel, closed
    # testing and the graph walk read its view: one `rank_rows` call per
    # stack per procedure inside `_check`, and no module but `procedures`
    # ranks or builds a flat index
    for module in (closure, graphical):
        assert not {"rank_rows", "rank_index"} & set(vars(module))
    assert not hasattr(procedures, "rank_index")
    for module in (adjust, battery, cli, closure, core, graphical, montecarlo):
        assert "argsort" not in inspect.getsource(module)
    assert inspect.getsource(procedures).count("np.argsort") == 1
    calls, counts = [], []
    rank_rows, check = procedures.rank_rows, battery._check

    def counted(*args):
        calls.append(args)
        return rank_rows(*args)

    def counted_check(*args):
        before = len(calls)
        results = check(*args)
        counts.append(len(calls) - before)
        return results

    monkeypatch.setattr(procedures, "rank_rows", counted)
    monkeypatch.setattr(battery, "_check", counted_check)
    profile = cProfile.Profile()
    profile.runcall(run_check_battery, 2000, seed)
    stacks = len(list(battery._stacks(closure._draw_corpus(2000, seed, 8,
                                                           0.05))))
    assert counts == [2 * stacks]
    # every argsort of the run, counted by cProfile: the WHP search's, the
    # two WAP step-downs' of the constructed pair and the stacks' rankings,
    # and `np.unique`'s in `_stacks`
    assert sum(stats[1] for (_, _, name), stats
               in pstats.Stats(profile).stats.items()
               if name == "<method 'argsort' of 'numpy.ndarray' objects>"
               ) == argsorts


def _engine_outputs(ranked, alpha, procedure):
    """Everything the closed-testing and graph engines give for a stack's
    view `ranked` at the (P,) levels `alpha`, with its float arrays as
    bytes: the `ClosedStack`'s rejections, witnesses and counterexamples,
    `graph_rejections`, and the live rows, levels and graphs of every
    `_walk` step."""
    closed = ClosedStack(ranked, alpha, procedure)
    initial = _initial_graphs(ranked.w, alpha[:, None], ranked.flat)
    walk = [(live.tobytes(), levels.tobytes(), graphs.tobytes())
            for live, levels, graphs in _walk(ranked, initial)]
    return (closed.rejections.tobytes(), closed.consonance_witnesses,
            closed.monotonicity_counterexamples,
            graph_rejections(ranked, alpha).tobytes(), walk)


@pytest.mark.parametrize("corpus", [
    random_corpus(3000, seed=7, m_max=12), BOUNDARY_CORPUS,
    _boundary_corpus(1200, seed=41), _tied_corpus(800, seed=61)],
    ids=["random", "exact-boundary", "boundary", "ties-and-zeros"])
@pytest.mark.parametrize("procedure", [Procedure.WHP, Procedure.WAP])
def test_weights_scaled_by_a_power_of_two_decide_the_same_bits(corpus,
                                                               procedure):
    # scaling every weight by 2^k is exact, and so is every ratio of
    # weights, quotient p/w and product (p/w) * total formed from them: the
    # kernel, closed testing and the graph walk, reading the weights only
    # through the ranked view, must give the same bits
    key = ranking(procedure)
    for _, (p, w, alpha) in battery._stacks(battery._flatten(corpus)):
        ranked = rank(p, w, key)
        _, adjusted, rejected = adjust_rows(ranked, alpha[:, None])
        expected = _engine_outputs(ranked, alpha, procedure)
        for k in (-64, -16, 16, 64):
            scale = 2.0 ** k
            view = rank(p, w * scale, key)
            _, scaled, decided = adjust_rows(view, alpha[:, None])
            assert (view.perm == ranked.perm).all()
            assert scaled.tobytes() == adjusted.tobytes()
            assert (decided == rejected).all()
            assert _engine_outputs(ranked._replace(w=ranked.w * scale), alpha,
                                   procedure) == expected
