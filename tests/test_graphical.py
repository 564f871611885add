import hashlib
from fractions import Fraction
from functools import reduce
from itertools import permutations
from operator import add

import numpy as np
import pytest

from test_closure import _arrays, _boundary_corpus
from test_procedures import BOUNDARY_CORPUS
from wholm import (OrderingKey, TransitionGraph, reject_and_update,
                   run_graphical, validate_problem, wap_stepdown, whp_stepdown)
from wholm.battery import _flatten, _stacks, check_properties
from wholm.cli import main
from wholm.closure import random_corpus
from wholm.graphical import (GraphInvariantError, _coefficient_labels,
                             _degenerate, _initial_graphs, _walk, dot_stages,
                             graph_rejections)
from wholm.procedures import rank, rank_rows

# `dot_stages` of `_dot_problem(name)`, labelled H1..Hm, under each ordering,
# joined by blank lines with a final line end; computed with one
# `Fraction.limit_denominator` call per coefficient
DOT_SHA256 = {
    ("m30", "weighted"):
        "7856da2def86f340d54c27ba28c6d4606dcdf2ecf33480745834ed99eee36cf6",
    ("m30", "raw"):
        "00a4e18fa320356d5d55e5c03e582e02dee77de034da9de945be6172710ca88e",
    ("equal8", "weighted"):
        "c270c386a10ce30477f1811247b910d3eafa20126a78167c5fd1013e908b5962",
    ("equal8", "raw"):
        "c270c386a10ce30477f1811247b910d3eafa20126a78167c5fd1013e908b5962"}


def closed_form(w, alpha, active):
    total = sum(w[i] for i in active)
    local = {i: w[i] * alpha / total for i in active}
    g = {}
    for l in active:
        off = total - w[l]
        for k in active:
            if k != l:
                g[(l, k)] = w[k] / off
    return local, g


def _initial_closed_form(w, alpha):
    """The initial levels and coefficients in Python floats: w_i * alpha /
    total, with the total added one weight at a time in index order, and
    g_ij = w_j over the other weights, added one at a time from each end
    towards i.  Every sum is a `reduce`, not the builtin `sum`, which
    compensates its additions from Python 3.12 on."""
    m, total = len(w), reduce(add, w, 0.0)
    others = [reduce(add, w[:i], 0.0) + reduce(add, w[:i:-1], 0.0)
              for i in range(m)]
    return ([wi * alpha / total for wi in w],
            [[0.0 if i == j else w[j] / others[i] for j in range(m)]
             for i in range(m)])


def _closed_form_graph(w, alpha):
    """`_initial_closed_form` as a `TransitionGraph` with every node
    active."""
    local, g = _initial_closed_form(w, alpha)
    return TransitionGraph(active=frozenset(range(len(w))),
                           local_alpha=np.array(local), g=np.array(g))


def _initial(w, alpha):
    """The initial graph of weights `w` at `alpha`, as the trace of a run
    on p-values of 1 keeps it."""
    problem = validate_problem(range(len(w)), [1.0] * len(w), w, alpha)
    return run_graphical(problem, OrderingKey.WEIGHTED)[1].initial


class TestInitialGraph:
    def test_equals_the_closed_form_and_the_walks_first_graph(self):
        gen = np.random.default_rng(2021)
        corpus = [(1.0, 1e-17), (1e-17, 1.0), (1e300, 1e-300, 3.0), (4.0,)]
        for m in range(1, 30):
            corpus += [tuple(np.exp(gen.normal(0.0, 3.0, m)).tolist())
                       for _ in range(10)]
        for w in corpus:
            alpha = float(gen.uniform(0.001, 0.5))
            graph = _initial(w, alpha)
            local, g = _initial_closed_form(w, alpha)
            assert graph.active == set(range(len(w)))
            assert graph.local_alpha.tolist() == local, w
            assert graph.g.tolist() == g, w
            # the walk's first graph, in a ranking of its own, gathered back
            # to index order
            order = gen.permutation(len(w))
            ranked = _initial_graphs(np.array([w])[:, order], alpha,
                                     order[None])[0]
            back = np.argsort(order)
            assert ranked[-1, back].tolist() == local, w
            assert ranked[:-1][np.ix_(back, back)].tolist() == g, w

    def test_unequal_weight_values(self):
        graph = _initial([1.0, 2.0, 3.0], 0.05)
        assert graph.local_alpha[0] == pytest.approx(0.05 / 6)
        assert graph.local_alpha[1] == pytest.approx(0.05 / 3)
        assert graph.local_alpha[2] == pytest.approx(0.025)
        assert graph.g[(0, 1)] == pytest.approx(2 / 5)
        assert graph.g[(0, 2)] == pytest.approx(3 / 5)
        assert graph.g[(1, 0)] == pytest.approx(1 / 4)
        assert graph.g[(1, 2)] == pytest.approx(3 / 4)
        assert graph.g[(2, 0)] == pytest.approx(1 / 3)
        assert graph.g[(2, 1)] == pytest.approx(2 / 3)

    def test_equal_weights_symmetric(self):
        graph = _initial([2.0, 2.0, 2.0], 0.05)
        for i in range(3):
            assert graph.local_alpha[i] == pytest.approx(0.05 / 3)
        off_diagonal = ~np.eye(3, dtype=bool)
        assert all(v == pytest.approx(0.5) for v in graph.g[off_diagonal])
        assert not graph.g[~off_diagonal].any()

    def test_single_node(self):
        graph = _initial([4.0], 0.05)
        assert graph.local_alpha.tolist() == [0.05]
        assert graph.g.tolist() == [[0.0]]

    def test_row_sums_and_total_level(self):
        gen = np.random.default_rng(2)
        w = gen.uniform(0.5, 5.0, size=6)
        graph = _initial(w, 0.05)
        assert sum(graph.local_alpha) == pytest.approx(0.05)
        for l in range(6):
            assert sum(graph.g[(l, k)] for k in range(6) if k != l) == pytest.approx(1.0)


def _summed_and_divided(w, alpha, flat):
    """`_initial_graphs` as it was before its total came from its left
    sums: each row's total added one weight at a time in index order, and
    every entry divided, the diagonal too."""
    count, m = w.shape
    total = np.array([[reduce(add, row, 0.0)] for row in w.tolist()])
    left, right = np.zeros((2, count, m))
    np.add.accumulate(w[:, :-1], axis=1, out=left[:, 1:])
    np.add.accumulate(w[:, :0:-1], axis=1, out=right[:, -2::-1])
    w, others = w.take(flat), np.add(left, right).take(flat)
    graph = np.zeros((count, m + 1, m))
    if m > 1:
        np.divide(w[:, None, :], others[:, :, None], out=graph[:, :m])
    np.multiply(w, alpha, out=graph[:, m])
    graph[:, m] /= total
    return graph


def test_initial_graphs_equal_the_summed_and_divided_form():
    gen = np.random.default_rng(2024)
    for _ in range(400):
        count, m = int(gen.integers(1, 65)), int(gen.integers(1, 40))
        w = np.exp(gen.normal(0.0, 2.0, size=(count, m)))
        alpha = gen.uniform(0.001, 0.5, size=(count, 1))
        perm = np.argsort(gen.uniform(size=(count, m)), axis=1)
        flat = perm + np.arange(0, count * m, m)[:, None]
        # the weights by rank, as a ranked view holds them
        graph = _initial_graphs(w.take(flat), alpha, flat)
        reference = _summed_and_divided(w, alpha, flat)
        diagonal = np.eye(m, dtype=bool)
        assert graph[:, m].tobytes() == reference[:, m].tobytes()
        assert (graph[:, :m][:, ~diagonal].tobytes()
                == reference[:, :m][:, ~diagonal].tobytes())
        assert not graph[:, :m][:, diagonal].any()


@pytest.mark.filterwarnings("error")
def test_subnormal_weight_builds_its_graphs_without_a_warning(tmp_path,
                                                              capsys):
    # w_0 over the other weight overflows, on the diagonal only
    prob = validate_problem(["H1", "H2"], [0.0, 0.02], [1e-320, 1.0], 0.05)
    for ordering in (OrderingKey.WEIGHTED, OrderingKey.RAW):
        rejections, trace = run_graphical(prob, ordering)
        assert trace.initial.g.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert rejections.rejected == {0, 1}
    path = tmp_path / "subnormal.csv"
    path.write_text("hypothesis,p_value,weight\nH1,0,1e-320\nH2,0.02,1\n")
    assert main(["graph", "--input", str(path), "--alpha", "0.05",
                 "--ordering", "weighted",
                 "--output-dir", str(tmp_path / "stages")]) == 0
    captured = capsys.readouterr()
    assert "rejected: ['H1', 'H2']" in captured.out
    assert captured.err == ""


class TestRejectAndUpdate:
    def test_update_after_middle_node(self):
        graph = reject_and_update(_initial([1.0, 2.0, 3.0], 0.05), 1)
        assert graph.active == {0, 2}
        assert graph.local_alpha[0] == pytest.approx(0.0125)
        assert graph.local_alpha[2] == pytest.approx(0.0375)
        assert graph.g[(0, 2)] == pytest.approx(1.0)
        assert graph.g[(2, 0)] == pytest.approx(1.0)

    def test_equal_weight_symmetry(self):
        graph = reject_and_update(_initial([1.0, 1.0, 1.0], 0.05), 0)
        assert graph.local_alpha[1] == pytest.approx(0.025)
        assert graph.local_alpha[2] == pytest.approx(0.025)
        assert graph.g[(1, 2)] == pytest.approx(1.0)

    def test_two_node_survivor_gets_everything(self):
        graph = reject_and_update(_initial([1.0, 3.0], 0.05), 1)
        assert graph.active == {0}
        assert graph.local_alpha[0] == pytest.approx(0.05)

    def test_inactive_node_rejected_is_usage_error(self):
        graph = reject_and_update(_initial([1.0, 2.0, 3.0], 0.05), 0)
        with pytest.raises(ValueError, match="not active"):
            reject_and_update(graph, 0)

    def test_matches_closed_form_along_random_removals(self):
        gen = np.random.default_rng(9)
        for _ in range(50):
            m = int(gen.integers(2, 8))
            w = gen.uniform(0.5, 5.0, size=m)
            graph = _initial(w, 0.05)
            active = set(range(m))
            order = gen.permutation(m)
            for j in order[:-1]:
                graph = reject_and_update(graph, int(j))
                active.discard(int(j))
                local, g = closed_form(w, 0.05, active)
                for i in active:
                    assert graph.local_alpha[i] == pytest.approx(local[i], rel=2e-15)
                for key, val in g.items():
                    assert graph.g[key] == pytest.approx(val, rel=2e-15)
                assert sum(graph.local_alpha) == pytest.approx(0.05)
                if len(active) >= 2:
                    for l in active:
                        row = sum(graph.g[(l, k)] for k in active if k != l)
                        assert row == pytest.approx(1.0)

    def test_inactive_entries_are_exact_zeros_along_random_removals(self):
        gen = np.random.default_rng(17)
        for _ in range(50):
            m = int(gen.integers(1, 8))
            graph = _initial(gen.uniform(0.5, 5.0, size=m), 0.05)
            for j in gen.permutation(m):
                # no division by zero, not even at the last two-node update
                with np.errstate(all="raise"):
                    graph = reject_and_update(graph, int(j))
                inactive = np.ones(m, dtype=bool)
                inactive[list(graph.active)] = False
                assert np.isfinite(graph.local_alpha).all()
                assert np.isfinite(graph.g).all()
                assert (graph.local_alpha[inactive] == 0.0).all()
                assert (graph.g[inactive] == 0.0).all()
                assert (graph.g[:, inactive] == 0.0).all()
                assert (np.diag(graph.g) == 0.0).all()
            assert not graph.active and not graph.local_alpha.any()

    def test_degenerate_update_raises_graph_invariant_error(self):
        # g[1, 0] * g[0, 1] = 1: rejecting node 0 leaves nothing to divide by
        # on node 1 while node 2 is still active
        graph = TransitionGraph(
            active=frozenset({0, 1, 2}),
            local_alpha=np.array([0.02, 0.02, 0.01]),
            g=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]))
        with pytest.raises(GraphInvariantError, match=r"g\[1,0\] \* g\[0,1\]"):
            reject_and_update(graph, 0)
        # with two nodes active the last update has no edge left to rewire
        two = TransitionGraph(active=frozenset({0, 1}),
                              local_alpha=np.array([0.025, 0.025]),
                              g=np.array([[0.0, 1.0], [1.0, 0.0]]))
        last = reject_and_update(two, 0)
        assert last.local_alpha.tolist() == [0.0, 0.05]
        assert last.g.tolist() == [[0.0, 0.0], [0.0, 0.0]]


class TestRunGraphical:
    def test_divergent_weighted_matches_whp(self, divergent_problem):
        rejections, trace = run_graphical(divergent_problem, OrderingKey.WEIGHTED)
        assert rejections.rejected == {0, 1}
        assert [s.rejected_index for s in trace.steps] == [1, 0]

    def test_divergent_raw_matches_wap(self, divergent_problem):
        rejections, trace = run_graphical(divergent_problem, OrderingKey.RAW)
        assert rejections.rejected == frozenset()
        assert trace.steps == ()

    def test_hopeless_pvalues_reject_nothing(self):
        prob = validate_problem(["a", "b"], [1.0, 1.0], [1.0, 2.0], 0.05)
        for ordering in (OrderingKey.WEIGHTED, OrderingKey.RAW):
            assert run_graphical(prob, ordering)[0].rejected == frozenset()

    @pytest.mark.parametrize("w1, p1, rejected", [
        (1e-17, 0.04, {0, 1}), (3e-16, 0.06, {0}), (1e-15, 0.048, {0, 1})])
    def test_extreme_weight_ratio_matches_stepdowns(self, w1, p1, rejected):
        # H1 holds nearly all the weight, so total - w_0 would cancel and
        # send H1's level along a coefficient of 0, 1.35 or 0.90, not 1
        prob = validate_problem(["H1", "H2"], [0.0, p1], [1.0, w1], 0.05)
        assert whp_stepdown(prob).rejected == rejected
        assert wap_stepdown(prob).rejected == rejected
        for ordering in (OrderingKey.WEIGHTED, OrderingKey.RAW):
            rejections, trace = run_graphical(prob, ordering)
            assert trace.initial.g.tolist() == [[0.0, 1.0], [1.0, 0.0]]
            assert rejections.rejected == rejected

    def test_equivalent_to_stepdowns_on_corpus(self):
        for prob in random_corpus(500, seed=41, m_max=10):
            assert (run_graphical(prob, OrderingKey.WEIGHTED)[0].rejected
                    == whp_stepdown(prob).rejected)
            assert (run_graphical(prob, OrderingKey.RAW)[0].rejected
                    == wap_stepdown(prob).rejected)


def _snapshot(graph):
    return graph.active, graph.local_alpha.tobytes(), graph.g.tobytes()


def _reference_run(problem, ordering):
    """The graph walked node by node with `reject_and_update` along
    `rank_rows`'s ranking, from the Python-float initial graph
    `_initial_closed_form`, which shares no code with the walk's
    `_initial_graphs`: the rejected index and the threshold (as
    `float.hex`) of each step and the graph after it, or the text of the
    `GraphInvariantError` the walk raises."""
    p = np.array([problem.p])
    order = rank_rows(p, p / np.array([problem.w]), ordering)[0].tolist()
    graph = _closed_form_graph(problem.w, problem.alpha)
    trace, snapshots = [], []
    for j in order:
        threshold = float(graph.local_alpha[j])
        if problem.p[j] > threshold:
            break
        try:
            graph = reject_and_update(graph, j)
        except GraphInvariantError as exc:
            return str(exc)
        trace.append((j, threshold.hex()))
        snapshots.append(_snapshot(graph))
    return trace, snapshots


def _one_row_run(problem, ordering):
    """`run_graphical`'s run in `_reference_run`'s form."""
    try:
        rejections, trace = run_graphical(problem, ordering)
    except GraphInvariantError as exc:
        return str(exc)
    steps = [(j, threshold.hex()) for _, j, threshold in rejections.trace]
    assert [step for step, _, _ in rejections.trace] == list(
        range(1, len(steps) + 1))
    assert rejections.rejected == {j for j, _ in steps}
    assert [step.rejected_index for step in trace.steps] == [j for j, _ in steps]
    return steps, [_snapshot(step.after) for step in trace.steps]


def _stacked_runs(problems, ordering):
    """Per problem, the steps of one `_walk` over its stack, with the
    problems stacked as the battery stacks them: the rejected index and the
    threshold (as `float.hex`) of each step and the rank-order graph after
    it, and the stack's `graph_rejections` (as the set of the indices its
    row holds)."""
    runs = [None] * len(problems)
    for rows, (p, w, alpha) in _stacks(_flatten(problems)):
        ranked = rank(p, w, ordering)
        perm = ranked.perm
        out = [([], [], perm[r]) for r in range(len(rows))]
        initial = _initial_graphs(ranked.w, alpha[:, None], ranked.flat)
        for k, (live, thresholds, graphs) in enumerate(
                _walk(ranked, initial)):
            for r, threshold, graph in zip(live.tolist(), thresholds.tolist(),
                                           graphs):
                out[r][0].append((int(perm[r, k]), threshold.hex()))
                out[r][1].append(graph)
        rejected = graph_rejections(ranked, alpha)
        assert rejected.dtype == bool and rejected.shape == perm.shape
        for index, run, row in zip(rows.tolist(), out, rejected):
            runs[index] = run + (frozenset(np.flatnonzero(row).tolist()),)
    return runs


# Rows around w = (1, 1, 1e-17), where rejecting a heavy node can leave
# g_lj * g_jl = 1 in floats, in every hypothesis order
_DEGENERATE = [validate_problem(["H1", "H2", "H3"], [p[i] for i in order],
                                [(1.0, 1.0, 1e-17)[i] for i in order], 0.05)
               for p in ((0.0, 0.0, 0.0), (0.0, 1e-12, 2e-12))
               for order in permutations(range(3))]


@pytest.mark.parametrize("corpus", [
    random_corpus(3000, seed=7, m_max=12), BOUNDARY_CORPUS,
    _boundary_corpus(1200, seed=41)], ids=["random", "exact-boundary",
                                           "boundary"])
@pytest.mark.parametrize("ordering", list(OrderingKey))
def test_walk_equals_the_node_by_node_reference(corpus, ordering):
    # every threshold, level and coefficient bit for bit, in one-row runs
    # and in the battery's stacks
    references = [_reference_run(problem, ordering) for problem in corpus]
    assert not any(isinstance(reference, str) for reference in references)
    for problem, reference in zip(corpus + _DEGENERATE, references + [
            _reference_run(problem, ordering) for problem in _DEGENERATE]):
        assert _one_row_run(problem, ordering) == reference, problem
    for problem, reference, (steps, graphs, ranks, rejected) in zip(
            corpus, references, _stacked_runs(corpus, ordering)):
        trace, snapshots = reference
        assert steps == trace, problem
        assert rejected == {j for j, _ in trace}, problem
        for k, (graph, (_, local_alpha, g)) in enumerate(zip(graphs,
                                                            snapshots)):
            active = ranks[k + 1:]
            full = np.frombuffer(g).reshape(problem.m, problem.m)
            assert (graph[:-1].tobytes()
                    == full[np.ix_(active, active)].tobytes()), problem
            assert (graph[-1].tobytes()
                    == np.frombuffer(local_alpha)[active].tobytes()), problem
    assert sum(isinstance(_reference_run(problem, ordering), str)
               for problem in _DEGENERATE) >= 2


@pytest.mark.parametrize("corpus", [
    random_corpus(3000, seed=7, m_max=12), BOUNDARY_CORPUS],
    ids=["random", "exact-boundary"])
@pytest.mark.parametrize("ordering", list(OrderingKey))
def test_trace_initial_equals_initial_graph(corpus, ordering):
    # the graph a run started from, built in its rank order and read back
    # in hypothesis order, is the closed-form initial graph bit for bit
    for problem in corpus:
        _, trace = run_graphical(problem, ordering)
        assert (_snapshot(trace.initial)
                == _snapshot(_closed_form_graph(problem.w, problem.alpha))
                ), problem


def test_writing_into_the_initial_graph_changes_no_later_read(
        divergent_problem):
    _, trace = run_graphical(divergent_problem, OrderingKey.WEIGHTED)
    stages = dot_stages(trace)
    before = _snapshot(trace.initial)
    written = trace.initial
    written.g[:] = 0.25
    written.local_alpha[:] = 0.5
    assert _snapshot(trace.initial) == before
    assert dot_stages(trace) == stages


def test_degenerate_update_names_the_first_node_in_hypothesis_order():
    # `np.argmin`'s tie-break in `reject_and_update`: among equal smallest
    # denominators, the first node in hypothesis order, here 1 at rank 2
    denom = np.array([[0.5, 0.25, 0.5], [0.5, 0.0, -0.0]])
    ranks = np.array([[4, 3, 1, 2], [4, 3, 2, 1]])
    with pytest.raises(GraphInvariantError) as info:
        _degenerate(denom, ranks, np.array([5, 7]))
    assert str(info.value) == "degenerate update: g[1,4] * g[4,1] = 1"
    assert info.value.row == 7


def test_degenerate_update_in_a_stack_names_its_row():
    found = validate_problem(["H1", "H2", "H3"], [0.0, 0.0, 0.0],
                             [1.0, 1.0, 1e-17], 0.05)
    corpus = random_corpus(60, seed=3)
    ordinary = [problem for problem in corpus if problem.m == 3]
    assert len(ordinary) > 4
    p, w, alpha = _arrays(ordinary[:3] + [found] + ordinary[3:])
    for ordering in OrderingKey:
        with pytest.raises(GraphInvariantError) as info:
            graph_rejections(rank(p, w, ordering), alpha)
        assert str(info.value) == "degenerate update: g[1,0] * g[0,1] = 1"
        assert info.value.row == 3
    corpus.insert(17, found)
    with pytest.raises(GraphInvariantError) as info:
        check_properties(corpus)
    assert str(info.value) == (
        "problem 17: degenerate update: g[1,0] * g[0,1] = 1")
    assert info.value.row == 17


@pytest.mark.xfail(strict=True, raises=GraphInvariantError, reason=(
    "rejecting a heavy node leaves g[1,0] * g[0,1] = 1 in floats, so both "
    "orderings raise a degenerate update where both step-downs reject all "
    "three hypotheses"))
def test_degenerate_input_rejects_what_the_stepdowns_reject():
    found = validate_problem(["H1", "H2", "H3"], [0.0, 0.0, 0.0],
                             [1.0, 1.0, 1e-17], 0.05)
    for ordering, stepdown in ((OrderingKey.WEIGHTED, whp_stepdown),
                               (OrderingKey.RAW, wap_stepdown)):
        assert stepdown(found).rejected == {0, 1, 2}
        rejections, _ = run_graphical(found, ordering)
        assert rejections.rejected == {0, 1, 2}


class TestExportDot:
    def test_initial_fraction_labels(self, divergent_problem):
        _, trace = run_graphical(divergent_problem, OrderingKey.RAW)
        text = "\n\n".join(dot_stages(trace,
                                        labels=divergent_problem.labels))
        assert '"H1" -> "H2" [label="2/5"]' in text
        assert 'alpha=0.0083' in text

    def test_empty_trace_single_stage(self, divergent_problem):
        _, trace = run_graphical(divergent_problem, OrderingKey.RAW)
        stages = dot_stages(trace)
        assert len(stages) == 1
        assert stages[0].startswith("digraph stage_0")

    def test_weighted_run_has_three_stages(self, divergent_problem):
        _, trace = run_graphical(divergent_problem, OrderingKey.WEIGHTED)
        stages = dot_stages(trace, labels=divergent_problem.labels)
        assert len(stages) == 3
        assert 'rejected=true' in stages[1]
        assert '"H2" [label="H2", rejected=true]' in stages[1]
        # after both rejections only H3 keeps a level
        assert 'alpha=0.0500' in stages[2]

    def test_writing_into_a_step_graph_changes_no_later_read(
            self, divergent_problem):
        _, trace = run_graphical(divergent_problem, OrderingKey.WEIGHTED)
        stages = dot_stages(trace)
        before = [(step.after.g.copy(), step.after.local_alpha.copy())
                  for step in trace.steps]
        written = trace.steps[0].after
        written.g[:] = 0.25
        written.local_alpha[:] = 0.5
        for step, (g, local) in zip(trace.steps, before):
            assert step.after.g.tobytes() == g.tobytes()
            assert step.after.local_alpha.tobytes() == local.tobytes()
        assert dot_stages(trace) == stages


def _dot_problem(name):
    """m = 30 with w ~ U(0.5, 5) and p-values below the critical values
    (numpy seed 2030), or m = 8 with equal weights; every hypothesis of
    either is rejected, under either ordering."""
    if name == "equal8":
        p, w = [0.001 * (i + 1) for i in range(8)], [1.0] * 8
    else:
        gen = np.random.default_rng(2030)
        w = gen.uniform(0.5, 5.0, size=30)
        p = (w / w.sum() * 0.05 * gen.uniform(0.0, 1.5, size=30)).tolist()
        w = w.tolist()
    return validate_problem([f"H{i + 1}" for i in range(len(w))], p, w, 0.05)


@pytest.mark.parametrize("name", ["m30", "equal8"])
@pytest.mark.parametrize("ordering", ["weighted", "raw"])
def test_larger_dot_outputs_are_byte_identical_to_golden(name, ordering):
    prob = _dot_problem(name)
    rejections, trace = run_graphical(prob, OrderingKey(ordering))
    assert len(rejections.rejected) == len(prob.w)
    text = "\n\n".join(dot_stages(trace, labels=prob.labels)) + "\n"
    if name == "equal8":
        # every coefficient is 1/k, so no label falls back to six decimals
        assert "." not in "".join(line.split("label=")[1] for line in
                                  text.splitlines() if "->" in line)
    assert hashlib.sha256(text.encode()).hexdigest() == DOT_SHA256[name, ordering]


def _fraction_label(value):
    """The label of `value` from `Fraction.limit_denominator` itself."""
    frac = Fraction(value).limit_denominator(10 ** 6)
    if abs(frac.numerator / frac.denominator - value) < 1e-12:
        return (str(frac.numerator) if frac.denominator == 1
                else f"{frac.numerator}/{frac.denominator}")
    return f"{value:.6f}"


def _farey_midpoints(gen, count, limit=10 ** 6):
    """The float nearest the midpoint of a random a/b and its successor c/e
    among the fractions with denominator <= limit (cb - ae = 1), and the
    floats on either side: limit_denominator's two candidates are then a/b
    and c/e, at almost equal distances."""
    values = []
    for _ in range(count):
        b = int(gen.integers(2, limit + 1))
        a = int(gen.integers(1, b))
        while np.gcd(a, b) != 1:
            a = int(gen.integers(1, b))
        e = (-pow(a, -1, b)) % b
        e += b * ((limit - e) // b)
        mid = float((Fraction(a, b) + Fraction((1 + a * e) // b, e)) / 2)
        values += [np.nextafter(mid, 0.0), mid, np.nextafter(mid, 1.0)]
    return values


def test_coefficient_labels_equal_limit_denominator():
    gen = np.random.default_rng(15)
    q = gen.integers(1, 2 * 10 ** 6 + 1, size=20_000)
    near_k = gen.integers(0, 10 ** 6 + 1, size=10_000) / 10 ** 6
    low = 2.0 ** -10
    values = np.concatenate([
        gen.uniform(0.0, 1.0, 30_000),
        # a third of these lie below 2**-10, outside the int64 kernel
        gen.uniform(0.0, 1.0, 20_000) ** 6,
        gen.integers(0, 2 ** 19, 5_000) / 2 ** 19,
        gen.integers(0, 2 ** 21, 5_000) / 2 ** 21,
        np.floor(gen.uniform(0.0, 1.0, q.size) * (q + 1)) / q,
        near_k + gen.uniform(-2e-12, 2e-12, near_k.size),
        1 / 3 + gen.uniform(-2e-12, 2e-12, 5_000),
        _farey_midpoints(gen, 5_000),
        [0.0, 1.0, low, np.nextafter(low, 0.0)]])
    assert values.size > 100_000
    expected = [_fraction_label(v) for v in values.tolist()]
    assert _coefficient_labels(values) == expected
    assert sum("/" in label for label in expected) > values.size // 3
