import pytest

from wholm import battery
from wholm.battery import PROPERTIES, check_properties, run_check_battery
from wholm.closure import ClosedStack, random_corpus


def test_every_property_holds_up_to_ten_hypotheses():
    corpus = random_corpus(500, seed=41, m_max=10)
    assert max(problem.m for problem in corpus) == 10
    assert [(r.name, r.passed, r.detail, r.witness)
            for r in check_properties(corpus)] == [
        (name, True, "0 violations over 500 problems", None)
        for name, _ in PROPERTIES]


def test_witness_is_the_first_violation_in_corpus_order(monkeypatch):
    # Each size group spans two stacks.  The first violating problem has
    # m = 5 and comes before every m = 2 problem, so a runner that visited
    # its groups in order of size would name another.
    corpus = random_corpus(600, seed=5, m_max=8)
    violating = [i for i, problem in enumerate(corpus) if problem.m in (2, 5)]
    assert corpus[violating[0]].m == 5
    assert sum(problem.m == 5 for problem in corpus) > battery.PROPERTY_STACK_ROWS
    class Failing(ClosedStack):
        def __init__(self, stack, procedure):
            super().__init__(stack, procedure)
            if self.m in (2, 5):
                self.consonance_witnesses = [1] * len(self.rejections)

    monkeypatch.setattr(battery, "ClosedStack", Failing)
    results = {r.name: r for r in check_properties(corpus)}
    for name in ("consonance-whp", "consonance-wap"):
        assert not results[name].passed
        assert results[name].detail == (
            f"{len(violating)} violations over 600 problems")
        assert results[name].witness is corpus[violating[0]]
    assert [name for name, r in results.items() if not r.passed] == [
        "consonance-whp", "consonance-wap"]


def test_graph_witness_is_the_first_violation_in_corpus_order(monkeypatch):
    # the same corpus, with the stacked graph kernel failing instead
    corpus = random_corpus(600, seed=5, m_max=8)
    violating = [i for i, problem in enumerate(corpus) if problem.m in (2, 5)]
    assert corpus[violating[0]].m == 5
    walk = battery.graph_rejections

    def failing(stack, ordering):
        rejected = walk(stack, ordering)
        if stack.m in (2, 5):
            return ~rejected
        return rejected

    monkeypatch.setattr(battery, "graph_rejections", failing)
    results = {r.name: r for r in check_properties(corpus)}
    for name in ("graphical-equivalence-whp", "graphical-equivalence-wap"):
        assert not results[name].passed
        assert results[name].detail == (
            f"{len(violating)} violations over 600 problems")
        assert results[name].witness is corpus[violating[0]]
    assert [name for name, r in results.items() if not r.passed] == [
        "graphical-equivalence-whp", "graphical-equivalence-wap"]


def test_nothing_passes_vacuously():
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            run_check_battery(trials, 1)
    with pytest.raises(ValueError, match="no problems"):
        check_properties([])
