from wholm.battery import PROPERTIES, check_properties
from wholm.closure import random_corpus


def test_every_property_holds_up_to_ten_hypotheses():
    corpus = random_corpus(500, seed=41, m_max=10)
    assert max(problem.m for problem in corpus) == 10
    assert [(r.name, r.passed, r.detail, r.witness)
            for r in check_properties(corpus)] == [
        (name, True, "0 violations over 500 problems", None)
        for name, _ in PROPERTIES]
