import numpy as np
import pytest

from wholm import (OrderingKey, adjusted_wap, adjusted_whp, holm_stepdown,
                   validate_problem, wap_stepdown, whp_stepdown)
from wholm.closure import random_corpus
from wholm.procedures import rank_rows

ALPHA_GRID = (0.001, 0.01, 0.025, 0.05, 0.1, 0.5)


class TestGoldenValues:
    def test_divergent_example(self, divergent_problem):
        assert adjusted_whp(divergent_problem).values == pytest.approx(
            (0.042, 0.042, 0.3), abs=1e-12)
        assert adjusted_wap(divergent_problem).values == pytest.approx(
            (0.06, 0.06, 0.3), abs=1e-12)

    def test_ards_trial(self, ards_problem):
        assert adjusted_whp(ards_problem).values == pytest.approx(
            (0.040, 0.040, 0.040, 0.008), abs=1e-12)
        assert adjusted_wap(ards_problem).values == pytest.approx(
            (0.045, 0.045, 0.045, 0.008), abs=1e-12)

    def test_diabetes_trial(self, diabetes_problem):
        assert adjusted_whp(diabetes_problem).values == pytest.approx(
            (0.0348333333333333, 0.0498333333333333, 0.0288,
             0.0498333333333333, 0.0630, 0.0880), abs=1e-12)
        assert adjusted_wap(diabetes_problem).values == pytest.approx(
            (0.0348333333333333, 0.0585, 0.0288, 0.0585, 0.0630, 0.0880),
            abs=1e-12)


class TestStructure:
    def test_values_capped_at_one(self):
        prob = validate_problem(["a", "b", "c"], [0.9, 0.95, 1.0],
                                [0.01, 1.0, 1.0], 0.05)
        for report in (adjusted_whp(prob), adjusted_wap(prob)):
            assert all(0.0 <= v <= 1.0 for v in report.values)

    def test_nondecreasing_along_ordering(self):
        for prob in random_corpus(200, seed=53, m_max=9):
            p, w = np.array([prob.p]), np.array([prob.w])
            for report, key in ((adjusted_whp(prob), OrderingKey.WEIGHTED),
                                (adjusted_wap(prob), OrderingKey.RAW)):
                ranked = [report.values[i] for i in rank_rows(p, p / w, key)[0]]
                assert ranked == sorted(ranked)

    def test_whp_dominates_wap(self):
        for prob in random_corpus(400, seed=59, m_max=9):
            whp = adjusted_whp(prob).values
            wap = adjusted_wap(prob).values
            # tail sums are accumulated in different orders, so allow one ulp
            assert all(a <= b or a == pytest.approx(b, rel=1e-12)
                       for a, b in zip(whp, wap))

    def test_unit_weight_collapse_to_holm(self):
        gen = np.random.default_rng(61)
        for _ in range(100):
            m = int(gen.integers(1, 9))
            p = gen.uniform(size=m)
            prob = validate_problem([f"H{i}" for i in range(m)], p,
                                    [1.0] * m, 0.05)
            # classic Holm adjusted values: running max of p_(j) * (m - j + 1)
            order = np.argsort(p, kind="stable")
            running = 0.0
            holm_adj = np.empty(m)
            for j, idx in enumerate(order):
                running = min(max(running, p[idx] * (m - j)), 1.0)
                holm_adj[idx] = running
            assert adjusted_whp(prob).values == pytest.approx(tuple(holm_adj))
            assert adjusted_wap(prob).values == pytest.approx(tuple(holm_adj))


class TestDecisionConsistency:
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_thresholding_reproduces_stepdowns(self, alpha):
        for prob in random_corpus(100, seed=67, m_max=8, alpha=alpha):
            whp_cut = {i for i, v in enumerate(adjusted_whp(prob).values)
                       if v <= alpha}
            wap_cut = {i for i, v in enumerate(adjusted_wap(prob).values)
                       if v <= alpha}
            assert whp_cut == set(whp_stepdown(prob).rejected)
            assert wap_cut == set(wap_stepdown(prob).rejected)
