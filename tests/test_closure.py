import numpy as np
import pytest

from wholm import (ConsonanceReport, Procedure, check_consonance,
                   check_monotonicity_condition, ctp,
                   find_pvalue_monotonicity_violation, validate_problem,
                   wap_local_test, wap_stepdown, whp_local_test, whp_stepdown)
from wholm.closure import CapacityError, random_corpus, random_problem


def mask_of(*indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


# A boundary p-value w*alpha/t, for t the index-order total of a subset
# holding it, written in each of three float forms that round differently.
BOUNDARY_FORMS = (lambda w, a, t: w * a / t,
                  lambda w, a, t: a / t * w,
                  lambda w, a, t: w / t * a)


def _boundary_corpus(count, seed, alpha=0.05):
    """Seeded problems with m 1..8: random rows, and rows with one p-value
    on a subset's boundary; zero and tied p-values are common."""
    gen = np.random.default_rng(seed)
    problems = []
    while len(problems) < count:
        m = int(gen.integers(1, 9))
        w = np.exp(gen.uniform(np.log(0.1), np.log(20.0), size=m))
        p = gen.uniform(size=m) * gen.choice([1.0, 0.05])
        p[gen.uniform(size=m) < 0.2] = 0.0
        p[int(gen.integers(m))] = p[int(gen.integers(m))]
        labels = [f"H{i}" for i in range(m)]
        problems.append(validate_problem(labels, p, w, alpha))
        b = int(gen.integers(m))
        subset = int(gen.integers(1 << m)) | 1 << b
        total = sum(w[i] for i in range(m) if subset >> i & 1)
        for form in BOUNDARY_FORMS:
            q = p.copy()
            q[b] = min(form(w[b], alpha, total), 1.0)
            problems.append(validate_problem(labels, q, w, alpha))
    return problems


def _per_mask(prob, mask):
    """(WHP, WAP) local decisions on one subset, by their definition: a total
    summed from the last rank upward in the procedure's own ranking, any
    member significant for WHP, and for WAP the first-ranked member, the one
    with the smallest raw p-value, ties to the smallest index."""
    idxs = [i for i in range(prob.m) if mask >> i & 1]
    tilde = [p / w for p, w in zip(prob.p, prob.w)]
    whp_rank = sorted(idxs, key=lambda i: (tilde[i], i))
    wap_rank = sorted(idxs, key=lambda i: (prob.p[i], i))
    whp_total = sum(prob.w[i] for i in reversed(whp_rank))
    whp = any(tilde[i] * whp_total <= prob.alpha for i in idxs)
    wap_total = sum(prob.w[i] for i in reversed(wap_rank))
    return whp, tilde[wap_rank[0]] * wap_total <= prob.alpha


class TestLocalTests:
    def test_wap_full_set_divergent(self, divergent_problem):
        # min p = 0.01 with weight 1 against (1/6) * 0.05
        assert not wap_local_test(divergent_problem, mask_of(0, 1, 2))

    def test_wap_pair_coincident(self, coincident_problem):
        # min p = 0.01 with weight 1 against (1/3) * 0.05
        assert wap_local_test(coincident_problem, mask_of(0, 1))

    def test_wap_singleton_is_plain_level(self, ards_problem):
        assert wap_local_test(ards_problem, mask_of(3))

    def test_whp_full_set_divergent(self, divergent_problem):
        # p2 = 0.014 beats (2/6) * 0.05
        assert whp_local_test(divergent_problem, mask_of(0, 1, 2))

    def test_whp_full_set_coincident(self, coincident_problem):
        assert not whp_local_test(coincident_problem, mask_of(0, 1, 2))

    def test_wap_implies_whp_on_random_subsets(self):
        gen = np.random.default_rng(3)
        for _ in range(200):
            prob = random_problem(gen, int(gen.integers(1, 7)))
            for mask in range(1, (1 << prob.m)):
                if wap_local_test(prob, mask):
                    assert whp_local_test(prob, mask)

    def test_whp_subset_closure_through_witness(self):
        gen = np.random.default_rng(4)
        for _ in range(100):
            prob = random_problem(gen, int(gen.integers(2, 6)))
            total = sum(prob.w)
            for mask in range(1, (1 << prob.m)):
                idxs = [i for i in range(prob.m) if mask >> i & 1]
                s = sum(prob.w[i] for i in idxs)
                for i in idxs:
                    if prob.p[i] <= prob.w[i] / s * prob.alpha:
                        for sub in range(1, mask + 1):
                            if sub & mask == sub and (sub >> i) & 1:
                                assert whp_local_test(prob, sub)

    def test_arrays_match_the_per_mask_definition(self):
        for prob in _boundary_corpus(600, seed=41):
            masks = np.arange(1, 1 << prob.m)
            whp = whp_local_test(prob, masks).tolist()
            wap = wap_local_test(prob, masks).tolist()
            assert list(zip(whp, wap)) == [_per_mask(prob, int(k))
                                           for k in masks], prob
            k = int(masks[-1])
            assert (whp_local_test(prob, k), wap_local_test(prob, k)) \
                == _per_mask(prob, k)

    def test_masks_wider_than_64_bits(self):
        gen = np.random.default_rng(70)
        w = gen.uniform(0.5, 5.0, size=70)
        p = w / w.sum() * 0.05 * gen.uniform(0.0, 40.0, size=70)
        prob = validate_problem([f"H{i}" for i in range(70)], p, w, 0.05)
        masks = [int(gen.integers(1 << 62)) << 8 | 1 << 69 for _ in range(40)]
        decisions = [(whp_local_test(prob, k), wap_local_test(prob, k))
                     for k in masks]
        assert decisions == [_per_mask(prob, k) for k in masks]
        assert len(set(decisions)) > 1

    def test_mask_outside_the_hypotheses_raises(self, divergent_problem):
        for local_test in (whp_local_test, wap_local_test):
            with pytest.raises(ValueError, match="3 hypotheses"):
                local_test(divergent_problem, 0b1000)
            with pytest.raises(ValueError, match="3 hypotheses"):
                local_test(divergent_problem, np.array([1, 0, 7]))

    def test_empty_intersection_raises(self, divergent_problem):
        with pytest.raises(ValueError):
            wap_local_test(divergent_problem, 0)
        with pytest.raises(ValueError):
            whp_local_test(divergent_problem, 0)


class TestCtp:
    def test_divergent_example(self, divergent_problem):
        assert ctp(divergent_problem,
                   wap_local_test).elementary_rejections.rejected == frozenset()
        assert ctp(divergent_problem,
                   whp_local_test).elementary_rejections.rejected == {0, 1}

    def test_single_hypothesis(self):
        prob = validate_problem(["H1"], [0.04], [2.0], 0.05)
        report = ctp(prob, whp_local_test)
        assert report.local_decisions == {1: True}
        assert report.elementary_rejections.rejected == {0}

    def test_capacity_cap(self):
        prob = validate_problem([f"H{i}" for i in range(21)], [0.5] * 21,
                                [1.0] * 21, 0.05)
        with pytest.raises(CapacityError, match="20"):
            ctp(prob, whp_local_test)

    def test_matches_both_stepdowns_at_sixteen_hypotheses(self):
        gen = np.random.default_rng(16)
        w = gen.uniform(0.5, 5.0, size=16)
        p = w / w.sum() * 0.05 * gen.uniform(0.0, 3.0, size=16)
        prob = validate_problem([f"H{i}" for i in range(16)], p, w, 0.05)
        whp = whp_stepdown(prob).rejected
        wap = wap_stepdown(prob).rejected
        assert wap and wap < whp
        assert ctp(prob, whp_local_test).elementary_rejections.rejected == whp
        assert ctp(prob, wap_local_test).elementary_rejections.rejected == wap

    def test_matches_stepdown_on_corpus(self):
        for prob in random_corpus(300, seed=17, m_max=7):
            assert (ctp(prob, whp_local_test).elementary_rejections.rejected
                    == whp_stepdown(prob).rejected)
            assert (ctp(prob, wap_local_test).elementary_rejections.rejected
                    == wap_stepdown(prob).rejected)


class TestConsonance:
    def test_holds_on_random_corpus_for_both_tests(self):
        for prob in random_corpus(300, seed=23, m_max=8):
            assert check_consonance(prob, wap_local_test).holds
            assert check_consonance(prob, whp_local_test).holds

    def test_single_hypothesis_vacuous(self):
        prob = validate_problem(["H1"], [0.5], [1.0], 0.05)
        assert check_consonance(prob, wap_local_test).holds

    def test_witness_matches_the_superset_definition(self):
        gen = np.random.default_rng(43)
        for _ in range(300):
            m = int(gen.integers(1, 6))
            prob = validate_problem([f"H{i}" for i in range(m)], [0.5] * m,
                                    [1.0] * m, 0.05)
            table = gen.uniform(size=1 << m) < gen.uniform(0.5, 1.0)
            masks = range(1, 1 << m)
            closed = {k: all(table[j] for j in masks if j & k == k)
                      for k in masks}
            elementary = [i for i in range(m) if closed[1 << i]]
            witness = next((k for k in masks if closed[k] and not any(
                k >> i & 1 for i in elementary)), None)
            report = check_consonance(prob, lambda problem, mask: table[mask])
            assert report == ConsonanceReport(holds=witness is None,
                                              violating_subset=witness)
            assert ctp(prob, lambda problem, mask: table[mask]) \
                .elementary_rejections.rejected == set(elementary)

    # Custom local tests: written with == and & so that they take one int
    # mask or an array of masks, as the built-in tests do.
    def test_rejecting_only_the_full_set_is_not_consonant(self):
        prob = validate_problem(["H1", "H2", "H3"], [0.5] * 3, [1.0] * 3, 0.05)
        full = 0b111

        def only_full(problem, masks):
            return masks == full

        report = ctp(prob, only_full)
        assert report.local_decisions == {k: k == full for k in range(1, 8)}
        assert report.elementary_rejections.rejected == frozenset()
        assert check_consonance(prob, only_full) == ConsonanceReport(
            holds=False, violating_subset=full)

    def test_rejecting_every_pair_is_not_consonant(self):
        prob = validate_problem(["H1", "H2", "H3", "H4"], [0.5] * 4,
                                [1.0] * 4, 0.05)

        def two_or_more(problem, masks):
            return (masks & (masks - 1)) != 0

        report = ctp(prob, two_or_more)
        assert [k for k, rej in report.local_decisions.items() if not rej] \
            == [1, 2, 4, 8]
        assert report.elementary_rejections.rejected == frozenset()
        assert check_consonance(prob, two_or_more) == ConsonanceReport(
            holds=False, violating_subset=0b11)


class TestMonotonicityCondition:
    def test_whp_always_holds(self):
        for prob in random_corpus(200, seed=31, m_max=8):
            assert check_monotonicity_condition(prob, Procedure.WHP).holds

    def test_single_hypothesis_vacuous(self):
        prob = validate_problem(["H1"], [0.5], [1.0], 0.05)
        assert check_monotonicity_condition(prob, Procedure.WAP).holds

    def test_wap_minimizer_attribution_is_monotone(self, divergent_problem):
        # The budget goes to the raw-p minimizer of each intersection; that
        # minimizer stays minimal in every subset containing it while the
        # weight sum only shrinks, so no nested pair can violate the
        # condition.  Verified exhaustively, this holds even on problems with
        # divergent orderings.
        assert check_monotonicity_condition(divergent_problem,
                                            Procedure.WAP).holds
        for prob in random_corpus(200, seed=37, m_max=7):
            assert check_monotonicity_condition(prob, Procedure.WAP).holds

    def test_capacity_cap(self):
        prob = validate_problem([f"H{i}" for i in range(13)], [0.5] * 13,
                                [1.0] * 13, 0.05)
        with pytest.raises(CapacityError, match="12"):
            check_monotonicity_condition(prob, Procedure.WHP)


class TestPvalueMonotonicitySearch:
    def test_wap_counterexample_found(self):
        found = find_pvalue_monotonicity_violation(Procedure.WAP,
                                                   trials=20_000, seed=7)
        assert found is not None
        problem, lowered = found
        assert all(q <= p for q, p in zip(lowered.p, problem.p))
        assert (len(wap_stepdown(lowered).rejected)
                < len(wap_stepdown(problem).rejected))

    def test_whp_no_counterexample(self):
        assert find_pvalue_monotonicity_violation(Procedure.WHP,
                                                  trials=10_000, seed=7) is None

    def test_zero_trials(self):
        assert find_pvalue_monotonicity_violation(Procedure.WAP,
                                                  trials=0, seed=7) is None
