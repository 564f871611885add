import pickle
import tracemalloc
from collections import defaultdict
from functools import lru_cache

import numpy as np
import pytest

from test_procedures import (BOUNDARY_CORPUS, BOUNDARY_FORMS,
                             BOUNDARY_PROBLEMS)
from wholm import (ConsonanceReport, Procedure, check_consonance,
                   check_monotonicity_condition, ctp,
                   find_pvalue_monotonicity_violation, validate_problem,
                   wap_local_test, wap_stepdown, whp_local_test, whp_stepdown)
from wholm import closure
from wholm.closure import (CapacityError, ClosedStack, CtpReport,
                           random_corpus)
from wholm.core import OrderingKey
from wholm.procedures import adjust_rows, rank, ranking


def random_problem(gen, m, alpha=0.05):
    """One random problem: p i.i.d. U(0,1), weights i.i.d. U(0.5, 5)."""
    p = gen.uniform(0.0, 1.0, size=m)
    w = gen.uniform(0.5, 5.0, size=m)
    return validate_problem([f"H{i + 1}" for i in range(m)], p, w, alpha)


def mask_of(*indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def _boundary_corpus(count, seed, alpha=0.05):
    """Seeded problems with m 1..8: random rows, and rows with one p-value
    on a subset's boundary w*alpha/t, for t the index-order total of a
    subset holding it, in each of the `BOUNDARY_FORMS`; zero and tied
    p-values are common."""
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
        # all masks at once are read from the subset table; one mask at a
        # time and a few masks of mixed sizes (K * m < 2^m from m = 5 on)
        # are decided by their members' weights, read through the ranking
        gen = np.random.default_rng(42)
        for prob in _boundary_corpus(600, seed=41):
            masks = np.arange(1, 1 << prob.m)
            expected = [_per_mask(prob, int(k)) for k in masks]
            whp = whp_local_test(prob, masks).tolist()
            wap = wap_local_test(prob, masks).tolist()
            assert list(zip(whp, wap)) == expected, prob
            assert [(whp_local_test(prob, int(k)), wap_local_test(prob, int(k)))
                    for k in masks] == expected, prob
            some = gen.choice(masks, size=min(masks.size, 6), replace=False)
            whp = whp_local_test(prob, some).tolist()
            wap = wap_local_test(prob, some).tolist()
            assert list(zip(whp, wap)) == [expected[k - 1] for k in some], prob

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

    def test_many_masks_above_the_ctp_cap_are_decided_without_the_table(
            self, monkeypatch):
        # K * m >= 2^m, which would tabulate all 2^m subsets at m <= 20; at
        # m = 21 the decisions come from each mask's members instead, and
        # neither path runs the step-down kernel
        def no_table(*args):
            raise AssertionError("all 2^m subsets tabulated")

        def no_kernel(*args):
            raise AssertionError("the step-down kernel ran")
        monkeypatch.setattr(closure, "_all_subsets", no_table)
        monkeypatch.setattr(closure, "adjust_rows", no_kernel)
        gen = np.random.default_rng(21)
        prob = random_problem(gen, 21)
        prob = validate_problem(prob.labels, np.array(prob.p) * 0.05, prob.w,
                                prob.alpha)
        masks = gen.integers(1, 1 << 21, size=100_000)
        assert masks.size * 21 >= 1 << 21
        whp, wap = whp_local_test(prob, masks), wap_local_test(prob, masks)
        sample = gen.choice(masks.size, size=40, replace=False)
        decisions = [(whp[k], wap[k]) for k in sample]
        assert decisions == [_per_mask(prob, int(masks[k])) for k in sample]
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

    @pytest.mark.parametrize("local_test", [whp_local_test, wap_local_test])
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32,
                                       np.uint64, np.int8, bool])
    def test_every_integer_dtype_is_a_mask_on_both_paths(
            self, divergent_problem, local_test, dtype):
        # m = 3: one or two masks are decided per mask (K * m < 2^m) and all
        # seven off the subset table, as arrays and as numpy scalars; the
        # bool masks are all 1
        every = np.arange(1, 8)
        expected = local_test(divergent_problem, every)
        masks = np.ones(7, dtype=bool) if dtype is bool else every.astype(dtype)
        want = expected[masks.astype(np.intp) - 1]
        for k in range(7):
            assert local_test(divergent_problem, masks[k]) == want[k]
            assert (local_test(divergent_problem, masks[k:k + 2])
                    == want[k:k + 2]).all()
        assert (local_test(divergent_problem, masks) == want).all()

    @pytest.mark.parametrize("local_test", [whp_local_test, wap_local_test])
    def test_unsigned_masks_above_64_hypotheses(self, local_test):
        # masks below 2^64 of a problem of 70 hypotheses, cast to Python
        # ints before they are shifted
        gen = np.random.default_rng(64)
        w = gen.uniform(0.5, 5.0, size=70)
        p = w / w.sum() * 0.05 * gen.uniform(0.0, 40.0, size=70)
        prob = validate_problem([f"H{i}" for i in range(70)], p, w, 0.05)
        masks = gen.integers(1, 1 << 62, size=40).astype(np.uint64)
        masks[0] = np.uint64(1 << 63 | 5)
        expected = [local_test(prob, int(mask)) for mask in masks.tolist()]
        assert local_test(prob, masks).tolist() == expected
        assert local_test(prob, masks[0]) == expected[0]
        assert len(set(expected)) > 1

    @pytest.mark.parametrize("local_test", [whp_local_test, wap_local_test])
    def test_non_integer_masks_are_refused(self, divergent_problem,
                                           local_test):
        for masks in (np.array([1.0, 2.0, 3.0]), np.array([1.5]), 2.7,
                      np.array([1.5, 3], dtype=object)):
            with pytest.raises(ValueError, match="must be integers"):
                local_test(divergent_problem, masks)
        # bool and object arrays of Python ints are masks, on both paths:
        # per size (few masks) and off the subset table (K * m >= 2^m)
        every = np.arange(1, 8)
        expected = local_test(divergent_problem, every)
        for masks in (every.astype(object), every.astype(np.uint8)):
            assert (local_test(divergent_problem, masks) == expected).all()
        assert local_test(divergent_problem, np.array([7], dtype=object)) \
            == expected[6]
        for count in (1, 3):
            assert (local_test(divergent_problem, np.ones(count, dtype=bool))
                    == expected[0]).all()

    def test_empty_mask_array_gives_empty_decisions(self, divergent_problem):
        for local_test in (whp_local_test, wap_local_test):
            for masks in (np.array([], dtype=np.int64),
                          np.zeros((2, 0), dtype=np.int64)):
                decisions = local_test(divergent_problem, masks)
                assert decisions.dtype == bool
                assert decisions.shape == masks.shape


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

    def test_one_row_holds_less_than_four_float_tables(self):
        # one row builds two tables of 2^m floats, the totals and their
        # products with the first-ranked p/w, and bool decisions by code and
        # by mask; a table that also carried each index mask's code as a
        # float would pass four
        prob = random_problem(np.random.default_rng(16), 16)
        ctp(prob, whp_local_test)
        tracemalloc.start()
        try:
            ctp(prob, whp_local_test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * (1 << 16)


def near_tie_corpus(count, seed, alpha=0.05):
    """Seeded m = 3 problems on a threshold where float can split WHP from
    WAP (ROADMAP item 19): H0 is first by raw p, w1 = w0 * U(1.01, 5) and
    p1 = p0 / w0 * w1 tie H0 and H1 on p/w up to rounding, p0 = alpha * w0 /
    ((w2 + w1) + w0) sits on WAP's boundary with its tail summed in WAP's
    order, and p2 ~ U(0.5, 1) is never rejected; w0, w2 ~ U(0.1, 10)."""
    gen = np.random.default_rng(seed)
    w0, w2 = gen.uniform(0.1, 10.0, size=(2, count))
    w1 = w0 * gen.uniform(1.01, 5.0, size=count)
    p2 = gen.uniform(0.5, 1.0, size=count)
    p0 = alpha * w0 / ((w2 + w1) + w0)
    p1 = p0 / w0 * w1
    p, w = np.stack([p0, p1, p2], axis=1), np.stack([w0, w1, w2], axis=1)
    return [validate_problem(["H0", "H1", "H2"], p[k], w[k], alpha)
            for k in range(count)]


class TestNearTies:
    # rows nearest a threshold, read through the one-row table and the stack
    CORPUS = near_tie_corpus(2000, seed=1)

    def test_ctp_rejects_the_float_stepdowns_sets(self):
        split = 0
        for prob in self.CORPUS:
            whp, wap = whp_stepdown(prob).rejected, wap_stepdown(prob).rejected
            assert (ctp(prob, whp_local_test).elementary_rejections.rejected
                    == whp)
            assert (ctp(prob, wap_local_test).elementary_rejections.rejected
                    == wap)
            split += not wap <= whp
        # the corpus reaches rows where float breaks WAP within WHP
        assert split > 0

    @pytest.mark.parametrize("procedure", [Procedure.WHP, Procedure.WAP])
    def test_stacks_equal_the_kernel(self, procedure):
        p, w, alpha = _arrays(self.CORPUS)
        ranked = rank(p, w, ranking(procedure))
        closed = ClosedStack(ranked, alpha, procedure)
        rejected = adjust_rows(ranked, alpha[:, None])[2]
        assert (closed.rejections == rejected).all()
        assert rejected.any() and not rejected.all()


class TestLocalDecisions:
    """`ctp`'s `local_decisions` is a read-only view that reads as the dict
    of the local test's decisions on every nonempty mask."""

    @pytest.mark.parametrize("local_test", [whp_local_test, wap_local_test])
    @pytest.mark.parametrize("prob", BOUNDARY_PROBLEMS + [
        next(prob for prob in random_corpus(60, seed=30, m_max=10)
             if prob.m == m) for m in (5, 8, 10)])
    def test_view_reads_as_the_dict_of_decisions(self, prob, local_test):
        size = (1 << prob.m) - 1
        row = local_test(prob, np.arange(1, size + 1))
        expected = dict(enumerate(row.tolist(), start=1))
        report = ctp(prob, local_test)
        view = report.local_decisions
        assert view == expected and expected == view
        assert list(view) == list(range(1, size + 1))
        assert list(view.items()) == list(expected.items())
        assert list(view.values()) == list(expected.values())
        assert len(view) == size
        assert all(type(view[mask]) is bool for mask in (1, size))
        for mask in (0, size + 1, -1):
            with pytest.raises(KeyError):
                view[mask]
        assert view.get(0) is None
        with pytest.raises(TypeError):
            view[1] = not view[1]
        assert not view._row.flags.writeable
        assert repr(report) == repr(CtpReport(expected,
                                              report.elementary_rejections))
        copy = pickle.loads(pickle.dumps(report))
        assert copy == report
        assert not copy.local_decisions._row.flags.writeable


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
        # the check reads the subset table, so it shares closed testing's cap
        prob = validate_problem([f"H{i}" for i in range(13)], [0.5] * 13,
                                [1.0] * 13, 0.05)
        assert check_monotonicity_condition(prob, Procedure.WHP).holds
        prob = validate_problem([f"H{i}" for i in range(21)], [0.5] * 21,
                                [1.0] * 21, 0.05)
        with pytest.raises(CapacityError, match="20"):
            check_monotonicity_condition(prob, Procedure.WHP)


def _tied_corpus(count, seed):
    """Seeded problems with m 1..10, tied and zero p-values, tied weights and
    alphas mixed within each size."""
    gen = np.random.default_rng(seed)
    problems = []
    for _ in range(count):
        m = int(gen.integers(1, 11))
        p = gen.choice([0.0, 0.004, 0.01, 0.02, 0.05, gen.uniform()], size=m)
        w = gen.choice([0.5, 1.0, 2.0, gen.uniform(0.1, 10.0)], size=m)
        alpha = float(gen.choice([0.01, 0.05, 0.1]))
        problems.append(validate_problem([f"H{i}" for i in range(m)], p, w,
                                         alpha))
    return problems


def _arrays(problems):
    """Same-size problems as a stack's arrays: the (P, m) p-values and
    weights and the (P,) alphas."""
    return tuple(np.array([getattr(problem, name) for problem in problems])
                 for name in ("p", "w", "alpha"))


def _stacked(problems):
    """Per problem: the WHP and WAP closed rejections (as the set of the
    indices a row of `rejections` holds), consonance witnesses and
    monotonicity counterexamples, each problem in one stack with every other
    problem of its size."""
    groups = defaultdict(list)
    for index, problem in enumerate(problems):
        groups[problem.m].append(index)
    out = [[] for _ in problems]
    for indices in groups.values():
        for procedure in (Procedure.WHP, Procedure.WAP):
            p, w, alpha = _arrays([problems[i] for i in indices])
            closed = ClosedStack(rank(p, w, ranking(procedure)), alpha,
                                 procedure)
            assert closed.rejections.dtype == bool
            assert closed.rejections.shape == (len(indices), closed.m)
            for index, rejected, *row in zip(
                    indices, closed.rejections, closed.consonance_witnesses,
                    closed.monotonicity_counterexamples):
                out[index] += [frozenset(np.flatnonzero(rejected).tolist()),
                               *row]
    return out


def _one_by_one(problem):
    out = []
    for procedure, test in ((Procedure.WHP, whp_local_test),
                            (Procedure.WAP, wap_local_test)):
        out += [ctp(problem, test).elementary_rejections.rejected,
                check_consonance(problem, test).violating_subset,
                check_monotonicity_condition(problem, procedure).counterexample]
    return out


class TestStacks:
    @pytest.mark.parametrize("corpus", [
        BOUNDARY_CORPUS, _tied_corpus(800, seed=61),
        random_corpus(300, seed=62, m_max=10)],
        ids=["exact-boundary", "ties-and-zeros", "random"])
    def test_stacks_equal_the_one_problem_functions(self, corpus):
        for problem, row in zip(corpus, _stacked(corpus)):
            assert row == _one_by_one(problem), problem
            assert row[0] == whp_stepdown(problem).rejected, problem
            assert row[3] == wap_stepdown(problem).rejected, problem

    def test_mixed_alphas_in_one_stack(self):
        corpus = _tied_corpus(400, seed=63)
        sizes = defaultdict(set)
        for problem in corpus:
            sizes[problem.m].add(problem.alpha)
        assert all(len(alphas) == 3 for alphas in sizes.values())
        assert _stacked(corpus) == [_one_by_one(problem) for problem in corpus]

    @pytest.mark.parametrize("procedure", [Procedure.WHP, Procedure.WAP])
    def test_counterexample_is_the_first_in_search_order(self, procedure):
        # perturbed totals break monotonicity often; the stacked search must
        # name each row's first single-removal violation, in code order:
        # removed member from the last rank up, then code I, then member i
        # from the last rank up.  Totals are fed by code, the empty set's
        # 0.0 in column 0.  WHP reads random totals; WAP keeps the real
        # ranking, whose first member in a mask is the one it shares alpha
        # with, and scales a fifth of the real totals down
        gen = np.random.default_rng(64)
        m, rows = 4, 40
        p, w = gen.uniform(size=(rows, m)), gen.uniform(0.5, 2.0, size=(rows, m))
        ranked = rank(p, w, ranking(procedure))
        total, code = closure._all_subsets(ranked), _codes(ranked.perm)
        if procedure is Procedure.WHP:
            total = gen.uniform(0.5, 8.0, size=(rows, 1 << m))
            total[:, 0] = 0.0
        else:
            scaled = gen.uniform(size=total.shape) < 0.2
            total[scaled] *= gen.uniform(0.3, 1.0, size=int(scaled.sum()))
        found = closure._counterexamples(ranked, np.full(rows, 0.05),
                                         procedure, total)
        for r in range(rows):
            order = ranked.perm[r].tolist()
            # the hypothesis of each code bit, and the index masks in code order
            member = order[::-1]
            masks = sorted(range(1 << m), key=lambda mask: code[r, mask])

            def share(mask, i):
                if not mask >> i & 1:
                    return np.inf
                if procedure is Procedure.WAP and i != next(
                        j for j in order if mask >> j & 1):
                    return 0.0
                return w[r, i] * 0.05 / total[r, code[r, mask]]
            expected = next(((big, big ^ 1 << j, i, share(big, i),
                              share(big ^ 1 << j, i))
                             for j in member for big in masks
                             if big >> j & 1 and big != 1 << j
                             for i in member
                             if share(big, i) > share(big ^ 1 << j, i)),
                            None)
            assert found[r] == expected
        assert sum(f is not None for f in found) > rows // 2


def _codes(perm):
    """The (P, 2^m) rank-space code of each index mask of rows ranked by
    `perm` (P, m), by integer shifts: hypothesis i at rank r is code bit
    m-1-r.  The reference map of the tests, apart from the library's."""
    m = perm.shape[1]
    at = np.argsort(perm, axis=1)
    member = np.arange(1 << m)[:, None] >> np.arange(m) & 1
    return (member << (m - 1 - at)[:, None, :]).sum(axis=2)


def _mask_order_rejects(p, w, alpha, key):
    """The local rule in index-mask order, the reference for `_decide`: the
    total of every nonempty mask gathered from `_all_subsets` through
    `_codes`, its first-ranked member (the member of smallest rank) and that
    member's p/w gathered by index, times the total, at most alpha."""
    ranked = rank(p, w, key)
    m = p.shape[1]
    rows = np.arange(len(ranked.perm))[:, None]
    total = closure._all_subsets(ranked)[rows, _codes(ranked.perm)[:, 1:]]
    member = (np.arange(1, 1 << m)[:, None] >> np.arange(m) & 1) == 1
    at = np.argsort(ranked.perm, axis=1)
    first = np.where(member, at[:, None, :], m).argmin(axis=2)
    return (p / w)[rows, first] * total <= alpha[:, None]


def _brute_closure(accepted, code):
    """(covered, rejections, witnesses) of (P, 2^m) accepted tables whose
    column code[r, I] holds row r's index mask I, by definition: I is
    covered iff some accepted J contains it (the empty set counted as
    accepted), hypothesis i is rejected iff {i} is not covered, and the
    witness is the smallest uncovered mask holding no rejected hypothesis."""
    count, size = accepted.shape
    m = size.bit_length() - 1
    masks = np.arange(size)
    superset = (masks[:, None] & masks) == masks  # [J, I]: J contains I
    by_mask = np.take_along_axis(accepted, code, axis=1)
    by_mask[:, 0] = True
    covered = (by_mask.astype(float) @ superset) > 0
    rejected = ~covered[:, 1 << np.arange(m)]
    witnesses = []
    for row, rej in zip(covered, rejected):
        held = (masks[:, None] >> np.arange(m) & 1).astype(bool)
        ok = ~row & ~(held & rej).any(axis=1)
        witnesses.append(int(np.argmax(ok)) if ok.any() else None)
    return covered, rejected, witnesses


class TestCodeSpace:
    @pytest.mark.parametrize("m", [1, 2, 3, 6, 10])
    def test_by_index_mask_reads_each_mask_at_its_code(self, m):
        gen = np.random.default_rng(90 + m)
        perm = np.array([gen.permutation(m) for _ in range(6)])
        for row, order, code in zip(gen.uniform(size=(6, 1 << m)), perm,
                                    _codes(perm)):
            assert (closure._by_index_mask(row, order) == row[code]).all()

    @pytest.mark.parametrize("m", range(1, 11))
    def test_packed_closure_equals_the_superset_scan(self, monkeypatch, m):
        # random tables, rows mostly rejecting so that many violate
        # consonance, each in its own random bit order (a rank-space code)
        gen = np.random.default_rng(100 + m)
        witnesses = 0
        # codes are mapped to index masks row by row, and only in a
        # witness's row
        asked, index_masks = [], closure._index_masks
        monkeypatch.setattr(closure, "_index_masks", lambda row, codes: (
            asked.append(row.tolist()) or index_masks(row, codes)))
        for count in (1, 2, 7, 64, 70):
            size = 1 << m
            rejected = gen.uniform(size=(count, size)) < gen.uniform(
                0.5, 1.0, size=(count, 1))
            code = np.zeros((count, size), dtype=np.intp)
            # the ranking whose rank-space codes `code` holds: hypothesis k
            # is at code bit bit[k], which stands for rank m-1-bit[k]
            perm = np.empty((count, m), dtype=np.intp)
            for r in range(count):
                bit = gen.permutation(m)
                perm[r, m - 1 - bit] = np.arange(m)
                code[r] = ((np.arange(size)[:, None] >> np.arange(m) & 1)
                           * (1 << bit)).sum(axis=1)
            covered = closure._close(rejected)
            assert covered.dtype == bool and covered.shape == (count, size)
            expected, rejections, found = _brute_closure(~rejected, code)
            assert (np.take_along_axis(covered, code, axis=1)
                    == expected).all()
            kept = closure._singletons(covered)
            assert (kept == covered[:, 1 << np.arange(m)]).all()
            assert (np.take_along_axis(covered, code[:, 1 << np.arange(m)],
                                       axis=1) == ~rejections).all()
            asked.clear()
            assert closure._witnesses(covered, kept, perm) == found
            assert asked == [perm[r].tolist() for r, w in enumerate(found)
                             if w is not None]
            # in index-mask order, the table read as it is
            direct = closure._close(np.take_along_axis(rejected, code, axis=1))
            assert (direct == expected).all()
            assert closure._witnesses(direct, closure._singletons(direct),
                                      None) == found
            witnesses += sum(w is not None for w in found)
        if m > 1:
            assert witnesses > 0

    @pytest.mark.parametrize("procedure", [Procedure.WHP, Procedure.WAP])
    def test_stack_witnesses_read_the_codes_of_their_own_rows(
            self, monkeypatch, procedure):
        # neither built-in test has a witness; forced local decisions that
        # reject most subsets give many, each read back through the ranking
        # of its own row
        gen = np.random.default_rng(66)
        m, rows = 5, 30
        p, w = gen.uniform(size=(rows, m)), gen.uniform(0.5, 2.0, size=(rows, m))
        forced = gen.uniform(size=(rows, 1 << m)) < 0.8
        real = closure._decide
        monkeypatch.setattr(closure, "_decide", lambda *args: (
            real(*args)[0], forced))
        ranked = rank(p, w, ranking(procedure))
        closed = ClosedStack(ranked, np.full(rows, 0.05), procedure)
        _, rejections, found = _brute_closure(~forced, _codes(ranked.perm))
        assert closed.consonance_witnesses == found
        assert (closed.rejections == rejections).all()
        assert sum(w is not None for w in found) > rows // 2

    @pytest.mark.parametrize("corpus", [BOUNDARY_CORPUS, _tied_corpus(800, seed=61)],
                             ids=["exact-boundary", "ties-and-zeros"])
    @pytest.mark.parametrize("key", list(OrderingKey))
    def test_decide_equals_the_mask_order_rule(self, corpus, key):
        groups = defaultdict(list)
        for problem in corpus:
            groups[problem.m].append(problem)
        for m, problems in groups.items():
            p, w, alpha = _arrays(problems)
            ranked = rank(p, w, key)
            total, rejected = closure._decide(ranked, alpha[:, None])
            assert rejected.shape == total.shape == (len(problems), 1 << m)
            assert (np.take_along_axis(rejected, _codes(ranked.perm)[:, 1:],
                                       axis=1)
                    == _mask_order_rejects(p, w, alpha, key)).all()


class _PoisonedGenerator:
    """A generator `gen` whose `uniform` call number `call` (0 for the
    p-values, 1 for the weights) returns `value` at flat index `index`."""

    def __init__(self, gen, call, index, value):
        self.gen = gen
        self.calls, self.call, self.index, self.value = 0, call, index, value

    def integers(self, *args, **kwargs):
        return self.gen.integers(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        out = self.gen.uniform(*args, **kwargs)
        if self.calls == self.call:
            out[self.index] = self.value
        self.calls += 1
        return out


class TestRandomCorpus:
    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    @pytest.mark.parametrize("m_max", [1, 8, 12])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_problems_equal_validate_problem(self, seed, m_max, alpha):
        corpus = random_corpus(300, seed=seed, m_max=m_max, alpha=alpha)
        assert len(corpus) == 300
        assert {problem.m for problem in corpus} == set(range(1, m_max + 1))
        for problem in corpus:
            assert problem == validate_problem(
                [f"H{i + 1}" for i in range(problem.m)], problem.p, problem.w,
                alpha)
            assert all(0.0 <= x < 1.0 for x in problem.p)
            assert all(0.5 <= x < 5.0 for x in problem.w)

    def test_empty_corpus(self):
        assert random_corpus(0, seed=1) == []

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, float("nan")])
    def test_bad_alpha_raises(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            random_corpus(10, seed=1, alpha=alpha)

    @pytest.mark.parametrize("m_max", [0, -3])
    def test_bad_m_max_raises(self, m_max):
        with pytest.raises(ValueError):
            random_corpus(10, seed=1, m_max=m_max)

    @pytest.mark.parametrize("call, value, message", [
        (0, 1.5, "p-value out of [0, 1] at index {i}: 1.5"),
        (0, float("nan"), "p-value out of [0, 1] at index {i}: nan"),
        (1, 0.0, "weight must be positive and finite at index {i}: 0.0"),
        (1, float("inf"), "weight must be positive and finite at index {i}: inf")])
    def test_bad_draw_names_its_value_in_its_problem(self, monkeypatch, call,
                                                     value, message):
        clean, real = random_corpus(40, seed=9), np.random.default_rng
        start = sum(problem.m for problem in clean[:18])
        # the first and the last value of problem 18 (m = 7)
        for i in (0, clean[18].m - 1):
            monkeypatch.setattr(np.random, "default_rng", lambda seed: (
                _PoisonedGenerator(real(seed), call, start + i, value)))
            with pytest.raises(ValueError) as raised:
                random_corpus(40, seed=9)
            assert str(raised.value) == message.format(i=i)


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

    def test_a_swapped_rejection_is_a_witness(self, monkeypatch):
        # lowering H1 and H3 makes WAP reject {H3} where it rejected {H4}:
        # as many rejections, but H4 is lost.  WHP rejects {H4} at p and
        # all four at q.
        p = [0.016673, 0.033692, 0.016612, 0.014865, 0.0]
        q = [0.008372, 0.033692, 0.004519, 0.014865, 0.0]
        w = [2.36, 4.401, 2.229, 9.13, 0.0]
        monkeypatch.setattr(closure, "_search_trials", lambda gen, trials: (
            np.array([4]), np.array([p]), np.array([q]), np.array([w])))
        problem, lowered = find_pvalue_monotonicity_violation(
            Procedure.WAP, trials=1, seed=7)
        assert (problem.p, lowered.p, problem.w) == (
            tuple(p[:4]), tuple(q[:4]), tuple(w[:4]))
        assert wap_stepdown(problem).rejected == {3}
        assert wap_stepdown(lowered).rejected == {2}
        assert find_pvalue_monotonicity_violation(Procedure.WHP, trials=1,
                                                  seed=7) is None

    @pytest.mark.parametrize("trials", [0, -5])
    @pytest.mark.parametrize("procedure", [Procedure.WHP, Procedure.WAP])
    def test_trials_below_one_raise(self, procedure, trials):
        # a search over no trials would report WHP's claim as passed
        with pytest.raises(ValueError, match="trials must be at least 1"):
            find_pvalue_monotonicity_violation(procedure, trials=trials, seed=7)

    # WAP's witnesses for seeds 1-20 lie at trials 0 to 393 of 2,000; a
    # budget of 100 draws other trials and finds none on 5 of those seeds,
    # and it cuts some searches short inside a chunk.  WHP has none to find.
    @pytest.mark.parametrize("first_chunk", [None, 1, 7])
    @pytest.mark.parametrize("procedure, trials", [
        (Procedure.WAP, 2000), (Procedure.WAP, 100), (Procedure.WHP, 300)])
    def test_chunks_return_the_per_trial_witness(self, monkeypatch, procedure,
                                                 trials, first_chunk):
        if first_chunk is not None:
            monkeypatch.setattr(closure, "SEARCH_FIRST_CHUNK", first_chunk)
        for seed in range(1, 21):
            assert find_pvalue_monotonicity_violation(
                procedure, trials=trials, seed=seed) == _per_trial_search(
                    procedure, trials, seed), seed

    @pytest.mark.parametrize("bad", [1.5, -0.25, float("nan")])
    def test_pvalue_outside_unit_interval_names_its_trial(self, monkeypatch,
                                                          bad):
        real = closure._search_trials

        def bad_pvalue_in_trial_2(gen, trials):
            sizes, p, q, w = real(gen, trials)
            p[2, 1] = q[2, 1] = bad
            return sizes, p, q, w

        monkeypatch.setattr(closure, "_search_trials", bad_pvalue_in_trial_2)
        with pytest.raises(ValueError, match=f"trial 2, hypothesis 1: {bad}"):
            find_pvalue_monotonicity_violation(Procedure.WHP, trials=50, seed=7)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_trials_follow_the_search_law(self, seed):
        sizes, p, q, w = closure._search_trials(np.random.default_rng(seed),
                                                500)
        assert sizes.min() >= 3 and sizes.max() <= 5
        assert set(sizes.tolist()) == {3, 4, 5}
        inside = np.arange(5) < sizes[:, None]
        assert ((w >= 1.0) & (w < 10.0))[inside].all()
        assert (w[~inside] == 0.0).all() and (p[~inside] == 0.0).all()
        # p-values at most three times each hypothesis's share of alpha
        share = 0.05 * w / w.sum(axis=1, keepdims=True)
        assert (p < 3.0 * share)[inside].all()
        assert ((p >= 0.0) & (p <= 1.0) & (q >= 0.0) & (q <= p)).all()
        assert ((q < p).sum(axis=1) == 1).all()


@lru_cache(maxsize=None)
def _per_trial_search(procedure, trials, seed):
    """The p-value monotonicity search deciding the same drawn trials one at
    a time with the step-downs, comparing their rejection sets: the
    reference for the chunked search."""
    stepdown = {Procedure.WHP: whp_stepdown, Procedure.WAP: wap_stepdown}[procedure]
    sizes, p, q, w = closure._search_trials(np.random.default_rng(seed), trials)
    for m, p_t, q_t, w_t in zip(sizes.tolist(), p, q, w):
        labels = [f"H{i + 1}" for i in range(m)]
        problem = validate_problem(labels, p_t[:m], w_t[:m], 0.05)
        lowered = validate_problem(labels, q_t[:m], w_t[:m], 0.05)
        if not stepdown(problem).rejected <= stepdown(lowered).rejected:
            return problem, lowered
    return None
