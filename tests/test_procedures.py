import re
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wholm import (Procedure, adjusted_wap, adjusted_whp, ctp, holm_stepdown, validate_problem, wap_local_test,
                   wap_stepdown, whp_local_test, whp_stepdown, OrderingKey,
                   run_graphical)
from wholm.closure import random_corpus
from wholm.procedures import adjust_rows, rank, rank_rows, ranking

random_problems = st.integers(min_value=1, max_value=10).flatmap(
    lambda m: st.tuples(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=m, max_size=m),
        st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=m, max_size=m),
    )).map(lambda pw: validate_problem(
        [f"H{i}" for i in range(len(pw[0]))], pw[0], pw[1], 0.05))


def labels_of(problem, rejection):
    return sorted(problem.labels[i] for i in rejection.rejected)


class TestWhpStepdown:
    def test_divergent_example_rejects_two(self, divergent_problem):
        result = whp_stepdown(divergent_problem)
        assert labels_of(divergent_problem, result) == ["H1", "H2"]
        # trace records H2 first (smallest weighted p-value)
        assert [idx for _, idx, _ in result.trace] == [1, 0]

    def test_coincident_example_rejects_none(self, coincident_problem):
        # first threshold alpha/6 is already missed by tilde_p = 0.01
        assert whp_stepdown(coincident_problem).rejected == frozenset()

    def test_single_hypothesis_reduces_to_plain_level(self):
        prob = validate_problem(["H1"], [0.04], [7.0], 0.05)
        assert whp_stepdown(prob).rejected == {0}

    def test_trace_thresholds_in_unit_interval(self, divergent_problem):
        for _, _, threshold in whp_stepdown(divergent_problem).trace:
            assert 0.0 < threshold < 1.0


class TestWapStepdown:
    def test_divergent_example_rejects_none(self, divergent_problem):
        assert wap_stepdown(divergent_problem).rejected == frozenset()

    def test_coincident_example_rejects_none(self, coincident_problem):
        assert wap_stepdown(coincident_problem).rejected == frozenset()

    def test_equal_weights_match_plain_holm(self):
        p = [0.001, 0.02, 0.04, 0.8]
        prob = validate_problem([f"H{i}" for i in range(4)], p,
                                [3.0] * 4, 0.05)
        assert wap_stepdown(prob).rejected == holm_stepdown(p, 0.05).rejected


class TestHolmStepdown:
    def test_hand_example(self):
        result = holm_stepdown([0.01, 0.014, 0.3], 0.05)
        assert result.rejected == {0, 1}

    def test_all_large(self):
        assert holm_stepdown([0.9, 0.9], 0.05).rejected == frozenset()

    def test_all_tiny(self):
        assert holm_stepdown([0.001] * 5, 0.05).rejected == frozenset(range(5))

    def test_matches_unit_weight_whp(self):
        gen = np.random.default_rng(5)
        for _ in range(50):
            p = gen.uniform(size=6)
            prob = validate_problem([f"H{i}" for i in range(6)], p,
                                    [1.0] * 6, 0.05)
            assert holm_stepdown(p, 0.05).rejected == whp_stepdown(prob).rejected


def _boundary_problem(p, w):
    return validate_problem([f"H{i}" for i in range(len(p))], p, w, 0.05)


# Exact-boundary problems where `p <= w*alpha/tail` and `p/w <= alpha/tail`
# round to different decisions; the step-downs must use one form.
BOUNDARY_PROBLEMS = [
    _boundary_problem((0.0, 0.0, 0.05), (1.0, 1.0, 5.375)),
    _boundary_problem((0.0, 0.0, 0.05), (2.0, 2.0, 10.75)),
    _boundary_problem((0.05,), (2.6875,)),
    _boundary_problem((0.05,), (0.16232624739365845,)),
    _boundary_problem((0.05000000000000001,), (0.05,)),
]


def with_boundary_examples(test):
    for problem in BOUNDARY_PROBLEMS:
        test = example(problem)(test)
    return test


@given(random_problems)
@with_boundary_examples
@settings(max_examples=300)
def test_wap_rejections_contained_in_whp(problem):
    assert wap_stepdown(problem).rejected <= whp_stepdown(problem).rejected


@given(random_problems)
@with_boundary_examples
@settings(max_examples=300)
def test_coinciding_orderings_give_identical_rejections(problem):
    p = np.array([problem.p])
    raw = rank_rows(p, None, OrderingKey.RAW)
    weighted = rank_rows(p, p / np.array([problem.w]), OrderingKey.WEIGHTED)
    if np.array_equal(raw, weighted):
        assert whp_stepdown(problem).rejected == wap_stepdown(problem).rejected


@given(random_problems)
@settings(max_examples=200)
def test_equal_weight_collapse(problem):
    prob = validate_problem(problem.labels, problem.p,
                            [1.7] * problem.m, problem.alpha)
    holm = holm_stepdown(problem.p, problem.alpha).rejected
    assert whp_stepdown(prob).rejected == holm
    assert wap_stepdown(prob).rejected == holm


# power-of-two scales keep the rescaling exact in floating point, so the
# invariance can be asserted without tolerance even at threshold boundaries
@given(random_problems, st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
@settings(max_examples=200)
def test_weight_rescaling_invariance(problem, scale):
    scaled = validate_problem(problem.labels, problem.p,
                              [w * scale for w in problem.w], problem.alpha)
    assert whp_stepdown(scaled).rejected == whp_stepdown(problem).rejected
    assert wap_stepdown(scaled).rejected == wap_stepdown(problem).rejected


def test_whp_pvalue_monotone_on_random_pairs():
    gen = np.random.default_rng(11)
    for _ in range(500):
        m = int(gen.integers(1, 8))
        p = gen.uniform(size=m)
        q = p * gen.uniform(size=m)
        w = gen.uniform(0.5, 5.0, size=m)
        labels = [f"H{i}" for i in range(m)]
        high = whp_stepdown(validate_problem(labels, p, w, 0.05)).rejected
        low = whp_stepdown(validate_problem(labels, q, w, 0.05)).rejected
        assert high <= low


# Grid p-values put ties, exact zeros, p = 1 and alpha-sized values in
# most rows; the weight spread covers ratios from 0.05 up to 1e6.
GRID_P = (0.0, 0.001, 0.0125, 0.025, 0.05, 0.1, 1.0)
GRID_W = (0.05, 1.0, 2.0, 5.375, 10.0, 1e6)


def _kernel_corpus(gen, m, rows):
    p = gen.uniform(size=(rows, m))
    from_grid = gen.uniform(size=(rows, m)) < 0.6
    p[from_grid] = gen.choice(GRID_P, size=int(from_grid.sum()))
    w = np.exp(gen.uniform(np.log(0.05), np.log(1e6), size=(rows, m)))
    from_grid = gen.uniform(size=(rows, m)) < 0.5
    w[from_grid] = gen.choice(GRID_W, size=int(from_grid.sum()))
    return p, w


def _scalar_masks(p, w, alpha):
    labels = [f"H{i}" for i in range(p.shape[1])]
    masks = {proc: np.zeros(p.shape, dtype=bool) for proc in Procedure}
    for r in range(p.shape[0]):
        problem = validate_problem(labels, p[r], w[r], alpha)
        for proc, result in ((Procedure.WHP, whp_stepdown(problem)),
                             (Procedure.WAP, wap_stepdown(problem)),
                             (Procedure.HOLM, holm_stepdown(p[r], alpha))):
            masks[proc][r, list(result.rejected)] = True
    return masks


def index_masks(p, w, alpha, key):
    """`adjust_rows`'s rejections on the `rank` view under `key`, in index
    order."""
    return adjust_rows(rank(p, w, key), alpha)[2]


def _kernel_masks(p, w, alpha):
    return {Procedure.WHP: index_masks(p, w, alpha, OrderingKey.WEIGHTED),
            Procedure.WAP: index_masks(p, w, alpha, OrderingKey.RAW),
            Procedure.HOLM: index_masks(p, 1.0, alpha, OrderingKey.WEIGHTED)}


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
@pytest.mark.parametrize("m", range(1, 12))
def test_kernel_masks_match_scalar_stepdowns(m, alpha):
    gen = np.random.default_rng([m, int(alpha * 100)])
    p, w = _kernel_corpus(gen, m, 600)
    expected = _scalar_masks(p, w, alpha)
    for proc, mask in _kernel_masks(p, w, alpha).items():
        mismatched = np.flatnonzero((mask != expected[proc]).any(axis=1))
        assert mismatched.size == 0, (
            f"{proc.value} row {mismatched[:1]}: p={p[mismatched[:1]]}, "
            f"w={w[mismatched[:1]]}")


def test_kernel_masks_give_equal_decisions_at_the_boundary():
    # 5.375 * 0.05 / 5.375 rounds below 0.05, so a raw-scale WAP test would
    # keep H3; in the shared form p/w <= alpha/tail both procedures reject it.
    p = np.array([[0.0, 0.0, 0.05]])
    w = np.array([[1.0, 1.0, 5.375]])
    problem = validate_problem(["H1", "H2", "H3"], p[0], w[0], 0.05)
    assert whp_stepdown(problem).rejected == {0, 1, 2}
    assert wap_stepdown(problem).rejected == {0, 1, 2}
    masks = _kernel_masks(p, w, 0.05)
    assert masks[Procedure.WHP].tolist() == [[True, True, True]]
    assert masks[Procedure.WAP].tolist() == [[True, True, True]]


def test_holm_stepdown_keeps_the_problem_checks():
    with pytest.raises(ValueError, match="at least one hypothesis is required"):
        holm_stepdown([], 0.05)
    with pytest.raises(ValueError,
                       match=r"p-value out of \[0, 1\] at index 1: 1.2"):
        holm_stepdown([0.01, 1.2], 0.05)
    with pytest.raises(ValueError, match="at index 0: nan"):
        holm_stepdown([float("nan")], 0.05)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\): 1.0"):
        holm_stepdown([0.01], 1.0)
    with pytest.raises(ValueError, match="could not convert"):
        holm_stepdown(["x"], 0.05)


@pytest.mark.parametrize("key", [Procedure.WHP, Procedure.WAP, "weighted",
                                 "raw", None, 0])
def test_a_ranking_key_that_is_not_an_ordering_key_is_refused(key):
    # WHP rejects all three hypotheses and WAP none, so a key read as RAW
    # would be seen; a procedure or an `OrderingKey` value is not a key
    problem = validate_problem(["a", "b", "c"], [0.02, 0.001, 0.03],
                               [5.0, 0.1, 1.0], 0.05)
    assert whp_stepdown(problem).rejected == {0, 1, 2}
    assert wap_stepdown(problem).rejected == set()
    message = f"a ranking key must be an OrderingKey, got {re.escape(repr(key))}"
    with pytest.raises(ValueError, match=message):
        rank([problem.p], [problem.w], key)
    with pytest.raises(ValueError, match=message):
        run_graphical(problem, key)


# A boundary p-value w*alpha/t, for t a step-down's tail or a subset's
# total, written in each of three float forms that round differently.  In
# `_exact_boundary_corpus` one p-value per problem sits on such a boundary.
BOUNDARY_FORMS = (lambda w, a, t: w * a / t,
                  lambda w, a, t: a / t * w,
                  lambda w, a, t: w / t * a)


def _exact_boundary_corpus(count, seed, alpha=0.05):
    gen = np.random.default_rng(seed)
    problems = [validate_problem(["H1"], [0.05], [6.332856399000273], alpha)]
    while len(problems) < count:
        m = int(gen.integers(1, 6))
        w = np.exp(gen.uniform(np.log(0.1), np.log(20.0), size=m))
        p = gen.uniform(size=m)
        p[gen.uniform(size=m) < 0.4] = 0.0
        b = int(gen.integers(m))
        # b's tail when it is the first nonzero p-value to be tested
        tail = 0.0
        for i in reversed(range(m)):
            if p[i] > 0.0 or i == b:
                tail += w[i]
        for form in BOUNDARY_FORMS:
            q = p.copy()
            q[b] = min(form(w[b], alpha, tail), 1.0)
            problems.append(validate_problem(
                [f"H{i}" for i in range(m)], q, w, alpha))
    return problems


def _exact_adjusted(problem, key):
    """Adjusted values of the step-down in exact rational arithmetic."""
    tilde = [Fraction(p) / Fraction(w) for p, w in zip(problem.p, problem.w)]
    keys = tilde if key is OrderingKey.WEIGHTED else [Fraction(p) for p in problem.p]
    perm = sorted(range(problem.m), key=lambda i: (keys[i], i))
    values = [None] * problem.m
    running = Fraction(0)
    for j, idx in enumerate(perm):
        tail = sum(Fraction(problem.w[i]) for i in perm[j:])
        running = min(max(running, tilde[idx] * tail), Fraction(1))
        values[idx] = running
    return values


BOUNDARY_CORPUS = _exact_boundary_corpus(1500, seed=2026)


@pytest.mark.parametrize("procedure, stepdown, adjusted, local_test", [
    (Procedure.WHP, whp_stepdown, adjusted_whp, whp_local_test),
    (Procedure.WAP, wap_stepdown, adjusted_wap, wap_local_test)])
def test_adjusted_value_is_the_decision_at_exact_boundaries(
        procedure, stepdown, adjusted, local_test):
    for problem in BOUNDARY_CORPUS:
        rejected = stepdown(problem).rejected
        values = adjusted(problem).values
        by_value = {i for i in range(problem.m) if values[i] <= problem.alpha}
        assert by_value == rejected, (problem, values)
        mask = index_masks([problem.p], [problem.w], problem.alpha,
                           ranking(procedure))
        assert set(np.flatnonzero(mask[0]).tolist()) == rejected, problem
        assert ctp(problem, local_test).elementary_rejections.rejected \
            == rejected, problem


@pytest.mark.parametrize("key, stepdown", [(OrderingKey.WEIGHTED, whp_stepdown),
                                           (OrderingKey.RAW, wap_stepdown)])
def test_float_decisions_agree_with_exact_arithmetic(key, stepdown):
    # the float adjusted value is within (m+1) ulp-sized relative errors of
    # the exact one, so only a hypothesis that close to alpha may flip
    for problem in BOUNDARY_CORPUS:
        rejected = stepdown(problem).rejected
        bound = (problem.m + 1) * Fraction(2) ** -52 * Fraction(problem.alpha)
        for i, exact in enumerate(_exact_adjusted(problem, key)):
            if abs(exact - Fraction(problem.alpha)) > bound:
                assert (exact <= problem.alpha) == (i in rejected), (problem, i)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "in float, WAP rejects a hypothesis WHP keeps on BOUNDARY_CORPUS rows "
    "1369-1371 and 1384-1386, where exact arithmetic obeys the containment "
    "(ROADMAP items 1 and 13); item 1's exact re-decision of the hypotheses "
    "within rounding of alpha flips this test"))
def test_wap_rejections_contained_in_whp_on_the_boundary_corpus():
    # under the step-downs, their kernel and closed testing, which agree bit
    # for bit, so each lists the same rows
    def rows(whp, wap):
        return [k for k, problem in enumerate(BOUNDARY_CORPUS)
                if not wap(problem) <= whp(problem)]

    def kernel(procedure):
        def rejected(problem):
            [row] = index_masks([problem.p], [problem.w], problem.alpha,
                                ranking(procedure))
            return set(np.flatnonzero(row).tolist())
        return rejected

    def closed(local_test):
        return lambda problem: ctp(
            problem, local_test).elementary_rejections.rejected

    assert (rows(lambda problem: whp_stepdown(problem).rejected,
                 lambda problem: wap_stepdown(problem).rejected),
            rows(kernel(Procedure.WHP), kernel(Procedure.WAP)),
            rows(closed(whp_local_test), closed(wap_local_test))) == ([],) * 3


# the smallest float witness of ROADMAP item 19, at m = 3: float WHP rejects
# nothing and float WAP rejects {0, 1}, while exact arithmetic rejects {0, 1}
# under WHP and nothing under WAP.  H0 is first by raw p and H1 by p/w; p0 is
# alpha·w0 over WAP's tail summed in its own order, and p1 = p0/w0·w1 ties
# p/w up to rounding
NEAR_TIE_WITNESS = validate_problem(
    ["H0", "H1", "H2"],
    [0.011035595182448059, 0.02910605802795192, 0.6580233977629776],
    [7.244626389068055, 19.107489227805324, 6.4717886188968885], 0.05)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "in float, WAP rejects {H0, H1} on NEAR_TIE_WITNESS, which WHP keeps: "
    "each ranking sums the weight totals in its own order, so WHP's total "
    "is an ulp larger (ROADMAP item 16, one set function for every weight "
    "total, flips this test)"))
@pytest.mark.parametrize("whp, wap", [
    (whp_stepdown, wap_stepdown), (adjusted_whp, adjusted_wap),
    (lambda problem: ctp(problem, whp_local_test).elementary_rejections,
     lambda problem: ctp(problem, wap_local_test).elementary_rejections)],
    ids=["stepdowns", "adjusted", "ctp"])
def test_wap_rejections_contained_in_whp_on_the_m3_witness(whp, wap):
    """The paper's containment WAP ⊆ WHP, on the smallest size at which float
    can break it.

    At m = 2 it cannot break.  Both rankings sum the same two weights, and
    float addition commutes, so both procedures use the same total T.  Say
    WAP ranks i first and WHP ranks j first.  If WAP rejects i, then
    fl(t_i·T) ≤ alpha, with t = p/w.  So WHP's fl(t_j·T) ≤ fl(t_i·T) ≤ alpha
    and then fl(t_i·w_i) ≤ fl(t_i·T) ≤ alpha, by monotone rounding, and WHP
    rejects both.  At m = 3 the two rankings may sum a tail of three weights
    in different orders, and NEAR_TIE_WITNESS is such a row.
    """
    assert wap(NEAR_TIE_WITNESS).rejected <= whp(NEAR_TIE_WITNESS).rejected


@pytest.mark.parametrize("key, exact_rejected", [
    (OrderingKey.WEIGHTED, {0, 1}), (OrderingKey.RAW, set())])
def test_graph_decides_the_m3_witness_as_exact_arithmetic(key,
                                                          exact_rejected):
    # the graph walk's thresholds w_i·alpha/(weight left) put the near tie
    # on the side exact arithmetic does, under both orderings
    exact = _exact_adjusted(NEAR_TIE_WITNESS, key)
    assert {i for i, value in enumerate(exact)
            if value <= NEAR_TIE_WITNESS.alpha} == exact_rejected
    rejections, _ = run_graphical(NEAR_TIE_WITNESS, key)
    assert rejections.rejected == exact_rejected


def _python_rank_adjusted(problem, key):
    """The adjusted-value pass in plain Python over tuples, as the step-downs
    ran it before the numpy kernel: the reference the kernel is held to.
    Ranks sort by (key, index), tails accumulate from the last rank upward,
    and the running max is capped at 1."""
    tilde = [p / w for p, w in zip(problem.p, problem.w)]
    keys = tilde if key is OrderingKey.WEIGHTED else list(problem.p)
    perm = sorted(range(problem.m), key=lambda i: (keys[i], i))
    tails = tuple(accumulate([problem.w[i] for i in reversed(perm)]))[::-1]
    products = [tilde[i] * tail for i, tail in zip(perm, tails)]
    adjusted = tuple([min(value, 1.0) for value in accumulate(products, max)])
    return tuple(perm), tails, adjusted


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("key, adjusted_report", [
    (OrderingKey.WEIGHTED, adjusted_whp), (OrderingKey.RAW, adjusted_wap)])
def test_kernel_equals_the_python_adjustment_bit_for_bit(key, adjusted_report):
    groups = defaultdict(list)
    for problem in BOUNDARY_CORPUS + random_corpus(3000, seed=11, m_max=40):
        groups[problem.m].append(problem)
    for problems in groups.values():
        view = rank(np.array([problem.p for problem in problems]),
                    np.array([problem.w for problem in problems]), key)
        rows = (view, *adjust_rows(
            view, np.array([[problem.alpha] for problem in problems])))
        for r, problem in enumerate(problems):
            perm, tails, adjusted = _python_rank_adjusted(problem, key)
            # the adjusted values gathered from rank to index order
            by_index = [adjusted[perm.index(i)] for i in range(problem.m)]
            single = rank([problem.p], [problem.w], key)
            one = (single, *adjust_rows(single, problem.alpha))
            # row r of the stack, its view sliced field by field
            stacked = [rows[0]._make(field[r:r + 1] for field in rows[0]),
                       *[part[r:r + 1] for part in rows[1:]]]
            for got in (one, stacked):
                ranked = got[0]
                assert tuple(ranked.perm[0].tolist()) == perm
                assert (ranked.flat[0] - ranked.perm[0] == (
                    0 if got is one else r * problem.m)).all()
                # the p-values, weights and p/w by rank
                assert _bits(ranked.p[0]) == _bits([problem.p[i] for i in perm])
                assert _bits(ranked.w[0]) == _bits([problem.w[i] for i in perm])
                assert _bits(ranked.tilde[0]) == _bits(
                    [problem.p[i] / problem.w[i] for i in perm])
                assert _bits(got[1][0]) == _bits(tails)
                assert _bits(got[2][0]) == _bits(by_index), problem
                assert got[3][0].tolist() == [
                    value <= problem.alpha for value in by_index]
            report = adjusted_report(problem)
            assert report.rejected == {i for i, value in enumerate(by_index)
                                       if value <= problem.alpha}
            assert _bits(report.values) == _bits(by_index)
