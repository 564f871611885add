import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wholm import (OrderingKey, order, validate_problem, weighted_pvalues)
from wholm.core import load_problem_csv

problem_lists = st.integers(min_value=1, max_value=12).flatmap(
    lambda m: st.tuples(
        st.lists(st.floats(min_value=0.0, max_value=1.0,
                           allow_subnormal=False), min_size=m, max_size=m),
        st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=m, max_size=m),
    ))


def test_validate_accepts_clean_inputs():
    prob = validate_problem(["H1", "H2", "H3"], [0.01, 0.014, 0.3],
                            [1, 2, 3], 0.05)
    assert prob.m == 3
    assert prob.labels == ("H1", "H2", "H3")


def test_validate_single_hypothesis():
    prob = validate_problem(["H1"], [0.5], [1.0], 0.05)
    assert prob.m == 1


@pytest.mark.parametrize("p,w,alpha,fragment", [
    ([0.1, 0.2], [1.0], 0.05, "length mismatch"),
    ([0.1, 1.5], [1.0, 1.0], 0.05, "index 1"),
    ([0.1, -0.2], [1.0, 1.0], 0.05, "index 1"),
    ([0.1, 0.2, 0.3], [1.0, 0.0, 3.0], 0.05, "index 1"),
    ([0.1], [float("inf")], 0.05, "index 0"),
    ([0.1], [1.0], 1.5, "alpha"),
    ([0.1], [1.0], 0.0, "alpha"),
])
def test_validate_rejects_bad_inputs(p, w, alpha, fragment):
    labels = [f"H{i}" for i in range(len(p))]
    with pytest.raises(ValueError, match=fragment):
        validate_problem(labels, p, w, alpha)


def test_validate_reads_negative_zero_pvalue_as_zero():
    prob = validate_problem(["A", "B", "C"], [-0.0, 0.0, 0.5],
                            [1.0, 2.0, 1.0], 0.05)
    assert prob.p == (0.0, 0.0, 0.5)
    assert math.copysign(1.0, prob.p[0]) == 1.0


def test_validate_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate hypothesis label: H2"):
        validate_problem(["H1", "H2", "H3", "H2"], [0.1] * 4, [1.0] * 4, 0.05)


def test_csv_skips_blank_rows_and_strips_padded_cells(tmp_path):
    path = tmp_path / "padded.csv"
    path.write_text(" hypothesis , p_value,weight \n"
                    "\n"
                    " H1 , 0.01 ,2.5\n"
                    "   \n"
                    " , ,\t\n"
                    ",,\n"
                    "H2,\t0.5,  1\n")
    prob = load_problem_csv(path, 0.05)
    assert prob == validate_problem(["H1", "H2"], [0.01, 0.5], [2.5, 1.0], 0.05)


@pytest.mark.parametrize("row, count", [("H2,0.02", 2), ("H2,0.02,1.0,", 4),
                                        (" ,0.02, , ", 4)])
def test_csv_row_of_wrong_width_names_its_row(tmp_path, row, count):
    path = tmp_path / "wide.csv"
    path.write_text(f"hypothesis,p_value,weight\nH1,0.01,1.0\n\n{row}\n")
    with pytest.raises(ValueError,
                       match=f"row 4: expected 3 columns, got {count}$"):
        load_problem_csv(path, 0.05)


def test_weighted_pvalues_examples():
    prob = validate_problem(["a", "b", "c"], [0.01, 0.014, 0.3], [1, 2, 3], 0.05)
    assert weighted_pvalues(prob).tilde_p == pytest.approx((0.01, 0.007, 0.1))
    prob = validate_problem(["a", "b", "c"], [0.01, 0.03, 0.09], [1, 2, 3], 0.05)
    assert weighted_pvalues(prob).tilde_p == pytest.approx((0.01, 0.015, 0.03))


def test_weighted_pvalues_unit_weights_identity():
    prob = validate_problem(["a", "b"], [0.2, 0.7], [1.0, 1.0], 0.05)
    assert weighted_pvalues(prob).tilde_p == prob.p


def test_order_examples():
    assert order((0.01, 0.007, 0.1), OrderingKey.WEIGHTED).perm == (1, 0, 2)
    assert order((0.3, 0.3, 0.1), OrderingKey.RAW).perm == (2, 0, 1)
    assert order((0.1, 0.2, 0.3), OrderingKey.RAW).perm == (0, 1, 2)


@given(problem_lists)
def test_order_is_bijection_and_sorted(data):
    p, _ = data
    perm = order(p, OrderingKey.RAW).perm
    assert sorted(perm) == list(range(len(p)))
    keyed = [(p[i], i) for i in perm]
    assert keyed == sorted(keyed)


@given(problem_lists)
def test_weighted_pvalues_roundtrip(data):
    p, w = data
    prob = validate_problem([str(i) for i in range(len(p))], p, w, 0.05)
    tilde = weighted_pvalues(prob).tilde_p
    for ti, wi, pi in zip(tilde, prob.w, prob.p):
        assert ti * wi == pytest.approx(pi, rel=1e-15, abs=1e-300)


@given(problem_lists)
def test_equal_weights_give_same_ordering(data):
    p, _ = data
    # a power-of-two weight keeps the division exact; a general constant can
    # collapse adjacent floats (or flush subnormals to zero) and flip the
    # index tie-break relative to the raw ordering
    prob = validate_problem([str(i) for i in range(len(p))], p,
                            [2.0] * len(p), 0.05)
    raw = order(prob.p, OrderingKey.RAW).perm
    weighted = order(weighted_pvalues(prob).tilde_p, OrderingKey.WEIGHTED).perm
    assert raw == weighted
