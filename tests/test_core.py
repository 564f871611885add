import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wholm import OrderingKey, validate_problem
from wholm.core import load_problem_csv
from wholm.procedures import adjust_rows, rank_rows

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


def ranking(problem, key):
    """The index at each rank of `problem` under `key`, as the step-down
    kernel ranks it (by p/w for WEIGHTED)."""
    perm = adjust_rows([problem.p], [problem.w], problem.alpha, key)[0]
    return tuple(perm[0].tolist())


def test_weighted_pvalues_examples():
    # weighted p-values 0.01, 0.007, 0.1
    prob = validate_problem(["a", "b", "c"], [0.01, 0.014, 0.3], [1, 2, 3], 0.05)
    assert ranking(prob, OrderingKey.WEIGHTED) == (1, 0, 2)
    assert ranking(prob, OrderingKey.RAW) == (0, 1, 2)
    # weighted p-values 0.01, 0.015, 0.03
    prob = validate_problem(["a", "b", "c"], [0.01, 0.03, 0.09], [1, 2, 3], 0.05)
    assert ranking(prob, OrderingKey.WEIGHTED) == (0, 1, 2)


def test_weighted_pvalues_unit_weights_identity():
    prob = validate_problem(["a", "b"], [0.7, 0.2], [1.0, 1.0], 0.05)
    weighted = adjust_rows([prob.p], [prob.w], 0.05, OrderingKey.WEIGHTED)
    raw = adjust_rows([prob.p], [prob.w], 0.05, OrderingKey.RAW)
    for a, b in zip(weighted, raw):
        assert np.array_equal(a, b)
    assert ranking(prob, OrderingKey.WEIGHTED) == (1, 0)


def test_rank_rows_examples():
    # ties go to the smaller index
    weighted = np.array([[0.01, 0.007, 0.1]])
    assert rank_rows(weighted, weighted, OrderingKey.WEIGHTED)[0].tolist() == [1, 0, 2]
    assert rank_rows(np.array([[0.3, 0.3, 0.1]]), None,
                     OrderingKey.RAW)[0].tolist() == [2, 0, 1]
    assert rank_rows(np.array([[0.1, 0.2, 0.3]]), None,
                     OrderingKey.RAW)[0].tolist() == [0, 1, 2]
    # each row is ranked on its own
    rows = np.array([[0.3, 0.3, 0.1], [0.2, 0.1, 0.2]])
    assert rank_rows(rows, None, OrderingKey.RAW).tolist() == [[2, 0, 1],
                                                               [1, 0, 2]]


@given(problem_lists)
def test_rank_rows_is_bijection_and_sorted(data):
    p, _ = data
    perm = rank_rows(np.array([p]), None, OrderingKey.RAW)[0].tolist()
    assert sorted(perm) == list(range(len(p)))
    keyed = [(p[i], i) for i in perm]
    assert keyed == sorted(keyed)


@given(problem_lists)
def test_equal_weights_give_same_ordering(data):
    p, _ = data
    # a power-of-two weight keeps the division exact; a general constant can
    # collapse adjacent floats (or flush subnormals to zero) and flip the
    # index tie-break relative to the raw ordering
    prob = validate_problem([str(i) for i in range(len(p))], p,
                            [2.0] * len(p), 0.05)
    assert ranking(prob, OrderingKey.RAW) == ranking(prob, OrderingKey.WEIGHTED)
