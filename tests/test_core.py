import ast
import csv
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wholm
from wholm import (OrderingKey, core, run_graphical, validate_problem,
                   whp_stepdown)
from wholm.core import load_problem_csv
from wholm.procedures import adjust_rows, rank, rank_rows

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
    # min and max pass over a NaN that is not the first value
    ([0.1, math.nan, 0.2], [1.0] * 3, 0.05, "index 1: nan"),
])
def test_validate_rejects_bad_inputs(p, w, alpha, fragment):
    labels = [f"H{i}" for i in range(len(p))]
    with pytest.raises(ValueError, match=fragment):
        validate_problem(labels, p, w, alpha)


# p = (0.01, 0.02) under these weights was accepted and decided wrongly:
# the overflowing total made every formulation reject nothing, and H1's
# overflowing p/w made the step-downs reject H2 alone and the graph both
OVERFLOWING_WEIGHTS = [
    ((1e308, 1e308), "weight total overflows at index 1: 1e+308"),
    ((1e-320, 1.0), "p-value over weight overflows at index 0: 0.01 / 1e-320"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("w, message", OVERFLOWING_WEIGHTS)
def test_validate_refuses_an_overflowing_weight_total_or_ratio(w, message):
    with pytest.raises(ValueError) as info:
        validate_problem(["H1", "H2"], [0.01, 0.02], w, 0.05)
    assert str(info.value) == message


@pytest.mark.filterwarnings("error")
def test_validate_accepts_a_subnormal_weight_whose_ratio_is_finite():
    # 1 / min(w) overflows, but no p_i / w_i does
    prob = validate_problem(["H1", "H2"], [1.0, 0.0], [1.0, 1e-320], 0.05)
    assert prob.w == (1.0, 1e-320)


def _compensated_sum(values):
    """The builtin `sum` of floats from Python 3.12 on: Neumaier's
    compensated summation, its correction added at the end when it is
    nonzero and finite."""
    total, correction = 0.0, 0.0
    for x in values:
        t = total + x
        correction += ((total - t) + x if abs(total) >= abs(x)
                       else (x - t) + total)
        total = t
    if correction and math.isfinite(correction):
        total += correction
    return total


@pytest.mark.filterwarnings("error")
def test_validate_decides_an_overflow_on_the_running_total(monkeypatch):
    # the compensated sum of these weights overflows, but their running total
    # does not: they are accepted, as under Python 3.11, whatever `sum` the
    # interpreter has, and a total that does overflow is still named
    w = (1.7976931348623157e308, 6e291, 6e291)
    assert _compensated_sum(w) == math.inf
    assert _compensated_sum([0.1] * 10) == 1.0
    monkeypatch.setattr(core, "sum", _compensated_sum, raising=False)
    assert validate_problem(["H1", "H2", "H3"], [0.01, 0.02, 0.03], w,
                            0.05).w == w
    with pytest.raises(ValueError, match="total overflows at index 2"):
        validate_problem(["H1", "H2", "H3"], [0.01, 0.02, 0.03],
                         w[:2] + (1e292,), 0.05)


@pytest.mark.filterwarnings("error")
@pytest.mark.xfail(strict=True, raises=RuntimeWarning, reason=(
    "the weights' running total in index order is finite, so they are "
    "accepted, but the step-down's tail from the last rank up overflows: "
    "WHP warns, and without the warning rejects nothing where the graph "
    "rejects all three (ROADMAP item 9)"))
def test_weights_accepted_on_their_running_total_are_decided_alike():
    problem = validate_problem(["H1", "H2", "H3"], [0.01, 0.02, 0.03],
                               (1.7976931348623157e308, 6e291, 6e291), 0.05)
    assert (whp_stepdown(problem).rejected
            == run_graphical(problem, OrderingKey.WEIGHTED)[0].rejected)


def test_the_library_never_calls_the_builtin_sum():
    # `sum` compensates its additions from Python 3.12 on, so its total is
    # not the running total every formulation adds
    for path in Path(wholm.__file__).parent.glob("*.py"):
        names = [node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Name) and node.id == "sum"]
        assert not names, (path.name, [node.lineno for node in names])


def test_the_library_never_imports_scipy():
    # numpy is the one runtime dependency; scipy serves the tests alone, as
    # an oracle
    for path in Path(wholm.__file__).parent.glob("*.py"):
        imports = [node for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Import)
                   and any(alias.name.split(".")[0] == "scipy"
                           for alias in node.names)
                   or isinstance(node, ast.ImportFrom)
                   and (node.module or "").split(".")[0] == "scipy"]
        assert not imports, (path.name, [node.lineno for node in imports])


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


def test_csv_ignores_a_utf8_byte_order_mark(tmp_path):
    # as a spreadsheet's "CSV UTF-8" export writes it
    path = tmp_path / "bom.csv"
    path.write_bytes("hypothesis,p_value,weight\r\nH1,0.01,1\r\nÄ2,0.5,2\r\n"
                     .encode("utf-8-sig"))
    assert load_problem_csv(path, 0.05) == validate_problem(
        ["H1", "Ä2"], [0.01, 0.5], [1.0, 2.0], 0.05)


def _row_by_row_load(path, alpha):
    """The loader as it read files one row at a time, kept as the
    reference for `load_problem_csv` (which also accepts a byte order
    mark, absent from the corpus below); a row the csv module cannot read
    is named as a bad row is."""
    labels, ps, ws = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        expected = ["hypothesis", "p_value", "weight"]
        if [h.strip() for h in header] != expected:
            raise ValueError(
                f"{path}: expected header {','.join(expected)}, got {','.join(header)}")
        rownum = 1
        try:
            for rownum, row in enumerate(reader, start=2):
                row = [c.strip() for c in row]
                if not any(row):
                    continue
                if len(row) != 3:
                    raise ValueError(f"{path}: row {rownum}: expected 3 columns, got {len(row)}")
                label, p_str, w_str = row
                try:
                    ps.append(float(p_str))
                    ws.append(float(w_str))
                except ValueError:
                    raise ValueError(f"{path}: row {rownum}: malformed number") from None
                labels.append(label)
        except csv.Error as exc:
            raise ValueError(f"{path}: row {rownum + 1}: {exc}") from None
    if not labels:
        raise ValueError(f"{path}: no data rows")
    return validate_problem(labels, ps, ws, alpha)


# the kinds of file in the loader corpus, and what loading one gives: a
# problem (None), or an error whose message holds the text given
LOADER_KINDS = {
    "valid": None, "padded": None, "quoted-labels": None, "signed-zero": None,
    # `str.strip` removes U+001C around a number, `float` does not
    "padded-x1c": None, "blank-rows": None,
    "short": "expected 3 columns, got 2", "long": "expected 3 columns, got 4",
    "malformed": "malformed number",
    "short-then-malformed": "expected 3 columns",
    "malformed-then-short": "malformed number",
    "nan": "p-value out of [0, 1]", "negative": "p-value out of [0, 1]",
    "out-of-range": "p-value out of [0, 1]",
    "bad-weight": "weight must be positive and finite",
    "duplicate": "duplicate hypothesis label", "only-blank-rows": "no data rows",
    # more than the csv module's field size limit (131,072 characters)
    "huge-field": "field larger than field limit",
    "malformed-then-huge-field": "malformed number"}


def _loader_file(gen, m, kind):
    """The text of one seeded problem CSV with `m` hypotheses, of `kind`."""
    rows = [[f"H{i}", repr(p), repr(w)] for i, (p, w) in enumerate(zip(
        gen.uniform(0.0, 1.0, m).tolist(), gen.uniform(0.5, 5.0, m).tolist()))]
    # two rows, i before j, for the kinds with two defects
    i, j = sorted(gen.choice(m, size=2, replace=False).tolist())
    header = ["hypothesis", "p_value", "weight"]

    def pad(cells, pads):
        for row in cells:
            for c in range(3):
                if gen.random() < 0.3:
                    padding = pads[gen.integers(len(pads))]
                    row[c] = padding + row[c] + padding[::-1]

    if kind == "padded":
        pad(rows + [header], [" ", "\t", " \t", "\u00a0 "])
    elif kind == "padded-x1c":
        pad(rows, [" ", "\x1c", "\t\x1f"])
    elif kind == "quoted-labels":
        for row in rows[::2]:
            row[0] = f'{row[0]}, "x"\r\ny'
    elif kind == "signed-zero":
        rows[i][1] = "-0.0"
    elif kind in ("short", "short-then-malformed"):
        rows[i] = rows[i][:2]
    elif kind == "long":
        rows[i].append("" if gen.random() < 0.5 else "x")
    elif kind in ("malformed", "malformed-then-short",
                  "malformed-then-huge-field"):
        rows[i][1 + int(gen.integers(2))] = ["oops", "0.1.2", "", "1_0x"][
            int(gen.integers(4))]
    elif kind == "nan":
        rows[i][1] = "nan"
    elif kind == "negative":
        rows[i][1] = "-0.25"
    elif kind == "out-of-range":
        rows[i][1] = "1.5"
    elif kind == "bad-weight":
        rows[i][2] = ["inf", "0", "-1e-300", "nan"][int(gen.integers(4))]
    elif kind == "duplicate":
        rows[j][0] = rows[i][0]
    elif kind == "only-blank-rows":
        rows = []
    if kind == "short-then-malformed":
        rows[j][2] = "oops"
    if kind == "malformed-then-short":
        rows[j] = rows[j][:1]
    if kind in ("huge-field", "malformed-then-huge-field"):
        rows.insert(j, ["H" * 131_073, "0.5", "1"])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=["\n", "\r\n"][int(gen.integers(2))])
    writer.writerow(header)
    writer.writerows(rows)
    lines = out.getvalue().splitlines(keepends=True)
    if kind in ("blank-rows", "only-blank-rows"):
        blanks = ["\n", "   \n", "\t\r\n", " , ,\t\n", ",,\n", "\x1c\n"]
        for _ in range(3):
            at = 1 + int(gen.integers(len(lines)))
            lines.insert(at, blanks[int(gen.integers(len(blanks)))])
        lines += ["\n", "\n"]
    return "".join(lines)


@pytest.mark.parametrize("m, files_per_kind", [(3, 12), (2000, 2)])
def test_csv_loader_matches_the_row_by_row_reference(tmp_path, m,
                                                     files_per_kind):
    gen = np.random.default_rng(m)
    path = tmp_path / "problem.csv"
    for kind, outcome in LOADER_KINDS.items():
        for _ in range(files_per_kind):
            path.write_text(_loader_file(gen, m, kind), encoding="utf-8",
                            newline="")
            results = []
            for load in (load_problem_csv, _row_by_row_load):
                try:
                    results.append(repr(load(path, 0.05)))
                except ValueError as exc:
                    results.append(f"{type(exc).__name__}: {exc}")
            assert results[0] == results[1], kind
            if outcome is None:
                assert results[0].startswith("TestingProblem("), kind
            else:
                assert outcome in results[0], kind


def ranking(problem, key):
    """The index at each rank of `problem` under `key`, as the view the
    step-down kernel reads ranks it (by p/w for WEIGHTED)."""
    ranked = rank([problem.p], [problem.w], key)
    return tuple(ranked.perm[0].tolist())


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
    weighted = rank([prob.p], [prob.w], OrderingKey.WEIGHTED)
    raw = rank([prob.p], [prob.w], OrderingKey.RAW)
    # the ranked views field by field, then the kernel's outputs on each
    for a, b in zip([*weighted, *adjust_rows(weighted, 0.05)],
                    [*raw, *adjust_rows(raw, 0.05)]):
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
