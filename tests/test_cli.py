import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_core import OVERFLOWING_WEIGHTS
from test_procedures import BOUNDARY_CORPUS
import wholm
from wholm import __version__, adjusted_wap, adjusted_whp, battery, cli
from wholm.closure import (ClosedStack, ctp, random_corpus, wap_local_test,
                           whp_local_test)
from wholm.cli import main
from wholm.core import load_problem_csv

PROBLEM_CSV = """hypothesis,p_value,weight
H1,0.01,1.0
H2,0.014,2.0
H3,0.3,3.0
"""

# Ten hypotheses drawn with numpy seed 2020 (w ~ U(0.5, 5), p ~ w/sum(w) *
# 0.05 * U(1.05, 3)); H5, the smallest weight, then set exactly on the full
# set's boundary w*alpha/total.  Both tables close to what the step-downs
# decide: WHP keeps H5 (its adjusted value is 0.05000000000000001) and WAP
# rejects it.  One ulp less makes WHP reject H5, one ulp more makes WAP keep
# it.
BOUNDARY_CSV = """hypothesis,p_value,weight
H1,0.011045343261550973,2.60738394495029
H2,0.01049418440820099,2.8145400401543297
H3,0.016119330592344643,4.387947266243339
H4,0.016930059397641962,3.737240920583214
H5,0.0031295712615286493,2.000740467962924
H6,0.008588360438529638,4.467486273786015
H7,0.011795525401904892,2.8339918901977725
H8,0.009522138962270072,2.854487377611194
H9,0.008804805344412848,3.7507491305319474
H10,0.011650428507516377,2.5105215255096445
"""

BOUNDARY_CTP_SHA256 = {
    "whp": "29d09e6fea2e6035599d999e30b3f32a39e5b4d98a0c0addcaa4d4f8566f1571",
    "wap": "22113e9702db7804524ddbc0a8717dcce58f3f1e5c83ec90d45c310092efd051"}

# `adjust --precision full` stdout over the first 300 problems of
# `test_procedures.BOUNDARY_CORPUS`, one CSV each, concatenated
BOUNDARY_ADJUST_SHA256 = (
    "427c50d199ccf46c4e0f875bba9ea862f129aa4eaa520fd16df24bf0a7ef3f45")

# `check --trials 2000 --seed S` stdout
CHECK_SHA256 = {
    1: "6ec5851ed258b1ef7311fac48aa05f6cd32111bd9e4469d71008d81347a8fbfe",
    2: "78218c2e2cc2a861390108ee28ef761f2f38f7d7b2abf1d35c5a7a0dc3539c6d",
    3: "db76108761c0451963f4efea6577f777de49aacbc58ee06447143afc8ee03f9a"}

SIM_CONFIG = """# small smoke grid
m = 4
pi0 = 0.5
rho_list = 0.0,0.5
n = 15
mu_alt = 0.7
alpha = 0.05
reps = 50
scenario = S4
seed = 11
"""

# `simulate --config` stdout on SIM_CONFIG
SIMULATE_SHA256 = (
    "1823aa9781fd8715dba7f0143188840f47248a529c8fd8aa6072251298625ca6")

# `graph` over PROBLEM_CSV and BOUNDARY_CSV: every file it writes (name, a
# NUL byte, then the bytes, in name order) followed by its stdout line with
# the output directory written as OUTDIR
GRAPH_SHA256 = {
    ("problem", "weighted", "table"):
        "66b5b72478b492d625767f5aeaf333e0afcf8de89ceeca31e2e05b4aa2cbe669",
    ("problem", "weighted", "full"):
        "116a3c54e9645025ec787f947fe03fcfa84fb79c5e81e055468a5ca05d5c66b2",
    ("problem", "raw", "table"):
        "4a9e8b6b46b7a66d517df6e63a671dfdfbb5f3f0479a0d4ee938e61f0ad8f3d0",
    ("problem", "raw", "full"):
        "4a9e8b6b46b7a66d517df6e63a671dfdfbb5f3f0479a0d4ee938e61f0ad8f3d0",
    ("boundary", "weighted", "table"):
        "5e9e1311af30b330b8dc8084c3bb0f03721d6436c9636d3c76a031ab4dd7c5fc",
    ("boundary", "weighted", "full"):
        "2b804b70754948ddb548aff6ab2280dcb590895922e026db9c595b873f503b3c",
    ("boundary", "raw", "table"):
        "5e9e1311af30b330b8dc8084c3bb0f03721d6436c9636d3c76a031ab4dd7c5fc",
    ("boundary", "raw", "full"):
        "2b804b70754948ddb548aff6ab2280dcb590895922e026db9c595b873f503b3c"}

# the `sharpness --procedure whp --weights 1,2,3 --reps 2000 --seed 5` line
SHARPNESS_SHA256 = (
    "494841120e1eba200c7c94b4d8c5ec095bd12ff932fb302c2c240780d431452c")


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.csv"
    path.write_text(PROBLEM_CSV)
    return str(path)


# labels that `csv.writer` quotes (a comma, a double quote, CR, LF and all
# of them), one it writes bare although it holds quotes' neighbours, and an
# empty one
AWKWARD_LABELS = ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", 'x,"\r\n"y',
                  "Ünïcødé µ-test", '""', "", "H ' ; \t"]

# a DOT quoted string: any characters but a double quote, or an escape
# (backslash and one character)
DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"', re.DOTALL)


@pytest.fixture
def awkward_file(tmp_path):
    path = tmp_path / "awkward.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hypothesis", "p_value", "weight"])
        for k, label in enumerate(AWKWARD_LABELS):
            writer.writerow([label, repr(0.004 * (k + 1) ** 2), repr(1.0 + k)])
    return path


def csv_writer_text(rows):
    """The rows as `csv.writer` writes them."""
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestAdjust:
    def test_table_output(self, problem_file, tmp_path):
        out = tmp_path / "adjusted.csv"
        code = main(["adjust", "--input", problem_file, "--alpha", "0.05",
                     "--output", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert [r["hypothesis"] for r in rows] == ["H1", "H2", "H3"]
        assert rows[0]["adj_whp"] == "0.0420"
        assert rows[0]["adj_wap"] == "0.0600"
        assert rows[0]["reject_whp"] == "true"
        assert rows[0]["reject_wap"] == "false"
        assert rows[2]["reject_whp"] == "false"

    def test_full_precision_roundtrips(self, problem_file, tmp_path):
        out = tmp_path / "adjusted.csv"
        main(["adjust", "--input", problem_file, "--alpha", "0.05",
              "--output", str(out), "--precision", "full"])
        rows = read_csv(out)
        assert float(rows[0]["adj_whp"]) == pytest.approx(0.042, abs=1e-15)

    def test_stdout_default(self, problem_file, capsys):
        assert main(["adjust", "--input", problem_file, "--alpha", "0.05"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == ("hypothesis,p_value,weight,adj_whp,adj_wap,"
                          "reject_whp,reject_wap")

    def test_decisions_are_adjusted_values_at_most_alpha(self, tmp_path):
        # (0.05 / w) * w rounds up to 0.05000000000000001 for this weight, so
        # the adjusted value exceeds alpha and the hypothesis is kept
        path = tmp_path / "boundary.csv"
        path.write_text("hypothesis,p_value,weight\nH1,0.05,6.332856399000273\n")
        out = tmp_path / "adjusted.csv"
        assert main(["adjust", "--input", str(path), "--alpha", "0.05",
                     "--output", str(out), "--precision", "full"]) == 0
        [row] = read_csv(out)
        for proc in ("whp", "wap"):
            assert row[f"reject_{proc}"] == str(
                float(row[f"adj_{proc}"]) <= 0.05).lower()

    @pytest.mark.parametrize("precision, zero, adjusted", [
        ("table", "0", "0.0000"), ("full", "0.0", "0.0")])
    def test_negative_zero_pvalue_prints_as_zero(self, precision, zero,
                                                 adjusted, tmp_path, capsys):
        path = tmp_path / "zeros.csv"
        path.write_text("hypothesis,p_value,weight\n"
                        "A,-0.0,1.0\nB,0.0,2.0\nC,0.5,1.0\n")
        assert main(["adjust", "--input", str(path), "--alpha", "0.05",
                     "--precision", precision]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        for row in rows[:2]:
            assert (row["p_value"], row["adj_whp"], row["adj_wap"]) == (
                zero, adjusted, adjusted)

    def test_rerun_is_byte_identical(self, problem_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["adjust", "--input", problem_file, "--alpha", "0.05",
              "--output", str(a)])
        main(["adjust", "--input", problem_file, "--alpha", "0.05",
              "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_boundary_corpus_is_byte_identical_to_golden(self, tmp_path,
                                                         capsys):
        path = tmp_path / "problem.csv"
        digest = hashlib.sha256()
        for problem in BOUNDARY_CORPUS[:300]:
            path.write_text("hypothesis,p_value,weight\n" + "".join(
                f"{label},{p!r},{w!r}\n"
                for label, p, w in zip(problem.labels, problem.p, problem.w)))
            assert main(["adjust", "--input", str(path), "--alpha", "0.05",
                         "--precision", "full"]) == 0
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == BOUNDARY_ADJUST_SHA256


    @pytest.mark.parametrize("block_rows", [cli.TABLE_BLOCK_ROWS, 2])
    @pytest.mark.parametrize("precision", ["table", "full"])
    def test_awkward_labels_are_written_as_csv_writer_writes(
            self, awkward_file, precision, block_rows, tmp_path, capsys,
            monkeypatch):
        # blocks of 2 rows put quoted and bare labels in separate writes
        monkeypatch.setattr(cli, "TABLE_BLOCK_ROWS", block_rows)
        problem = load_problem_csv(awkward_file, 0.05)
        assert problem.labels == tuple(label.strip()
                                       for label in AWKWARD_LABELS)
        whp, wap = adjusted_whp(problem), adjusted_wap(problem)

        def text(values, table):
            return [repr(x) if precision == "full" else format(x, table)
                    for x in values]

        expected = csv_writer_text([
            ["hypothesis", "p_value", "weight", "adj_whp", "adj_wap",
             "reject_whp", "reject_wap"], *zip(
                problem.labels, text(problem.p, ".6g"),
                text(problem.w, ".6g"), text(whp.values, ".4f"),
                text(wap.values, ".4f"),
                [str(i in whp.rejected).lower() for i in range(problem.m)],
                [str(i in wap.rejected).lower() for i in range(problem.m)])])
        argv = ["adjust", "--input", str(awkward_file), "--alpha", "0.05",
                "--precision", precision]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / "adjusted.csv"
        assert main(argv + ["--output", str(out)]) == 0
        assert out.read_bytes() == expected.encode("utf-8")
        # and the rows read back as the hypotheses they came from
        assert [row["hypothesis"] for row in read_csv(out)] == list(
            problem.labels)


    def test_stdout_that_cannot_encode_a_label_is_written_up_to_it(
            self, awkward_file, monkeypatch, capsys):
        argv = ["adjust", "--input", str(awkward_file), "--alpha", "0.05"]
        assert main(argv) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out,
                                           newline="")))
        expected = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        with pytest.raises(UnicodeEncodeError) as error:
            csv.writer(expected).writerows(rows)
        expected.flush()
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 2
        stdout.flush()
        assert stdout.buffer.getvalue() == expected.buffer.getvalue()
        assert capsys.readouterr().err == f"error: {error.value}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("w, message", OVERFLOWING_WEIGHTS)
@pytest.mark.parametrize("command", [["adjust"], ["ctp", "--procedure", "whp"],
                                     ["graph", "--ordering", "weighted"]])
def test_overflowing_weights_are_a_data_error(command, w, message, tmp_path,
                                              capsys):
    path = tmp_path / "overflow.csv"
    path.write_text(f"hypothesis,p_value,weight\nH1,0.01,{w[0]!r}\n"
                    f"H2,0.02,{w[1]!r}\n")
    outdir = tmp_path / "stages"
    argv = [command[0], "--input", str(path), "--alpha", "0.05", *command[1:]]
    if command[0] == "graph":
        argv += ["--output-dir", str(outdir)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not outdir.exists()


class TestCtp:
    def test_whp_table(self, problem_file, tmp_path):
        out = tmp_path / "ctp.csv"
        code = main(["ctp", "--input", problem_file, "--alpha", "0.05",
                     "--procedure", "whp", "--output", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 7
        decisions = {int(r["subset_bitmask"]): r["rejected"] for r in rows}
        assert decisions[0b111] == "true"
        assert decisions[0b001] == "true"
        assert decisions[0b100] == "false"

    def test_wap_rejects_nothing_here(self, problem_file, tmp_path):
        out = tmp_path / "ctp.csv"
        main(["ctp", "--input", problem_file, "--alpha", "0.05",
              "--procedure", "wap", "--output", str(out)])
        decisions = {int(r["subset_bitmask"]): r["rejected"]
                     for r in read_csv(out)}
        assert decisions[0b111] == "false"


    @pytest.mark.parametrize("block_rows", [cli.TABLE_BLOCK_ROWS, 100])
    @pytest.mark.parametrize("procedure", ["whp", "wap"])
    def test_table_is_written_as_csv_writer_writes(self, procedure, block_rows,
                                                   tmp_path, capsys,
                                                   monkeypatch):
        # 1,023 rows, in one write or in 11
        monkeypatch.setattr(cli, "TABLE_BLOCK_ROWS", block_rows)
        path = tmp_path / "boundary.csv"
        path.write_text(BOUNDARY_CSV)
        local = whp_local_test if procedure == "whp" else wap_local_test
        report = ctp(load_problem_csv(path, 0.05), local)
        expected = csv_writer_text(
            [["subset_bitmask", "rejected"],
             *([mask, str(rejected).lower()]
               for mask, rejected in report.local_decisions.items())])
        assert main(["ctp", "--input", str(path), "--alpha", "0.05",
                     "--procedure", procedure]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("procedure", ["whp", "wap"])
    def test_boundary_table_is_byte_identical_to_golden(self, procedure,
                                                        tmp_path):
        path = tmp_path / "boundary.csv"
        path.write_text(BOUNDARY_CSV)
        out = tmp_path / "ctp.csv"
        assert main(["ctp", "--input", str(path), "--alpha", "0.05",
                     "--procedure", procedure, "--output", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == BOUNDARY_CTP_SHA256[procedure]


class TestGraph:
    def test_stage_files_and_rejections(self, problem_file, tmp_path, capsys):
        outdir = tmp_path / "stages"
        code = main(["graph", "--input", problem_file, "--alpha", "0.05",
                     "--ordering", "weighted", "--output-dir", str(outdir)])
        assert code == 0
        assert sorted(f.name for f in outdir.glob("*.dot")) == [
            "stage_0.dot", "stage_1.dot", "stage_2.dot"]
        rows = read_csv(outdir / "rejections.csv")
        assert [r["hypothesis"] for r in rows] == ["H2", "H1"]
        assert "rejected: ['H1', 'H2']" in capsys.readouterr().out

    def test_fewer_stages_remove_the_stale_stage_files(self, problem_file,
                                                      tmp_path, capsys):
        # files not named stage_<k>.dot are left alone
        outdir = tmp_path / "stages"
        outdir.mkdir()
        for name in ("stage_notes.dot", "stage_.dot", "other.dot"):
            (outdir / name).write_text("kept")
        for alpha, stages in (("0.05", 3), ("0.0001", 1)):
            assert main(["graph", "--input", problem_file, "--alpha", alpha,
                         "--ordering", "weighted",
                         "--output-dir", str(outdir)]) == 0
            assert f"{stages} stages written" in capsys.readouterr().out
            assert sorted(f.name for f in outdir.iterdir()) == sorted([
                *(f"stage_{k}.dot" for k in range(stages)), "rejections.csv",
                "stage_notes.dot", "stage_.dot", "other.dot"])
        assert read_csv(outdir / "rejections.csv") == []

    @pytest.mark.parametrize("ordering", ["weighted", "raw"])
    def test_degenerate_update_is_data_error(self, ordering, tmp_path, capsys):
        # g01 = g10 = 1.0 in float, so rejecting H1 leaves H2 nothing to
        # divide by while H3 is still active
        path = tmp_path / "degenerate.csv"
        path.write_text("hypothesis,p_value,weight\n"
                        "H1,0,1\nH2,0,1\nH3,0,1e-17\n")
        outdir = tmp_path / "stages"
        assert main(["graph", "--input", str(path), "--alpha", "0.05",
                     "--ordering", ordering, "--output-dir", str(outdir)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: degenerate update: g[1,0] * g[0,1] = 1\n"
        assert captured.out == ""
        assert not outdir.exists()

    def test_awkward_labels_are_escaped_in_every_stage(self, tmp_path):
        # with labels holding double quotes and backslashes, one ending in a
        # backslash, each stage splits into quoted strings with no double
        # quote outside them, and its names and labels unescape back to the
        # labels
        labels = [*AWKWARD_LABELS, "ends in \\", '\\"both\\\\']
        path = tmp_path / "awkward.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["hypothesis", "p_value", "weight"])
            for k, label in enumerate(labels):
                writer.writerow([label, repr(0.0004 * (k + 1)), repr(1.0 + k)])
        outdir = tmp_path / "stages"
        assert main(["graph", "--input", str(path), "--alpha", "0.05",
                     "--ordering", "weighted", "--output-dir",
                     str(outdir)]) == 0
        names = {label.strip() for label in labels}

        def unescape(text):
            return re.sub(r"\\(.)", r"\1", text, flags=re.DOTALL)

        for k in range(len(labels) + 1):
            parts = DOT_STRING.split(
                (outdir / f"stage_{k}.dot").read_bytes().decode())
            assert not any('"' in text for text in parts[::2]), k
            strings, after = parts[1::2], parts[2::2]
            nodes, i = set(), 0
            while i < len(strings):
                if after[i] == " -> ":
                    # an edge: its two nodes, then its label
                    assert {unescape(strings[i]),
                            unescape(strings[i + 1])} <= nodes
                    i += 3
                    continue
                # a node: its name, then its label, with its level while
                # it is active
                assert after[i] == " [label="
                label = strings[i + 1]
                if after[i + 1].startswith("];"):
                    label, level = label.rsplit("\\nalpha=", 1)
                    float(level)
                else:
                    assert after[i + 1].startswith(", rejected=true];")
                nodes.add(unescape(strings[i]))
                assert unescape(label) == unescape(strings[i])
                i += 2
            assert nodes == names

    def test_raw_ordering_no_rejections(self, problem_file, tmp_path):
        outdir = tmp_path / "stages"
        main(["graph", "--input", problem_file, "--alpha", "0.05",
              "--ordering", "raw", "--output-dir", str(outdir)])
        assert read_csv(outdir / "rejections.csv") == []

    @pytest.mark.parametrize("name", ["problem", "boundary"])
    @pytest.mark.parametrize("ordering", ["weighted", "raw"])
    @pytest.mark.parametrize("precision", ["table", "full"])
    def test_files_and_stdout_are_byte_identical_to_golden(
            self, name, ordering, precision, tmp_path, capsys):
        path = tmp_path / f"{name}.csv"
        path.write_text({"problem": PROBLEM_CSV, "boundary": BOUNDARY_CSV}[name])
        outdir = tmp_path / "stages"
        assert main(["graph", "--input", str(path), "--alpha", "0.05",
                     "--ordering", ordering, "--output-dir", str(outdir),
                     "--precision", precision]) == 0
        digest = hashlib.sha256()
        for f in sorted(outdir.iterdir()):
            digest.update(f.name.encode() + b"\0" + f.read_bytes())
        out = capsys.readouterr().out
        digest.update(out.replace(str(outdir), "OUTDIR").encode())
        assert digest.hexdigest() == GRAPH_SHA256[name, ordering, precision]


class TestSimulate:
    def test_grid_output(self, tmp_path):
        config = tmp_path / "grid.cfg"
        config.write_text(SIM_CONFIG)
        out = tmp_path / "results.csv"
        code = main(["simulate", "--config", str(config),
                     "--output", str(out)])
        assert code == 0
        rows = read_csv(out)
        # three procedures per rho value
        assert len(rows) == 6
        assert {r["procedure"] for r in rows} == {"holm", "whp", "wap"}
        assert {r["rho"] for r in rows} == {"0.0", "0.5"}
        for r in rows:
            assert 0.0 <= float(r["fwer"]) <= 1.0
            assert r["seed"] == "11"

    def test_comma_lists_run_every_cell_in_order(self, tmp_path):
        grid = SIM_CONFIG.replace("m = 4", "m = 4,6").replace(
            "rho_list = 0.0,0.5", "rho_list = 0.5").replace(
            "scenario = S4", "scenario = S1,S4")
        config = tmp_path / "grid.cfg"
        config.write_text(grid)
        out = tmp_path / "grid.csv"
        assert main(["simulate", "--config", str(config),
                     "--output", str(out)]) == 0
        rows = read_csv(out)
        assert [(r["m"], r["scenario"], r["procedure"]) for r in rows] == [
            (m, scenario, proc) for m in ("4", "6") for scenario in ("S1", "S4")
            for proc in ("holm", "whp", "wap")]
        # each cell prints what a one-value config for that cell prints
        for k, (m, scenario) in enumerate([("4", "S1"), ("4", "S4"),
                                           ("6", "S1"), ("6", "S4")]):
            config.write_text(grid.replace("m = 4,6", f"m = {m}").replace(
                "scenario = S1,S4", f"scenario = {scenario}"))
            cell = tmp_path / "cell.csv"
            main(["simulate", "--config", str(config), "--output", str(cell)])
            assert read_csv(cell) == rows[3 * k:3 * k + 3]

    def test_empty_list_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "grid.cfg"
        config.write_text(SIM_CONFIG.replace("scenario = S4", "scenario = ,"))
        assert main(["simulate", "--config", str(config)]) == 2
        assert "scenario: no values" in capsys.readouterr().err

    @pytest.mark.parametrize("m, pi0, m0", [(1, "1e-10", 0),
                                            (1, "0.9999999999", 1)])
    def test_no_true_or_no_false_null_is_data_error(self, tmp_path, capsys,
                                                    m, pi0, m0):
        config = tmp_path / "grid.cfg"
        config.write_text(SIM_CONFIG.replace("m = 4", f"m = {m}").replace(
            "pi0 = 0.5", f"pi0 = {pi0}"))
        assert main(["simulate", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"at least one true and one false null: m0 = {m0} of m = {m}"
                in captured.err)

    @pytest.mark.parametrize("mu_alt", ["nan", "inf", "-inf"])
    def test_non_finite_mu_alt_is_data_error(self, tmp_path, capsys, mu_alt):
        # refused while the config is read, before the table is opened
        config = tmp_path / "grid.cfg"
        config.write_text(SIM_CONFIG.replace("mu_alt = 0.7",
                                             f"mu_alt = {mu_alt}"))
        assert main(["simulate", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"mu_alt must be finite: {float(mu_alt)}" in captured.err

    def test_mu_alt_whose_sum_overflows_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "grid.cfg"
        config.write_text(SIM_CONFIG.replace("mu_alt = 0.7", "mu_alt = 1e308")
                          .replace("n = 15", "n = 5").replace("reps = 50",
                                                              "reps = 10"))
        assert main(["simulate", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mu_alt = 1e+308, n = 5" in captured.err

    def test_seed_override_changes_results(self, tmp_path):
        config = tmp_path / "grid.cfg"
        config.write_text(SIM_CONFIG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", str(config), "--output", str(a)])
        main(["simulate", "--config", str(config), "--output", str(b),
              "--seed", "12"])
        assert a.read_bytes() != b.read_bytes()

    def test_missing_key_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "grid.cfg"
        config.write_text("m = 4\n")
        assert main(["simulate", "--config", str(config)]) == 2
        assert "missing keys" in capsys.readouterr().err

    def test_stdout_is_byte_identical_to_golden(self, tmp_path, capsys):
        config = tmp_path / "grid.cfg"
        config.write_text(SIM_CONFIG)
        assert main(["simulate", "--config", str(config)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == SIMULATE_SHA256


class TestSharpness:
    def test_whp_line(self, capsys):
        code = main(["sharpness", "--procedure", "whp",
                     "--weights", "1,2,3", "--reps", "2000", "--seed", "5"])
        assert code == 0
        line = capsys.readouterr().out
        assert line.startswith("procedure=whp fwer=")
        assert "seed=5" in line

    def test_whp_line_is_byte_identical_to_golden(self, capsys):
        assert main(["sharpness", "--procedure", "whp", "--weights", "1,2,3",
                     "--reps", "2000", "--seed", "5"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == SHARPNESS_SHA256

    def test_wap_ratio_violation_is_data_error(self, capsys):
        code = main(["sharpness", "--procedure", "wap",
                     "--weights", "1,100", "--reps", "100", "--seed", "5"])
        assert code == 2
        assert "min(w)/max(w)" in capsys.readouterr().err

    def test_nonfinite_weight_is_data_error(self, capsys):
        code = main(["sharpness", "--procedure", "whp",
                     "--weights", "1,nan", "--reps", "100", "--seed", "5"])
        assert code == 2
        assert "at index 1" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", ["1e-320,1", "1e-310,1e-310"])
    def test_weight_with_overflowing_reciprocal_is_data_error(self, weights,
                                                              capsys):
        assert main(["sharpness", "--procedure", "whp", "--weights", weights,
                     "--reps", "10", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reciprocal overflows at index 0" in captured.err

    def test_missing_seed_is_usage_error(self):
        assert main(["sharpness", "--procedure", "whp",
                     "--weights", "1,2"]) == 1


class TestCheck:
    def test_small_battery_passes(self, capsys):
        code = main(["check", "--trials", "500", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("seed", sorted(CHECK_SHA256))
    def test_stdout_is_byte_identical_to_golden(self, seed, capsys):
        assert main(["check", "--trials", "2000", "--seed", str(seed)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == CHECK_SHA256[seed]

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_usage_error(self, trials, capsys):
        assert main(["check", "--trials", trials, "--seed", "3"]) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "--trials must be at least 1" in captured.err

    def test_failure_exits_3_and_prints_the_first_witness(self, monkeypatch,
                                                          capsys):
        # the stacked monotonicity property: one counterexample (or None)
        # per problem of a stack of same-size problems
        class Failing(ClosedStack):
            @property
            def monotonicity_counterexamples(self):
                return ([None if self.m < 3 else (3, 1, 0, 1.0, 0.5)]
                        * len(self.rejections))

        monkeypatch.setattr(battery, "ClosedStack", Failing)
        assert main(["check", "--trials", "50", "--seed", "3"]) == 3
        out = capsys.readouterr().out.splitlines()
        corpus = random_corpus(50, seed=3)
        violating = [problem for problem in corpus if problem.m >= 3]
        [failed] = [r for r in battery.check_properties(corpus) if not r.passed]
        assert failed.witness is violating[0]
        k = out.index("FAIL monotonicity-whp: "
                      f"{len(violating)} violations over 50 problems")
        # the witness line replays to the problem, p-values and all
        assert eval(out[k + 1].removeprefix("  witness: "),
                    {"TestingProblem": battery.TestingProblem}) == violating[0]
        # the WAP search passes with a witness pair, which is not printed
        assert out[k + 2:] == [
            "PASS pvalue-monotonicity-violation-wap: counterexample found",
            "PASS pvalue-monotonicity-whp: no violation found",
            "CHECK FAILURES PRESENT (trials=50, seed=3)"]


class TestErrorHandling:
    def test_missing_input_file(self, tmp_path, capsys):
        # a usage error like any other: the usage line, then the error
        for argv in (["adjust", "--input", str(tmp_path / "nope.csv"),
                      "--alpha", "0.05"],
                     ["simulate", "--config", str(tmp_path / "nope.cfg")]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            usage, error = captured.err.splitlines()[-2:]
            assert usage.startswith("usage: wholm ")
            assert error == f"error: no such file: {argv[2]}"

    def test_alpha_out_of_range(self, problem_file):
        assert main(["adjust", "--input", problem_file,
                     "--alpha", "1.5"]) == 1

    def test_empty_csv_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("hypothesis,p_value,weight\n")
        assert main(["adjust", "--input", str(path), "--alpha", "0.05"]) == 2

    def test_malformed_pvalue_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("hypothesis,p_value,weight\nH1,oops,1.0\n")
        assert main(["adjust", "--input", str(path), "--alpha", "0.05"]) == 2

    def test_field_over_the_csv_limit_is_data_error(self, tmp_path, capsys):
        # the csv module refuses a field over 131,072 characters
        path = tmp_path / "huge.csv"
        path.write_text("hypothesis,p_value,weight\nH1,0.01,1.0\n"
                        + "H" * 131_073 + ",0.02,1.0\n")
        for argv in (["adjust"], ["ctp", "--procedure", "whp"],
                     ["graph", "--ordering", "weighted",
                      "--output-dir", str(tmp_path / "out")]):
            assert main(argv + ["--input", str(path), "--alpha", "0.05"]) == 2
            err = capsys.readouterr().err
            assert err == (f"error: {path}: row 3: field larger than field "
                           "limit (131072)\n")

    def test_duplicate_label_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("hypothesis,p_value,weight\nH1,0.01,1.0\nH1,0.02,1.0\n")
        assert main(["adjust", "--input", str(path), "--alpha", "0.05"]) == 2
        assert "duplicate hypothesis label: H1" in capsys.readouterr().err

    def test_no_subcommand(self):
        assert main([]) == 1

    @pytest.mark.parametrize("argv", [
        "sharpness --procedure whp --weights 1,2 --reps 0 --seed 5",
        "sharpness --procedure whp --weights 1,2 --seed -1",
        "check --trials 10 --seed -1", "simulate --config c.cfg --seed -1"])
    def test_integer_below_its_minimum_is_usage_error(self, argv, capsys):
        assert main(argv.split()) == 1
        assert "must be at least" in capsys.readouterr().err

    def test_malformed_weights_is_usage_error(self, capsys):
        assert main(["sharpness", "--procedure", "whp", "--weights", "1,x",
                     "--reps", "10", "--seed", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--weights" in captured.err

    def test_empty_weights_is_data_error(self, capsys):
        assert main(["sharpness", "--procedure", "wap", "--weights", ",",
                     "--reps", "10", "--seed", "5"]) == 2
        assert "nonempty" in capsys.readouterr().err

    def test_repeated_calls_share_one_parser(self, problem_file, capsys):
        # main builds its parser once; a usage error or another subcommand's
        # flags in between must leave the next call's output unchanged
        adjust = ["adjust", "--input", problem_file, "--alpha", "0.05"]
        full = adjust + ["--precision", "full"]
        calls = [adjust, adjust[:-1], full, ["check", "--trials", "0",
                                             "--seed", "1"],
                 adjust, ["adjust", "--input", problem_file, "--alpha", "x"],
                 full, ["--version"], adjust]
        outputs = []
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            outputs.append((code, captured.out, captured.err))
        first_adjust, first_full = outputs[0], outputs[2]
        assert first_adjust[0] == 0 and first_adjust[1] != first_full[1]
        assert outputs[4] == outputs[8] == first_adjust
        assert outputs[6] == first_full
        for k in (1, 3, 5):
            assert outputs[k][0] == 1 and outputs[k][2].startswith("usage: wholm")
        assert outputs[7][:2] == (0, f"{__version__}\n")


# Run in a fresh interpreter by `TestStartup`: after importing wholm and after
# each command, whether `scipy.special` is loaded, with the command's exit
# code, as one JSON list.
STARTUP_SCRIPT = """
import contextlib, io, json, sys
problem, config, outdir = sys.argv[1:]
steps = []
import wholm, wholm.cli
steps.append(["import", 0, "scipy.special" in sys.modules])
problem_flags = ["--input", problem, "--alpha", "0.05"]
for argv in (["adjust", *problem_flags],
             ["ctp", "--procedure", "whp", *problem_flags],
             ["graph", "--ordering", "weighted", "--output-dir", outdir,
              *problem_flags],
             ["sharpness", "--procedure", "whp", "--weights", "1,2,3",
              "--reps", "500", "--seed", "5"],
             ["check", "--trials", "2000", "--seed", "7"],
             ["simulate", "--config", config]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = wholm.cli.main(argv)
    steps.append([argv[0], code, "scipy.special" in sys.modules])
print(json.dumps(steps))
"""


class TestStartup:
    def test_only_simulate_loads_scipy(self, problem_file, tmp_path):
        # scipy serves only the Monte Carlo t tail; a fresh interpreter
        # running the wholm imported here loads it first in `simulate`
        config = tmp_path / "cell.cfg"
        config.write_text(SIM_CONFIG.replace("rho_list = 0.0,0.5",
                                             "rho_list = 0.5"))
        src = Path(wholm.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", STARTUP_SCRIPT, problem_file, str(config),
             str(tmp_path / "graph")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [
            ["import", 0, False], ["adjust", 0, False], ["ctp", 0, False],
            ["graph", 0, False], ["sharpness", 0, False], ["check", 0, False],
            ["simulate", 0, True]]
