import csv
import hashlib

import pytest

from wholm import MonotonicityReport, battery
from wholm.closure import random_corpus
from wholm.cli import main

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


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.csv"
    path.write_text(PROBLEM_CSV)
    return str(path)


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

    def test_rerun_is_byte_identical(self, problem_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["adjust", "--input", problem_file, "--alpha", "0.05",
              "--output", str(a)])
        main(["adjust", "--input", problem_file, "--alpha", "0.05",
              "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()


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

    def test_raw_ordering_no_rejections(self, problem_file, tmp_path):
        outdir = tmp_path / "stages"
        main(["graph", "--input", problem_file, "--alpha", "0.05",
              "--ordering", "raw", "--output-dir", str(outdir)])
        assert read_csv(outdir / "rejections.csv") == []


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


class TestSharpness:
    def test_whp_line(self, capsys):
        code = main(["sharpness", "--procedure", "whp",
                     "--weights", "1,2,3", "--reps", "2000", "--seed", "5"])
        assert code == 0
        line = capsys.readouterr().out
        assert line.startswith("procedure=whp fwer=")
        assert "seed=5" in line

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

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_usage_error(self, trials, capsys):
        assert main(["check", "--trials", trials, "--seed", "3"]) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "--trials must be at least 1" in captured.err

    def test_failure_exits_3_and_prints_the_first_witness(self, monkeypatch,
                                                          capsys):
        monkeypatch.setattr(battery, "check_monotonicity_condition",
                            lambda problem, procedure:
                            MonotonicityReport(holds=problem.m < 3))
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
        code = main(["adjust", "--input", str(tmp_path / "nope.csv"),
                     "--alpha", "0.05"])
        assert code == 1
        assert "no such file" in capsys.readouterr().err

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

    def test_empty_weights_is_data_error(self, capsys):
        assert main(["sharpness", "--procedure", "wap", "--weights", ",",
                     "--reps", "10", "--seed", "5"]) == 2
        assert "nonempty" in capsys.readouterr().err
