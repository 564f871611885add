"""Self-test of the output checks: each checker passes a right output and
counts one deliberately wrong output as failed, so no check passes
vacuously.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import wholm  # noqa: E402
import wholm.cli  # noqa: E402

import checks  # noqa: E402
from workloads import ALPHA, draw_problem  # noqa: E402

WORK = ROOT / ".bench_out" / "selftest"


def _problem():
    """A problem on which both step-downs reject something."""
    p, w = draw_problem(np.random.default_rng(3), 6, 0.5)
    problem = wholm.validate_problem([f"H{i + 1}" for i in range(6)], p, w, ALPHA)
    assert wholm.wap_stepdown(problem).rejected
    return problem


def _write_csv(problem):
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    path = WORK / "problem.csv"
    lines = ["hypothesis,p_value,weight"] + [
        f"{label},{p!r},{w!r}"
        for label, p, w in zip(problem.labels, problem.p, problem.w)]
    path.write_text("\n".join(lines) + "\n")
    return path


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return wholm.cli.main([str(a) for a in argv])


def test_simulation_cell():
    config = wholm.SimulationConfig(
        m=5, pi0=0.4, rho=0.0, n=15, mu_alt=0.7, alpha=ALPHA, reps=50,
        weight_scenario=wholm.WeightScenario.S1, seed=1)
    result = wholm.run_simulation(config)
    assert checks.simulation_cell(result, ALPHA) == []
    whp = result.records[wholm.Procedure.WHP]
    records = dict(result.records)
    records[wholm.Procedure.WAP] = dataclasses.replace(
        records[wholm.Procedure.WAP], fwer=whp.fwer + 0.02)
    assert checks.simulation_cell(
        dataclasses.replace(result, records=records), ALPHA)
    assert checks.simulation_cell(
        dataclasses.replace(result, resampled=1), ALPHA)


def test_sharpness():
    estimate = wholm.estimate_sharpness(
        wholm.Procedure.WAP, [1.0, 2.0, 3.0], 3, 2000,
        np.random.default_rng(1), alpha=ALPHA)
    assert checks.sharpness(estimate, ALPHA) == []
    assert checks.sharpness(dataclasses.replace(estimate, fwer=0.1), ALPHA)


def test_battery_failed_and_missing_checks():
    results = [wholm.battery.CheckResult(name, True)
               for name in sorted(checks.BATTERY_CHECKS)]
    assert checks.battery(results) == []
    failed = [dataclasses.replace(r, passed=False)
              if r.name == "consonance-wap" else r for r in results]
    assert checks.battery(failed)
    assert checks.battery([r for r in results
                           if r.name != "ctp-equivalence-whp"])


def test_battery_runs_every_check():
    """The battery at a small budget reports every check the checker
    requires (the WAP witness search may miss at this budget)."""
    names = {r.name for r in wholm.battery.run_check_battery(30, 1)}
    assert names == checks.BATTERY_CHECKS


def test_ctp_report_flipped_decision():
    problem = _problem()
    whp = wholm.whp_stepdown(problem).rejected
    report = wholm.ctp(problem, wholm.whp_local_test)
    assert checks.ctp_report(report, problem.m, whp) == []
    # accepting a rejected hypothesis' singleton must un-reject it in the
    # closure, while the report still claims it
    decisions = dict(report.local_decisions)
    decisions[1 << min(whp)] = False
    flipped = dataclasses.replace(report, local_decisions=decisions)
    assert checks.ctp_report(flipped, problem.m, whp)
    missing = dict(report.local_decisions)
    del missing[1 << min(whp)]
    assert checks.ctp_report(
        dataclasses.replace(report, local_decisions=missing), problem.m, whp)
    dropped = dataclasses.replace(
        report.elementary_rejections,
        rejected=report.elementary_rejections.rejected - {min(whp)})
    assert checks.ctp_report(
        dataclasses.replace(report, elementary_rejections=dropped),
        problem.m, whp)


def test_holds():
    problem = _problem()
    report = wholm.check_consonance(problem, wholm.wap_local_test)
    assert checks.holds(report) == []
    assert checks.holds(dataclasses.replace(report, holds=False))


def test_graphical_dropped_rejection():
    problem = _problem()
    stepdown = wholm.wap_stepdown(problem)
    rejections, trace = wholm.run_graphical(problem, wholm.OrderingKey.RAW)
    assert checks.graphical((rejections, trace), stepdown) == []
    dropped = dataclasses.replace(
        rejections, rejected=frozenset(i for _, i, _ in rejections.trace[:-1]),
        trace=rejections.trace[:-1])
    assert checks.graphical((dropped, trace), stepdown)
    assert checks.graphical(
        (rejections, dataclasses.replace(trace, steps=trace.steps[:-1])),
        stepdown)


def test_cli_adjust_flipped_reject_whp():
    problem = _problem()
    path = _write_csv(problem)
    out = WORK / "adjust.csv"
    code = _cli("adjust", "--input", path, "--alpha", ALPHA,
                "--precision", "full", "--output", out)
    text = out.read_text()
    whp = wholm.whp_stepdown(problem).rejected
    wap = wholm.wap_stepdown(problem).rejected
    assert checks.cli_adjust(code, text, problem, whp, wap, True) == []
    lines = text.splitlines()
    first = min(whp) + 1
    fields = lines[first].split(",")
    fields[5] = "false"
    lines[first] = ",".join(fields)
    assert checks.cli_adjust(code, "\n".join(lines), problem, whp, wap, True)
    assert checks.cli_adjust(2, text, problem, whp, wap, True)


def test_cli_ctp_flipped_mask():
    problem = _problem()
    path = _write_csv(problem)
    out = WORK / "ctp.csv"
    code = _cli("ctp", "--input", path, "--alpha", ALPHA,
                "--procedure", "whp", "--output", out)
    text = out.read_text()
    whp = wholm.whp_stepdown(problem).rejected
    assert checks.cli_ctp(code, text, problem.m, whp) == []
    # the singleton of a rejected hypothesis is locally rejected; accepting
    # it must un-reject that hypothesis in the closure
    mask = 1 << min(whp)
    flipped = text.replace(f"\n{mask},true\n", f"\n{mask},false\n")
    assert flipped != text
    assert checks.cli_ctp(code, flipped, problem.m, whp)
    missing_row = text.replace(f"\n{mask},true\n", "\n")
    assert checks.cli_ctp(code, missing_row, problem.m, whp)


def test_cli_graph_dropped_rejection():
    problem = _problem()
    path = _write_csv(problem)
    outdir = WORK / "graph"
    code = _cli("graph", "--input", path, "--alpha", ALPHA,
                "--ordering", "weighted", "--output-dir", outdir)
    files = {f.name: f.read_text() for f in outdir.iterdir()}
    stepdown = wholm.whp_stepdown(problem)
    assert checks.cli_graph(code, files, problem.labels, stepdown) == []
    dropped = dict(files)
    dropped["rejections.csv"] = "".join(
        files["rejections.csv"].splitlines(keepends=True)[:-1])
    assert checks.cli_graph(code, dropped, problem.labels, stepdown)
    missing_stage = dict(files)
    del missing_stage["stage_1.dot"]
    assert checks.cli_graph(code, missing_stage, problem.labels, stepdown)


def test_runner_counts_wrong_and_raising_ops():
    from run import Runner
    from workloads import Op
    estimate = wholm.estimate_sharpness(
        wholm.Procedure.WHP, [1.0, 2.0, 3.0], 3, 2000,
        np.random.default_rng(1), alpha=ALPHA)
    wrong = dataclasses.replace(estimate, fwer=0.2)

    def raises():
        raise ValueError("bad input")

    def check(r):
        return checks.sharpness(r, ALPHA)

    runner = Runner()
    runner.run_pass(1, [Op("sharpness", lambda: estimate, check),
                        Op("sharpness", lambda: wrong, check),
                        Op("sharpness", raises, check)])
    assert runner.attempted == 3
    assert [index for _, index, _, _ in runner.failures] == [1, 2]

