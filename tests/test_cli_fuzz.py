"""The CLI's exit-code contract, checked on generated argv and input files.

Hypothesis draws each subcommand's flags, over values their argparse types
accept and refuse, and its input file: problem CSVs with or without a byte
order mark, with blank rows, whitespace around cells, quoted labels and
extreme literals, and simulate configs over the same literals.  Sizes stay
small (m <= 6, reps <= 50, n <= 5, trials <= 50), and the runs are
derandomized with a fixed number of examples, so the test is deterministic.
Every run calls `cli.main` in this process with every warning raised as an
error, and must keep the contract:

- the exit code is 0, 1 or 2, and no exception or warning escapes: exit 3,
  a property failure, would be a defect of the library, so `check` passes
  every line at every number of trials;
- on exit 1 or 2, stdout is empty;
- on exit 0, the output is consistent: an adjusted value is at most alpha
  iff its reject column is true, `ctp` lists every nonempty mask once,
  `graph` writes one stage more than it rejects, FWER and power lie in
  [0, 1], WAP's FWER and power do not exceed WHP's, and `check` passes
  every line.

One defect is known and not mended (ROADMAP item 9): on a problem where
some (p/w) * total overflows, the capped products of `adjust` and `ctp`
warn.  A run that fails with that warning on such a problem is counted as
that defect, not as a break of the contract; its shrunk input is a strict
xfail of its own.
"""

import contextlib
import csv
import io
import math
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from wholm.cli import main
from wholm.core import load_problem_csv

# extreme and refused literals, which every number cell or flag may take
LITERALS = ["0", "-0", "1", "0.05", "0.5", "0.9999999999999999", "2", "-1",
            "1e-17", "1e-300", "7.7e-228", "1e-320", "5e-324", "1e308",
            "1.7976931348623157e308", "1.8e308", "inf", "-inf", "nan", "abc",
            ""]
literal = st.sampled_from(LITERALS)
p_value = st.one_of(st.floats(0.0, 1.0).map(repr), literal)
weight = st.one_of(st.floats(0.0, exclude_min=True,
                             allow_infinity=False).map(repr),
                   st.floats(0.5, 5.0).map(repr), literal)
alpha = st.one_of(st.floats(0.0, 1.0, exclude_min=True,
                            exclude_max=True).map(repr),
                  st.sampled_from(["0.05", "0.9999999999999999", "1e-320",
                                   "0", "1", "-0.1", "nan", "x"]))
padding = st.sampled_from(["", " ", "\t"])
# odd characters after a unique prefix, or alone, where two can clash
label = st.text(alphabet='Hab1_ ,"\\\n\u00e9', max_size=3)

FUZZ = settings(derandomize=True, max_examples=60, deadline=None,
                database=None)


@st.composite
def problem_csv(draw):
    """A problem CSV as bytes: a header, up to 6 rows of a label and two
    literals, blank rows between them and at times a row of another
    width."""
    out = io.StringIO()
    writer = csv.writer(out)
    pad = lambda text: draw(padding) + text + draw(padding)
    writer.writerow([pad("hypothesis"), "p_value", pad("weight")])
    for i in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 9)) == 0:
            out.write(draw(st.sampled_from(["\r\n", "  \r\n"])))
        name = draw(label)
        if draw(st.integers(0, 4)):
            name = f"H{i}{name}"
        cells = [pad(name), pad(draw(p_value)), pad(draw(weight))]
        if draw(st.integers(0, 19)) == 0:
            cells = cells[:draw(st.integers(1, 2))]
        writer.writerow(cells)
    bom = "﻿" if draw(st.booleans()) else ""
    return (bom + out.getvalue()).encode("utf-8")


@st.composite
def problem_run(draw, command):
    """argv of `adjust`, `ctp` or `graph` on a problem CSV, with `{input}`
    and `{dir}` for the file and the output directory."""
    argv = [command, "--input", "{input}", "--alpha", draw(alpha)]
    if command == "ctp":
        argv += ["--procedure", draw(st.sampled_from(["whp", "wap"]))]
    if command == "graph":
        argv += ["--ordering", draw(st.sampled_from(["weighted", "raw"])),
                 "--output-dir", "{dir}"]
    if command != "ctp" and draw(st.booleans()):
        argv += ["--precision", draw(st.sampled_from(["table", "full"]))]
    return argv, draw(problem_csv())


def _comma_list(values, max_size=2):
    return st.lists(st.sampled_from(values), min_size=1,
                    max_size=max_size).map(",".join)


@st.composite
def simulate_run(draw):
    """argv of `simulate` and its config file: every key with a value it
    accepts, and at times one key given a literal or dropped."""
    keys = {
        "m": st.lists(st.sampled_from(["2", "4", "6"]), min_size=1,
                      max_size=2).map(",".join),
        "pi0": st.just("0.5"),
        "rho_list": st.sampled_from(["0", "0.5", "0,0.9"]),
        "n": st.sampled_from(["2", "3", "5"]),
        "mu_alt": st.one_of(st.floats(-10.0, 10.0).map(repr), literal),
        "alpha": alpha,
        "reps": st.sampled_from(["1", "7", "50"]),
        "scenario": st.sampled_from(["S1", "S2", "S3", "S4", "S1,S4"]),
        "seed": st.sampled_from(["0", "1"]),
    }
    lines = [f"{key} = {draw(value)}" for key, value in keys.items()]
    if draw(st.integers(0, 2)) == 2:
        changed = draw(st.integers(0, len(lines) - 1))
        key = lines[changed].split(" = ")[0]
        lines[changed] = draw(st.sampled_from(
            [f"{key} = {draw(literal)}", f"{key} =", key, ""]))
    argv = ["simulate", "--config", "{input}"]
    if draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(["0", "3", "-1"]))]
    return argv, "\n".join(lines).encode("utf-8")


sharpness_run = st.builds(
    lambda procedure, weights, alpha, reps, seed: (
        ["sharpness", "--procedure", procedure, f"--weights={weights}",
         "--alpha", alpha, "--reps", reps, "--seed", seed], None),
    st.sampled_from(["whp", "wap"]),
    st.lists(weight, min_size=1, max_size=6).map(",".join), alpha,
    st.sampled_from(["1", "20", "50", "0"]), st.sampled_from(["0", "1", "-1"]))

check_run = st.builds(
    lambda trials, seed: (["check", "--trials", trials, "--seed", seed], None),
    st.sampled_from(["1", "10", "50", "0"]), st.sampled_from(["0", "2", "-1"]))

RUNS = {"adjust": problem_run("adjust"), "ctp": problem_run("ctp"),
        "graph": problem_run("graph"), "simulate": simulate_run(),
        "sharpness": sharpness_run, "check": check_run}


def _run(argv, content, tmp):
    """`cli.main(argv)` with `{input}` a file of `content` and `{dir}` an
    output directory under `tmp`, and every warning an error: the exit code,
    stdout and stderr."""
    path = Path(tmp) / "input"
    if content is not None:
        path.write_bytes(content)
    argv = [arg.format(input=path, dir=Path(tmp) / "out") for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _is_item_9(command, argv, content, warning):
    """Whether `warning` is ROADMAP item 9's: `adjust` or `ctp` warns that a
    product overflows, on a problem where some (p/w) * total overflows or
    comes within a millionth of it."""
    if (command not in ("adjust", "ctp")
            or str(warning) != "overflow encountered in multiply"):
        return False
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(content)
        problem = load_problem_csv(path, float(argv[argv.index("--alpha") + 1]))
    total = math.fsum(problem.w)
    return any(p / w * total > sys.float_info.max * (1.0 - 1e-6)
               for p, w in zip(problem.p, problem.w))


def _table(text):
    return list(csv.reader(io.StringIO(text)))


def _check_adjust(argv, stdout):
    level = float(argv[argv.index("--alpha") + 1])
    full = "full" in argv
    header, *rows = _table(stdout)
    assert header == ["hypothesis", "p_value", "weight", "adj_whp", "adj_wap",
                      "reject_whp", "reject_wap"]
    for row in rows:
        for value, flag in ((row[3], row[5]), (row[4], row[6])):
            adjusted = float(value)
            assert 0.0 <= adjusted <= 1.0
            assert flag in ("true", "false")
            if full:
                assert (adjusted <= level) == (flag == "true")
            else:
                # four decimals: within half a unit of the last one
                assert adjusted <= level + 5e-5 if flag == "true" else (
                    adjusted >= level - 5e-5)


def _check_ctp(stdout):
    header, *rows = _table(stdout)
    assert header == ["subset_bitmask", "rejected"]
    assert [int(mask) for mask, _ in rows] == list(range(1, len(rows) + 1))
    assert (len(rows) + 1) & len(rows) == 0
    assert {flag for _, flag in rows} <= {"true", "false"}


def _check_graph(stdout, tmp):
    out = Path(tmp) / "out"
    stages = int(stdout.split()[0])
    assert sorted(path.name for path in out.glob("stage_*.dot")) == sorted(
        f"stage_{k}.dot" for k in range(stages))
    header, *rows = _table((out / "rejections.csv").read_text("utf-8"))
    assert header == ["step", "hypothesis", "threshold"]
    assert [int(row[0]) for row in rows] == list(range(1, stages))


def _check_simulate(stdout):
    header, *rows = _table(stdout)
    assert header[:9] == ["procedure", "m", "pi0", "rho", "scenario", "fwer",
                          "fwer_se", "power", "power_se"]
    cells = {}
    for row in rows:
        fwer, power = float(row[5]), float(row[7])
        assert 0.0 <= fwer <= 1.0 and 0.0 <= power <= 1.0, row
        cells.setdefault(tuple(row[1:5]), {})[row[0]] = (fwer, power)
    for cell in cells.values():
        assert cell["wap"][0] <= cell["whp"][0], cell
        assert cell["wap"][1] <= cell["whp"][1], cell


def _check_sharpness(stdout):
    fields = dict(item.split("=") for item in stdout.split())
    assert 0.0 <= float(fields["fwer"]) <= 1.0


def _check_check(stdout):
    *lines, last = stdout.splitlines()
    assert all(line.startswith("PASS ") for line in lines), stdout
    assert last.startswith("all checks passed"), stdout


def _check_contract(command, argv, content):
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout, stderr = _run(argv, content, tmp)
        assert code in (0, 1, 2), (code, stdout, stderr)
        if code in (1, 2):
            assert stdout == "", (code, stdout)
            assert stderr, code
        elif command == "adjust":
            _check_adjust(argv, stdout)
        elif command == "ctp":
            _check_ctp(stdout)
        elif command == "graph":
            _check_graph(stdout, tmp)
        elif command == "simulate":
            _check_simulate(stdout)
        elif command == "sharpness":
            _check_sharpness(stdout)
        else:
            _check_check(stdout)
    return code


@pytest.mark.parametrize("command", list(RUNS))
@FUZZ
@given(data=st.data())
def test_the_exit_code_contract_holds(command, data):
    run = data.draw(RUNS[command])
    try:
        event(f"exit {_check_contract(command, *run)}")
    except RuntimeWarning as warning:
        if not _is_item_9(command, *run, warning):
            raise
        event("ROADMAP item 9: a capped product overflows")


ITEM_9_CSV = (b"hypothesis,p_value,weight\n"
              b"H1,0.05,1e-300\nH2,7.7e-228,1e-300\nH3,0.83,1e308\n")


@pytest.mark.xfail(strict=True, raises=RuntimeWarning, reason=(
    "(p/w) * tail overflows in the capped product of the adjusted values, "
    "which warns (ROADMAP item 9)"))
def test_an_overflowing_product_keeps_the_contract():
    _check_contract("adjust",
                    ["adjust", "--input", "{input}", "--alpha", "0.05"],
                    ITEM_9_CSV)
