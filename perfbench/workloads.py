"""The workloads: op schedules and the seeded inputs they run on.

A workload is a fixed schedule of ops, repeated in passes.  The schedule
(which function, at which size) is the same for every seed and every pass,
so two runs measure the same mix; the seed and the pass number only choose
the data.  Inputs come from numpy generators seeded here, never from
`wholm`'s own corpus helpers, so a change to the program cannot change what
it is measured on.  No input is kept or dropped on whether it passes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import shutil
from dataclasses import dataclass
from typing import Any, Callable, List

import numpy as np

import checks

ALPHA = 0.05
# Share of hypotheses carrying a signal, cycled over the problems of a pass
# so some step-down and graphical loops run to full depth and others stop at
# rank 1.
SIGNAL_SHARES = (0.0, 0.25, 0.5, 0.75, 1.0)
# Mean z-score of a signal; nulls have mean 0, so their p-values are uniform.
SIGNAL_Z = 8.0


def _identity(result):
    return result


@dataclass(frozen=True)
class Op:
    """One timed call into wholm.

    `call` is timed.  `read` turns its return value into the output to check
    (for the CLI, the files it wrote) and `check` lists what is wrong with
    that output; both run outside the timed region.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], List[str]]
    read: Callable[[Any], Any] = _identity


# one independent random stream per use, so adding ops of one kind never
# shifts the inputs of another
_STREAMS = {name: i for i, name in enumerate(
    ("simulate", "sharpness", "oracle", "files"))}


def _gen(seed, stream, *path):
    entropy = [seed % 2 ** 64, _STREAMS[stream], *path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _call_seed(gen):
    return int(gen.integers(2 ** 31))


def draw_problem(gen, m, signal_share):
    """Continuous one-sided z-test p-values and U(0.5, 5) weights."""
    z = gen.standard_normal(m)
    signals = gen.permutation(m)[:round(signal_share * m)]
    z[signals] += SIGNAL_Z
    p = [0.5 * math.erfc(zi / math.sqrt(2.0)) for zi in z]
    w = gen.uniform(0.5, 5.0, size=m).tolist()
    return p, w


def _labels(m):
    return [f"H{i + 1}" for i in range(m)]


class McStudy:
    """The paper's FWER/power study plus least-favorable sharpness runs."""

    name = "mc-study"
    pass_seconds = 1.5
    REPS = 100
    SHARPNESS_REPS = 2000
    SHARPNESS_EVERY = 10
    SHARPNESS_M0 = (3, 5, 7, 9, 10)

    def __init__(self, wholm, seed, workdir):
        self.W, self.seed = wholm, seed
        self.cells = list(itertools.product(
            (5, 10, 20), (0.4, 0.8), (0.0, 0.5), tuple(wholm.WeightScenario)))

    def pass_ops(self, k):
        W = self.W
        ops = []
        sharp = 0
        for i, (m, pi0, rho, scenario) in enumerate(self.cells):
            config = W.SimulationConfig(
                m=m, pi0=pi0, rho=rho, n=15, mu_alt=0.7, alpha=ALPHA,
                reps=self.REPS, weight_scenario=scenario,
                seed=_call_seed(_gen(self.seed, "simulate", k, i)))
            ops.append(Op("simulate", lambda c=config: W.run_simulation(c),
                          lambda r: checks.simulation_cell(r, ALPHA)))
            if len(ops) % self.SHARPNESS_EVERY == self.SHARPNESS_EVERY - 1:
                ops.append(self._sharpness_op(k, sharp))
                sharp += 1
        return ops

    def _sharpness_op(self, k, j):
        W = self.W
        m0 = self.SHARPNESS_M0[j % len(self.SHARPNESS_M0)]
        procedure = (W.Procedure.WHP, W.Procedure.WAP)[j % 2]
        gen = _gen(self.seed, "sharpness", k, j)
        # min(w) / max(w) >= 0.1 > alpha, where WAP's bound is attained
        weights = gen.uniform(1.0, 10.0, size=m0)
        call_seed = _call_seed(gen)
        return Op("sharpness",
                  lambda: W.estimate_sharpness(
                      procedure, weights, m0, self.SHARPNESS_REPS,
                      np.random.default_rng(call_seed), alpha=ALPHA),
                  lambda r: checks.sharpness(r, ALPHA))


class CliFiles:
    """In-process `wholm` CLI calls over problem CSVs, with fresh problems
    written before every pass."""

    name = "cli-files"
    pass_seconds = 1.8
    # (m, files): skewed toward small m, so that both the per-call overhead
    # of small files and the per-hypothesis cost of large ones hold a share
    # of the pass time (see the README for the measured shares)
    FILE_SIZES = ((5, 8), (10, 6), (30, 4), (100, 3), (1000, 2), (10000, 1))
    # `ctp` enumerates 2^m subsets, so it stops at small m.  `graph` writes
    # O(m^3) bytes of DOT (13 MB at m = 100), so it stops at m = 30; below
    # that a call is mostly the creation of a few small files, whose cost
    # swung by 2x with the file system's state on the reference machine, so
    # `graph` runs on the m = 30 files only.
    CTP_MAX_M = 12
    GRAPH_M = 30

    def __init__(self, wholm, seed, workdir):
        self.W, self.seed, self.workdir = wholm, seed, workdir
        self.sizes = [m for m, count in self.FILE_SIZES for _ in range(count)]

    def write_files(self, k, inputs):
        """Draw pass k's problems and write them as CSVs (untimed)."""
        gen = _gen(self.seed, "files", k)
        files = []
        for j, m in enumerate(self.sizes):
            p, w = draw_problem(gen, m, SIGNAL_SHARES[j % len(SIGNAL_SHARES)])
            path = inputs / f"problem{j}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["hypothesis", "p_value", "weight"])
                writer.writerows(zip(_labels(m), map(repr, p), map(repr, w)))
            files.append((path, p, w))
        return files

    def _main(self, argv):
        return lambda: self.W.cli.main(argv)

    def _main_stdout(self, argv):
        """The call, with the CSV it prints to stdout as its output."""
        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.W.cli.main(argv)
            return code, out.getvalue()
        return call

    def pass_ops(self, k):
        # Every pass reads and writes files of its own, and the previous
        # pass's files go once it is over: truncating files in place, or
        # letting every pass's output pile up, made the file system stall
        # the CLI calls in phases of seconds on the reference machine.
        shutil.rmtree(self.workdir / f"pass{k - 1}", ignore_errors=True)
        inputs = self.workdir / f"pass{k}" / "inputs"
        outputs = self.workdir / f"pass{k}" / "outputs"
        inputs.mkdir(parents=True, exist_ok=True)
        outputs.mkdir(exist_ok=True)
        files = self.write_files(k, inputs)
        expected = _Expected(self.W, files)
        ops = []
        alpha = ["--alpha", repr(ALPHA)]
        for j, (path, p, _) in enumerate(files):
            for precision in ("table", "full"):
                argv = ["adjust", "--input", str(path), *alpha,
                        "--precision", precision]
                ops.append(Op("cli-adjust", self._main_stdout(argv),
                              expected.adjust_check(j, precision == "full")))
        for j, (path, p, _) in enumerate(files):
            if len(p) <= self.CTP_MAX_M:
                procedure = ("whp", "wap")[j % 2]
                argv = ["ctp", "--input", str(path), *alpha,
                        "--procedure", procedure]
                ops.append(Op("cli-ctp", self._main_stdout(argv),
                              expected.ctp_check(j, procedure)))
        for j, (path, p, _) in enumerate(files):
            if len(p) == self.GRAPH_M:
                ordering = ("weighted", "raw")[j % 2]
                outdir = outputs / f"graph{j}"
                argv = ["graph", "--input", str(path), *alpha,
                        "--ordering", ordering, "--output-dir", str(outdir)]
                ops.append(Op("cli-graph", self._main(argv),
                              expected.graph_check(j, ordering),
                              _read_dir(outdir)))
        return ops


class _Expected:
    """The library's problem and step-downs for each file of one pass, the
    reference the CLI outputs are checked against."""

    def __init__(self, wholm, files):
        self.W, self.files = wholm, files
        self._cache = {}

    def __call__(self, j):
        if j not in self._cache:
            _, p, w = self.files[j]
            problem = self.W.validate_problem(_labels(len(p)), p, w, ALPHA)
            self._cache[j] = (problem, self.W.whp_stepdown(problem),
                              self.W.wap_stepdown(problem))
        return self._cache[j]

    def adjust_check(self, j, full):
        def check(output):
            code, text = output
            problem, whp, wap = self(j)
            return checks.cli_adjust(code, text, problem, whp.rejected,
                                     wap.rejected, full)
        return check

    def ctp_check(self, j, procedure):
        def check(output):
            code, text = output
            problem, whp, wap = self(j)
            stepdown = whp if procedure == "whp" else wap
            return checks.cli_ctp(code, text, problem.m, stepdown.rejected)
        return check

    def graph_check(self, j, ordering):
        def check(output):
            code, files = output
            problem, whp, wap = self(j)
            stepdown = whp if ordering == "weighted" else wap
            return checks.cli_graph(code, files, problem.labels, stepdown)
        return check


class OracleCheck:
    """The property battery, closed testing with consonance and
    monotonicity, and the graphical loop, each checked against the
    step-downs."""

    name = "oracle-check"
    pass_seconds = 4.0
    # `trials` is both the battery's corpus size and the budget of its WAP
    # witness search.  Over 300 seeds that search needed a median of 67
    # trials and at most 433 (about 1.1% of trials hit), so 200 trials would
    # report a FAIL on about 11% of seeds.  2000 trials miss with
    # probability about 1e-9: the budget is set far above the evidence, not
    # tuned to hide a failure.
    BATTERY_TRIALS = 2000
    # closed testing and consonance enumerate 2^m subsets; monotonicity is
    # capped at m = 12 by the library
    CTP_SIZES = (10, 11, 12, 13, 14)
    MONOTONICITY_MAX_M = 12
    GRAPH_SIZES = (20, 30, 40, 50, 60)

    def __init__(self, wholm, seed, workdir):
        self.W, self.seed = wholm, seed

    def pass_ops(self, k):
        W = self.W
        gen = _gen(self.seed, "oracle", k)
        battery_seed = _call_seed(gen)
        ops = [Op("battery",
                  lambda: W.battery.run_check_battery(self.BATTERY_TRIALS,
                                                      battery_seed),
                  checks.battery)]
        for j, m in enumerate(self.CTP_SIZES):
            problem = self._problem(gen, m, j)
            for test, procedure in ((W.whp_local_test, W.Procedure.WHP),
                                    (W.wap_local_test, W.Procedure.WAP)):
                stepdown = _stepdown(W, procedure)
                ops.append(Op("ctp", lambda P=problem, t=test: W.ctp(P, t),
                              lambda r, P=problem, s=stepdown:
                              checks.ctp_report(r, P.m, s(P).rejected)))
                ops.append(Op("consonance",
                              lambda P=problem, t=test:
                              W.check_consonance(P, t),
                              checks.holds))
            if m <= self.MONOTONICITY_MAX_M:
                ops.append(Op("monotonicity",
                              lambda P=problem: W.check_monotonicity_condition(
                                  P, W.Procedure.WHP),
                              checks.holds))
        for j, m in enumerate(self.GRAPH_SIZES):
            problem = self._problem(gen, m, j)
            for ordering, procedure in (
                    (W.OrderingKey.WEIGHTED, W.Procedure.WHP),
                    (W.OrderingKey.RAW, W.Procedure.WAP)):
                stepdown = _stepdown(W, procedure)
                ops.append(Op("graphical",
                              lambda P=problem, o=ordering:
                              W.run_graphical(P, o),
                              lambda r, P=problem, s=stepdown:
                              checks.graphical(r, s(P))))
        return ops

    def _problem(self, gen, m, j):
        p, w = draw_problem(gen, m, SIGNAL_SHARES[j % len(SIGNAL_SHARES)])
        return self.W.validate_problem(_labels(m), p, w, ALPHA)


def _stepdown(wholm, procedure):
    return {wholm.Procedure.WHP: wholm.whp_stepdown,
            wholm.Procedure.WAP: wholm.wap_stepdown}[procedure]


def _read_dir(path):
    def read(code):
        files = {}
        if code == 0:
            files = {f.name: f.read_text(encoding="utf-8")
                     for f in sorted(path.iterdir())}
        return code, files
    return read


WORKLOADS = {w.name: w for w in (McStudy, CliFiles, OracleCheck)}
