"""Per-layer timings of the decision, Monte Carlo, closed-testing and CLI layers.

    python3 bench/layers.py --against OTHER_CHECKOUT/src --label pairs --out BENCH_25.json
    python3 bench/layers.py --against src --label a-a --out A_A.json

Times two checkouts' packages, `--src` (this checkout's `src/` by default)
against `--against`, in pairs in this one process; the second line is an
A/A run of this checkout against itself.  The calls timed, with
`perf_counter`, one at a time:

- `t_sf` on a block of 100 rows of one-sample t statistics, half the
  columns null and the rest at mean 0.7 as in a `simulate` cell, at m = 5,
  10 and 20 with df = 14 and 15 and at m = 20 with df = 50, 51, 200 and
  201, per call;
- `run_simulation` at m = 10 and 20 (n = 15, reps = 100 and 2,000) and
  `estimate_sharpness` for WHP and WAP at m = 10 and 3 (reps = 20,000),
  per replicate, with weights evenly spaced over [1, 2];
- `closure.random_corpus(2000, m_max=8)`, per call;
- `battery.check_properties` on such a corpus, per problem, its two
  `graphical-equivalence-*` properties on their own over the same stacks
  (built untimed, as `check_properties` builds them, by `battery._stacks`),
  per problem, and `battery.run_check_battery(2000)`, per call;
- `closure.find_pvalue_monotonicity_violation` for WHP and WAP at 2,000
  trials, per call;
- `core.load_problem_csv` of a problem CSV (written untimed) at m = 10,000,
  `validate_problem` (from lists) at m = 1000, `whp_stepdown`,
  `holm_stepdown` (of a problem's p-values and alpha) and `adjusted_whp` at
  m = 10 and 1000, and `run_graphical` (weighted ordering)
  at m = 5 and 8 (the property battery's sizes) and 100, per call;
- `run_graphical` at the `oracle-check` workload's sizes m = 20 to 60, in
  both orderings, per call, on its kind of problem: one-sided z-test
  p-values with a share of signals (mean z = 8) cycled by seed through 0,
  1/4, 1/2, 3/4 and 1, and U(0.5, 5) weights;
- `run_graphical` (weighted ordering) and then a read of every step's
  `after`, at m = 30 and 60 on that kind of problem with every hypothesis
  a signal, per call: the graphs `dot_stages` and `cli.graph` read;
- `graphical.dot_stages` of a weighted-ordering run at m = 30, per call,
  which is `cli.graph`'s DOT text without its file writes (a side whose
  `dot_stages` still takes the initial graph as an argument gets it built
  untimed, so its row leaves out a cost the other side's row holds);
- `ctp` (WHP local test) and `check_consonance` (WAP local test) at m = 5,
  8, 14 and 16, both with each local test at m = 10, 12, 13 and 14
  (`oracle-check`'s median and top sizes), and
  `check_monotonicity_condition` (WHP) at m = 12, 16 and 20, per call;
- `ctp` (WHP local test) and then a read of every local decision,
  `list(report.local_decisions.items())`, at m = 14 and 16, per call;
- `closure.ClosedStack` for WHP and for WAP on a stack of 64 problems at
  m = 8, the battery's stack at that size, per call, with the stack's
  arrays built untimed and the stack ranked by `procedures.rank` in the
  call, and the stacked monotonicity read, the first read of
  `monotonicity_counterexamples` of a WHP `ClosedStack` of such a stack,
  built untimed for each call;
- `whp_local_test` and `wap_local_test` called directly on 1 and 1,000
  random masks at m = 16 and on 100,000 at m = 21, per call;
- the CLI, per call: `cli.build_parser` on its own, and in-process
  `cli.main` runs of `adjust` at m = 5, 1000 and 10,000 (at both
  precisions at 10,000) and `ctp --procedure whp` at
  m = 10 (stdout captured) and of `graph --ordering weighted` at m = 30
  (into a fresh output directory), each on a problem CSV written untimed,
  and of `check --trials 2000`, `simulate` on one cell (m = 10, n = 15,
  reps = 2,000, from a config file written untimed) and `sharpness
  --procedure whp` at m = 10 (reps = 20,000), stdout captured;
- start-up, per launch of a fresh interpreter with `PYTHONPATH` set to the
  side's `src` (the rest of the environment inherited): `python -c "import
  wholm.cli"`, `python -m wholm.cli adjust` at m = 5 and `python -m
  wholm.cli simulate` on one cell (m = 10, n = 15, reps = 100), stdout
  captured.
  The in-process rows cannot show import costs, since both sides of
  `--against` share one `sys.modules`.

Each size gets one untimed warm-up call per side and then `REPEATS` seeds;
inputs are built before the clock starts, and a full garbage collection
(`gc.collect()`) runs before every timed call.  Without it, a collection of
the many objects that earlier rows leave alive could land inside either
side's clock: `cli.adjust` at m = 10,000 read 0.83–1.31 on two A/A records
without it and 0.97–1.02 on three with it (2 shared cores).  The
collection leaves the caches cold, so a call of a few microseconds reads
several times what it does in a warm loop; compare ratios, not records
taken with and without it.  Records taken one after another
drift by more than most changes they are meant to show, so both packages
are loaded into this one process (as `wholm_src` and `wholm_against`), and
on every seed the two sides' calls on the same input are timed back to
back, the `--src` side first on odd seeds and second on even ones.  Each
row gives both sides' medians and quartiles of the time per unit in
microseconds, the median of the minor page faults (`ru_minflt`) per call,
read just outside each timed call, the median of the per-seed ratios
src / against and on how many of the `REPEATS` seeds the `--src` side was
faster.  The corpora of
`check_properties` and its graph properties are drawn once per seed, by
the `--src` side's `random_corpus`, and each side times its own
`TestingProblem`s of the same values, so the pair compares code, not
seeded streams.  The record is stored under `--label` in the JSON file
`--out`; records under other labels are kept.

Buffers past glibc's mmap threshold are mapped afresh on every call, and
the threshold moves up as such buffers are freed, so a row with large
tables would read what ran before it in the process.  Run as a script with
`MALLOC_MMAP_THRESHOLD_` unset, the bench re-executes itself with it fixed
at `MMAP_THRESHOLD` bytes, which turns that adjustment off; the value in
force is recorded in each side's `machine` block.  Fixing it turns off
glibc's dynamic trim threshold too, which then stays at its 128 KiB
default: a freed buffer that leaves more than that free at the top of the
heap is handed back to the system, so a call whose buffers pass it can
fault its pages in afresh every time, as far as what else the heap holds
allows, and the fault counts show it.  (Alone in a process, one-row `ctp`
faults about 96 times per call at m = 14 and 700 at m = 16 under this
setting, 96 and 480 under glibc's defaults, and none at either size with
`MALLOC_TRIM_THRESHOLD_` raised as well; in a full record, whose earlier
rows have grown the heap, most rows fault none.)  The setting is
kept so that records stay comparable.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib.util
import inspect
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from resource import RUSAGE_SELF, getrusage
from time import perf_counter

REPEATS = 21
# glibc's malloc reads this variable once, at start-up
MMAP_THRESHOLD_VARIABLE = "MALLOC_MMAP_THRESHOLD_"
MMAP_THRESHOLD = 64 << 20
SIMULATION_SIZES = [(m, reps) for m in (10, 20) for reps in (100, 2000)]
SHARPNESS_M, SHARPNESS_REPS = 10, 20_000
# m of the `estimate_sharpness` rows; at 3 its per-row read-out weighs most
SHARPNESS_SIZES = (SHARPNESS_M, 3)
# one `simulate` cell through the CLI
CLI_SIMULATE_M, CLI_SIMULATE_REPS = 10, 2000
# reps of the cell of the timed `python -m wholm.cli simulate` launch
LAUNCH_SIMULATE_REPS = 100
# rows of a `t_sf` block, and its (m, df) sizes: a `run_simulation` block
# at n = 15 and 16, and at m = 20 at two larger n of each parity
T_SF_ROWS = 100
T_SF_SIZES = ([(m, df) for df in (14, 15) for m in (5, 10, 20)]
              + [(20, df) for df in (50, 51, 200, 201)])
CORPUS_SIZE, CORPUS_M_MAX = 2000, 8
SEARCH_TRIALS = 2000
VALIDATE_M = 1000
LOAD_M = 10_000
KERNEL_SIZES = (10, 1000)
GRAPHICAL_SIZES = (5, 8, 100)
Z_GRAPHICAL_SIZES = (20, 30, 40, 50, 60)
# m of the `run_graphical` calls that read every step's graph
STEP_GRAPH_SIZES = (30, 60)
SIGNAL_SHARES = (0.0, 0.25, 0.5, 0.75, 1.0)
DOT_STAGES_M = 30
CLOSURE_SIZES = (5, 8, 14, 16)
# m of the `ctp` calls followed by a read of every local decision
FULL_READ_SIZES = (14, 16)
# m of the one-row `ctp` and `check_consonance` calls under both local tests
BOTH_TESTS_SIZES = (10, 12, 13, 14)
CLOSED_STACK_M, CLOSED_STACK_ROWS = 8, 64
MONOTONICITY_SIZES = (12, 16, 20)
# (m, number of masks) of the direct local-test calls
LOCAL_TEST_CALLS = ((16, 1), (16, 1000), (21, 100_000))
# m of the timed `python -m wholm.cli adjust` launch
LAUNCH_ADJUST_M = 5
# (subcommand, m, extra flags) of the timed in-process CLI calls
CLI_CALLS = (("adjust", 5, ()), ("adjust", 1000, ()), ("adjust", 10_000, ()),
             ("adjust", 10_000, ("--precision", "full")),
             ("ctp", 10, ("--procedure", "whp")),
             ("graph", 30, ("--ordering", "weighted")))


def summary(times, faults):
    """Median and (q1, q3) of per-unit times in microseconds, and the median
    of the minor page faults per call."""
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_us": median, "q1_us": q1, "q3_us": q3, "iqr_us": q3 - q1,
            "minor_faults": statistics.median(faults), "samples": len(times)}


def time_pair(makes, units):
    """Both sides' `summary` of the wall time of `make(seed)()` per unit,
    for `makes` = (src, against), over REPEATS seeds: `make(seed)` builds
    the input untimed and returns the call to time.  On every seed both
    sides' calls are timed, the src side first on odd seeds and second on
    even ones, each right after a full garbage collection, and the minor
    page faults of each call are counted just outside its clock.  Also
    gives the median of the per-seed ratios src / against and on how many
    seeds src was faster."""
    for make in makes:
        make(0)()
    times, faults = ([], []), ([], [])
    for seed in range(1, REPEATS + 1):
        for side in ((0, 1) if seed % 2 else (1, 0)):
            call = makes[side](seed)
            # else a collection of the objects that earlier rows and inputs
            # left lands inside whichever side's clock it falls in
            gc.collect()
            before = getrusage(RUSAGE_SELF).ru_minflt
            start = perf_counter()
            call()
            elapsed = perf_counter() - start
            faults[side].append(getrusage(RUSAGE_SELF).ru_minflt - before)
            times[side].append(elapsed / units * 1e6)
    return {"src": summary(times[0], faults[0]),
            "against": summary(times[1], faults[1]),
            "ratio_median": statistics.median(
                a / b for a, b in zip(*times)),
            "src_wins": sum(a < b for a, b in zip(*times)),
            "pairs": REPEATS}


def corpus_values(wholm):
    """`values(seed)`: the (labels, p, w, alpha) of each problem of
    `wholm`'s `random_corpus(CORPUS_SIZE, seed, m_max=CORPUS_M_MAX)`, drawn
    once per seed."""
    @functools.lru_cache(maxsize=None)
    def values(seed):
        return [(P.labels, P.p, P.w, P.alpha) for P in
                wholm.closure.random_corpus(CORPUS_SIZE, seed=seed,
                                            m_max=CORPUS_M_MAX)]
    return values


def cases(wholm, tmp, values):
    """The timed calls, as (row, make, units): `row` names the layer, the
    unit and the size, `make(seed)` builds the input untimed and returns the
    call to time, and the call covers `units` units.  `wholm` is the package
    to time, `tmp` a directory for the CLI's input files and `values` the
    `corpus_values` of the corpora the property runner is timed on."""
    import numpy as np
    battery, cli = (importlib.import_module(f"{wholm.__name__}.{name}")
                    for name in ("battery", "cli"))
    random_corpus = wholm.closure.random_corpus

    def corpus(seed):
        return [wholm.TestingProblem(*fields) for fields in values(seed)]

    rows = []

    def add(layer, per, size, make, units=1):
        rows.append(({"layer": layer, "per": per, "size": size}, make, units))

    for m, reps in SIMULATION_SIZES:
        def simulate(seed, m=m, reps=reps):
            config = wholm.SimulationConfig(
                m=m, pi0=0.5, rho=0.5, n=15, mu_alt=0.7, alpha=0.05, reps=reps,
                weight_scenario=wholm.WeightScenario.S2, seed=seed)
            return lambda: wholm.run_simulation(config)

        add("montecarlo.run_simulation", "replicate",
            {"m": m, "n": 15, "reps": reps}, simulate, reps)

    def t_block(seed, m, df):
        # one-sample t statistics of n = df + 1 observations, the first
        # m // 2 columns null and the rest at mean 0.7, a cell's mix
        gen = np.random.default_rng(seed)
        shift = np.zeros(m)
        shift[m // 2:] = 0.7 * math.sqrt(df + 1)
        return ((gen.standard_normal((T_SF_ROWS, m)) + shift)
                / np.sqrt(gen.chisquare(df, (T_SF_ROWS, m)) / df))

    for m, df in T_SF_SIZES:
        add("montecarlo.t_sf", "call", {"rows": T_SF_ROWS, "m": m, "df": df},
            lambda seed, m=m, df=df: (
                lambda t=t_block(seed, m, df): wholm.t_sf(t, df)))
    for m in SHARPNESS_SIZES:
        for procedure in (wholm.Procedure.WHP, wholm.Procedure.WAP):
            def sharpness(seed, procedure=procedure, m=m):
                weights = np.linspace(1.0, 2.0, m)
                return lambda: wholm.estimate_sharpness(
                    procedure, weights, m, SHARPNESS_REPS,
                    np.random.default_rng(seed))

            add("montecarlo.estimate_sharpness", "replicate",
                {"procedure": procedure.value, "m": m,
                 "reps": SHARPNESS_REPS}, sharpness, SHARPNESS_REPS)

    add("closure.random_corpus", "call",
        {"problems": CORPUS_SIZE, "m_max": CORPUS_M_MAX}, lambda seed: (
            lambda: random_corpus(CORPUS_SIZE, seed=seed, m_max=CORPUS_M_MAX)))

    def check_properties(seed):
        problems = corpus(seed)
        return lambda: battery.check_properties(problems)

    add("battery.check_properties", "problem",
        {"problems": CORPUS_SIZE, "m_max": CORPUS_M_MAX}, check_properties,
        CORPUS_SIZE)

    def graph_properties(seed):
        built = [battery._Stack(arrays) for _, arrays in
                 battery._stacks(battery._flatten(corpus(seed)))]
        holds = [holds for name, holds in battery.PROPERTIES
                 if name.startswith("graphical-equivalence-")]
        return lambda: [check(stack) for stack in built for check in holds]

    add("battery.graph_properties", "problem",
        {"problems": CORPUS_SIZE, "m_max": CORPUS_M_MAX,
         "stack_cells": battery.PROPERTY_STACK_CELLS},
        graph_properties, CORPUS_SIZE)
    add("battery.run_check_battery", "call", {"trials": CORPUS_SIZE},
        lambda seed: lambda: battery.run_check_battery(CORPUS_SIZE, seed))
    for procedure in (wholm.Procedure.WHP, wholm.Procedure.WAP):
        add("closure.find_pvalue_monotonicity_violation", "call",
            {"procedure": procedure.value, "trials": SEARCH_TRIALS},
            lambda seed, procedure=procedure: (
                lambda: wholm.find_pvalue_monotonicity_violation(
                    procedure, SEARCH_TRIALS, seed)))

    def problem(seed, m):
        # p-values at the scale of the critical values, so some are rejected
        gen = np.random.default_rng(seed)
        w = gen.uniform(0.5, 5.0, size=m)
        p = w / w.sum() * 0.05 * gen.uniform(0.0, 3.0, size=m)
        return wholm.validate_problem([f"H{i}" for i in range(m)], p, w, 0.05)

    def problem_file(seed, m, name):
        """`problem(seed, m)` written as a problem CSV, and its path."""
        P = problem(seed, m)
        path = Path(tmp) / f"{wholm.__name__}_{name}_{m}_{seed}.csv"
        path.write_text("hypothesis,p_value,weight\n" + "".join(
            f"{label},{p!r},{w!r}\n" for label, p, w in zip(P.labels, P.p, P.w)))
        return path

    add("core.load_problem_csv", "call", {"m": LOAD_M}, lambda seed: (
        lambda path=problem_file(seed, LOAD_M, "load"):
        wholm.core.load_problem_csv(path, 0.05)))

    def validate(seed):
        P = problem(seed, VALIDATE_M)
        args = list(P.labels), list(P.p), list(P.w), P.alpha
        return lambda: wholm.validate_problem(*args)

    add("core.validate_problem", "call", {"m": VALIDATE_M}, validate)
    for m in KERNEL_SIZES:
        for layer, run in (
                ("procedures.whp_stepdown", wholm.whp_stepdown),
                ("procedures.holm_stepdown",
                 lambda P: wholm.holm_stepdown(P.p, P.alpha)),
                ("adjust.adjusted_whp", wholm.adjusted_whp)):
            add(layer, "call", {"m": m}, lambda seed, m=m, run=run: (
                lambda P=problem(seed, m): run(P)))
    for m in GRAPHICAL_SIZES:
        add("graphical.run_graphical", "call",
            {"ordering": "weighted", "m": m}, lambda seed, m=m: (
                lambda P=problem(seed, m): wholm.run_graphical(
                    P, wholm.OrderingKey.WEIGHTED)))

    def z_problem(seed, m, share=None):
        gen = np.random.default_rng(seed)
        z = gen.standard_normal(m)
        if share is None:
            share = SIGNAL_SHARES[seed % len(SIGNAL_SHARES)]
        z[gen.permutation(m)[:round(share * m)]] += 8.0
        p = [0.5 * math.erfc(x / math.sqrt(2.0)) for x in z]
        w = gen.uniform(0.5, 5.0, size=m)
        return wholm.validate_problem([f"H{i}" for i in range(m)], p, w, 0.05)

    def both_orderings(seed, m):
        P = z_problem(seed, m)
        return lambda: [wholm.run_graphical(P, ordering)
                        for ordering in wholm.OrderingKey]

    for m in Z_GRAPHICAL_SIZES:
        add("graphical.run_graphical", "call",
            {"ordering": "both", "m": m, "p": "z-test"},
            lambda seed, m=m: both_orderings(seed, m), 2)

    def step_graphs(seed, m):
        P = z_problem(seed, m, share=1.0)

        def call():
            _, trace = wholm.run_graphical(P, wholm.OrderingKey.WEIGHTED)
            return [step.after for step in trace.steps]
        return call

    for m in STEP_GRAPH_SIZES:
        add("graphical.run_graphical+after", "call",
            {"ordering": "weighted", "m": m, "p": "z-test", "signals": 1.0},
            lambda seed, m=m: step_graphs(seed, m))

    def stages(seed):
        P = problem(seed, DOT_STAGES_M)
        _, trace = wholm.run_graphical(P, wholm.OrderingKey.WEIGHTED)
        # a checkout from before `GraphTrace.initial` takes the initial
        # graph as an argument, built here untimed
        initial = ([wholm.initial_graph(P.w, P.alpha)] if "initial" in
                   inspect.signature(wholm.graphical.dot_stages).parameters
                   else [])
        return lambda: wholm.graphical.dot_stages(trace, *initial,
                                                  labels=P.labels)

    add("graphical.dot_stages", "call",
        {"ordering": "weighted", "m": DOT_STAGES_M}, stages)
    for m in CLOSURE_SIZES:
        for layer, run in (
                ("closure.ctp", lambda P: wholm.ctp(P, wholm.whp_local_test)),
                ("closure.check_consonance",
                 lambda P: wholm.check_consonance(P, wholm.wap_local_test))):
            add(layer, "call", {"m": m}, lambda seed, m=m, run=run: (
                lambda P=problem(seed, m): run(P)))
    for m in FULL_READ_SIZES:
        add("closure.ctp+local_decisions", "call", {"m": m, "read": "items"},
            lambda seed, m=m: (lambda P=problem(seed, m): list(
                wholm.ctp(P, wholm.whp_local_test).local_decisions.items())))
    for m in BOTH_TESTS_SIZES:
        for test in ("whp_local_test", "wap_local_test"):
            for layer in ("ctp", "check_consonance"):
                add(f"closure.{layer}", "call", {"m": m, "test": test},
                    lambda seed, m=m, run=getattr(wholm, layer),
                    test=getattr(wholm, test): (
                        lambda P=problem(seed, m): run(P, test)))
    def closed_stack(seed, procedure):
        """The call that ranks a stack of problems of size CLOSED_STACK_M
        and closes it under `procedure`, with its arrays built untimed."""
        rows, procedures = CLOSED_STACK_ROWS, wholm.procedures
        stacked = [problem(seed * rows + r, CLOSED_STACK_M)
                   for r in range(rows)]
        p, w, alpha = (np.array([getattr(P, name) for P in stacked])
                       for name in ("p", "w", "alpha"))
        key = procedures.ranking(procedure)
        return lambda: wholm.closure.ClosedStack(procedures.rank(p, w, key),
                                                 alpha, procedure)

    for procedure in (wholm.Procedure.WHP, wholm.Procedure.WAP):
        add("closure.ClosedStack", "call",
            {"procedure": procedure.value, "m": CLOSED_STACK_M,
             "rows": CLOSED_STACK_ROWS}, lambda seed, procedure=procedure: (
                closed_stack(seed, procedure)))

    def counterexamples(seed):
        # a fresh stack per call: the property is cached on first read
        stack = closed_stack(seed, wholm.Procedure.WHP)()
        return lambda: stack.monotonicity_counterexamples

    add("closure.ClosedStack.monotonicity_counterexamples", "call",
        {"procedure": "whp", "m": CLOSED_STACK_M, "rows": CLOSED_STACK_ROWS},
        counterexamples)
    for m in MONOTONICITY_SIZES:
        add("closure.check_monotonicity_condition", "call",
            {"procedure": "whp", "m": m}, lambda seed, m=m: (
                lambda P=problem(seed, m):
                wholm.check_monotonicity_condition(P, wholm.Procedure.WHP)))

    def local_test(seed, m, count, test):
        P = problem(seed, m)
        masks = np.random.default_rng(seed).integers(1, 1 << m, size=count)
        return lambda: test(P, masks)

    for name in ("whp_local_test", "wap_local_test"):
        for m, count in LOCAL_TEST_CALLS:
            add(f"closure.{name}", "call", {"m": m, "masks": count},
                lambda seed, m=m, count=count, test=getattr(wholm, name): (
                    local_test(seed, m, count, test)))

    add("cli.build_parser", "call", {}, lambda seed: cli.build_parser)

    def run_cli(argv):
        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"exit code {code}: {argv}")
        return call

    def cli_call(seed, command, m, flags):
        path = problem_file(seed, m, command)
        argv = [command, "--input", str(path), "--alpha", "0.05", *flags]
        if command == "graph":
            argv += ["--output-dir",
                     str(Path(tmp) / f"{wholm.__name__}_graph_{m}_{seed}")]
        return run_cli(argv)

    for command, m, flags in CLI_CALLS:
        add(f"cli.{command}", "call", {"m": m, "flags": " ".join(flags)},
            lambda seed, c=command, m=m, f=flags: cli_call(seed, c, m, f))
    add("cli.check", "call", {"trials": CORPUS_SIZE}, lambda seed: run_cli(
        ["check", "--trials", str(CORPUS_SIZE), "--seed", str(seed)]))
    def simulate_config(name, reps):
        path = Path(tmp) / f"{wholm.__name__}_{name}.cfg"
        path.write_text(f"m = {CLI_SIMULATE_M}\npi0 = 0.5\nrho_list = 0.5\n"
                        f"n = 15\nmu_alt = 0.7\nalpha = 0.05\n"
                        f"reps = {reps}\nscenario = S2\nseed = 0\n")
        return path

    config = simulate_config("simulate", CLI_SIMULATE_REPS)
    add("cli.simulate", "call",
        {"m": CLI_SIMULATE_M, "n": 15, "reps": CLI_SIMULATE_REPS},
        lambda seed: run_cli(["simulate", "--config", str(config),
                              "--seed", str(seed)]))
    add("cli.sharpness", "call",
        {"procedure": "whp", "m": SHARPNESS_M, "reps": SHARPNESS_REPS},
        lambda seed: run_cli([
            "sharpness", "--procedure", "whp", "--weights",
            ",".join(map(repr, np.linspace(1.0, 2.0, SHARPNESS_M).tolist())),
            "--reps", str(SHARPNESS_REPS), "--seed", str(seed)]))

    src = Path(wholm.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))

    def launch(*args):
        return lambda: subprocess.run([sys.executable, *args], cwd=tmp,
                                      env=env, stdout=subprocess.PIPE,
                                      check=True)

    add("startup.import", "launch", {"module": "wholm.cli"},
        lambda seed: launch("-c", "import wholm.cli"))
    add("startup.cli.adjust", "launch", {"m": LAUNCH_ADJUST_M},
        lambda seed: launch(
            "-m", "wholm.cli", "adjust", "--alpha", "0.05", "--input",
            str(problem_file(seed, LAUNCH_ADJUST_M, "launch"))))
    launch_config = simulate_config("launch", LAUNCH_SIMULATE_REPS)
    add("startup.cli.simulate", "launch",
        {"m": CLI_SIMULATE_M, "n": 15, "reps": LAUNCH_SIMULATE_REPS},
        lambda seed: launch("-m", "wholm.cli", "simulate", "--config",
                            str(launch_config), "--seed", str(seed)))
    return rows


def provenance(src):
    """The measured code (git HEAD of its checkout, whether `src/` differs
    from it, and a hash of `wholm/*.py`) and the machine it ran on."""
    import numpy as np
    import scipy

    checkout = src.parent

    def git(*args):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(checkout.parent))
        try:
            done = subprocess.run(["git", *args], cwd=checkout, env=env,
                                  capture_output=True, text=True, timeout=30)
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--", "src")
    digest = hashlib.sha256()
    for path in sorted((src / "wholm").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "src_differs_from_head": None if status is None else bool(status),
        "source_sha256": digest.hexdigest(),
        "machine": {"platform": platform.platform(),
                    "processor": platform.processor() or platform.machine(),
                    "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "scipy": scipy.__version__,
                    "malloc_mmap_threshold": os.environ.get(
                        MMAP_THRESHOLD_VARIABLE)},
    }


def load(src, name):
    """Import the wholm package under `src` as the module `name`, its
    submodules as `name.core` and so on, so that two checkouts can be loaded
    side by side."""
    spec = importlib.util.spec_from_file_location(
        name, src / "wholm" / "__init__.py",
        submodule_search_locations=[str(src / "wholm")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def main(argv=None):
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=root / "src",
                        help="directory holding the wholm package to time")
    parser.add_argument("--against", type=Path, required=True,
                        help="a second checkout's src directory, timed in the "
                             "same process, alternating with --src")
    parser.add_argument("--label", required=True,
                        help="key of this record in the output file")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    srcs = [args.src.resolve(), args.against.resolve()]
    for src in srcs:
        if not (src / "wholm" / "__init__.py").is_file():
            parser.error(f"no wholm package under {src}")
    with tempfile.TemporaryDirectory() as tmp:
        packages = [load(src, f"wholm_{side}")
                    for src, side in zip(srcs, ("src", "against"))]
        values = corpus_values(packages[0])
        sides = [cases(wholm, tmp, values) for wholm in packages]
        record = {"src": provenance(srcs[0]),
                  "against": provenance(srcs[1]), "results": [
                      {**row, **time_pair((make, other), units)}
                      for (row, make, units), (_, other, _) in zip(*sides)]}
    table = json.loads(args.out.read_text()) if args.out.exists() else {}
    table[args.label] = record
    args.out.write_text(json.dumps(table, indent=2) + "\n")
    for row in record["results"]:
        print(f"{row['layer']:36} {json.dumps(row['size']):50} "
              f"{row['src']['median_us']:11.2f} vs "
              f"{row['against']['median_us']:11.2f} us/{row['per']}  "
              f"ratio {row['ratio_median']:.3f}, src faster "
              f"{row['src_wins']}/{row['pairs']}")
    return 0


if __name__ == "__main__":
    if MMAP_THRESHOLD_VARIABLE not in os.environ:
        os.execve(sys.executable, [sys.executable, *sys.argv], {
            **os.environ, MMAP_THRESHOLD_VARIABLE: str(MMAP_THRESHOLD)})
    sys.exit(main())
