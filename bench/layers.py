"""Per-layer timings of the decision, Monte Carlo, closed-testing and CLI layers.

    python3 bench/layers.py --label after --out BENCH_16.json
    python3 bench/layers.py --src OTHER_CHECKOUT/src --label before --out BENCH_16.json

Times, with `perf_counter`, one call at a time in this process:

- `run_simulation` at m = 10 and 20 (n = 15, reps = 100 and 2,000) and
  `estimate_sharpness` for WHP and WAP at m = 10 (reps = 20,000), per
  replicate;
- `battery.check_properties` on `random_corpus(2000, m_max=8)`, per problem,
  its two `graphical-equivalence-*` properties on their own over the same
  stacks (built untimed, as `check_properties` builds them), per problem,
  and `battery.run_check_battery(2000)`, per call;
- `closure.find_pvalue_monotonicity_violation` for WHP and WAP at 2,000
  trials, per call;
- `validate_problem` (from lists) at m = 1000, `whp_stepdown` and
  `adjusted_whp` at m = 10 and 1000, and `run_graphical` (weighted ordering)
  at m = 5 and 8 (the property battery's sizes) and 100, per call;
- `run_graphical` at the `oracle-check` workload's sizes m = 20 to 60, in
  both orderings, per call, on its kind of problem: one-sided z-test
  p-values with a share of signals (mean z = 8) cycled by seed through 0,
  1/4, 1/2, 3/4 and 1, and U(0.5, 5) weights;
- `graphical.dot_stages` of a weighted-ordering run at m = 30, per call,
  which is `cli.graph`'s DOT text without its file writes;
- `ctp` (WHP local test) and `check_consonance` (WAP local test) at m = 8, 14
  and 16, and `check_monotonicity_condition` (WHP) at m = 12, per call;
- `whp_local_test` called directly on 1 and 1,000 random masks at m = 16 and
  on 100,000 at m = 21, per call;
- the CLI, per call: `cli.build_parser` on its own, and in-process
  `cli.main` runs of `adjust` at m = 5, 1000 and 10,000 (at both
  precisions at 10,000) and `ctp --procedure whp` at
  m = 10 (stdout captured) and of `graph --ordering weighted` at m = 30
  (into a fresh output directory), each on a problem CSV written untimed.

Each size gets one untimed warm-up call and then `REPEATS` timed calls, each
on its own seed; inputs are built before the clock starts.  The record gives
the median and the interquartile range of the time per unit in
microseconds.  `wholm` is imported from `--src` (this checkout's `src/` by
default).  The record is stored under `--label` in the JSON file `--out`;
records under other labels are kept, so a before/after pair is two runs
into one file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
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
from time import perf_counter

REPEATS = 21
SIMULATION_SIZES = [(m, reps) for m in (10, 20) for reps in (100, 2000)]
SHARPNESS_M, SHARPNESS_REPS = 10, 20_000
CORPUS_SIZE, CORPUS_M_MAX = 2000, 8
SEARCH_TRIALS = 2000
VALIDATE_M = 1000
KERNEL_SIZES = (10, 1000)
GRAPHICAL_SIZES = (5, 8, 100)
Z_GRAPHICAL_SIZES = (20, 30, 40, 50, 60)
SIGNAL_SHARES = (0.0, 0.25, 0.5, 0.75, 1.0)
DOT_STAGES_M = 30
CLOSURE_SIZES = (8, 14, 16)
MONOTONICITY_M = 12
# (m, number of masks) of the direct local-test calls
LOCAL_TEST_CALLS = ((16, 1), (16, 1000), (21, 100_000))
# (subcommand, m, extra flags) of the timed in-process CLI calls
CLI_CALLS = (("adjust", 5, ()), ("adjust", 1000, ()), ("adjust", 10_000, ()),
             ("adjust", 10_000, ("--precision", "full")),
             ("ctp", 10, ("--procedure", "whp")),
             ("graph", 30, ("--ordering", "weighted")))


def time_per_unit(make, units):
    """Median and (q1, q3) of the wall time of `make(seed)()` over REPEATS
    seeds, in microseconds per unit; `make(seed)` builds the input untimed
    and returns the call to time."""
    make(0)()
    times = []
    for seed in range(1, REPEATS + 1):
        call = make(seed)
        start = perf_counter()
        call()
        times.append((perf_counter() - start) / units * 1e6)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_us": median, "q1_us": q1, "q3_us": q3, "iqr_us": q3 - q1,
            "samples": len(times)}


def measure(wholm):
    import numpy as np
    from wholm import battery, cli
    from wholm.battery import check_properties, run_check_battery
    from wholm.closure import random_corpus
    from wholm.graphical import dot_stages

    rows = []
    for m, reps in SIMULATION_SIZES:
        def simulate(seed, m=m, reps=reps):
            config = wholm.SimulationConfig(
                m=m, pi0=0.5, rho=0.5, n=15, mu_alt=0.7, alpha=0.05, reps=reps,
                weight_scenario=wholm.WeightScenario.S2, seed=seed)
            return lambda: wholm.run_simulation(config)

        rows.append({"layer": "montecarlo.run_simulation", "per": "replicate",
                     "size": {"m": m, "n": 15, "reps": reps},
                     **time_per_unit(simulate, reps)})
    weights = np.linspace(1.0, 2.0, SHARPNESS_M)
    for procedure in (wholm.Procedure.WHP, wholm.Procedure.WAP):
        def sharpness(seed, procedure=procedure):
            return lambda: wholm.estimate_sharpness(
                procedure, weights, SHARPNESS_M, SHARPNESS_REPS,
                np.random.default_rng(seed))

        rows.append({"layer": "montecarlo.estimate_sharpness",
                     "per": "replicate",
                     "size": {"procedure": procedure.value, "m": SHARPNESS_M,
                              "reps": SHARPNESS_REPS},
                     **time_per_unit(sharpness, SHARPNESS_REPS)})

    def corpus(seed):
        problems = random_corpus(CORPUS_SIZE, seed=seed, m_max=CORPUS_M_MAX)
        return lambda: check_properties(problems)

    rows.append({"layer": "battery.check_properties", "per": "problem",
                 "size": {"problems": CORPUS_SIZE, "m_max": CORPUS_M_MAX},
                 **time_per_unit(corpus, CORPUS_SIZE)})

    def graph_properties(seed):
        problems = random_corpus(CORPUS_SIZE, seed=seed, m_max=CORPUS_M_MAX)
        rows, stacks = battery.PROPERTY_STACK_ROWS, []
        for m in sorted({problem.m for problem in problems}):
            group = [problem for problem in problems if problem.m == m]
            stacks += [battery._Stack(group[start:start + rows])
                       for start in range(0, len(group), rows)]
        holds = [holds for name, holds in battery.PROPERTIES
                 if name.startswith("graphical-equivalence-")]
        return lambda: [check(stack) for stack in stacks for check in holds]

    rows.append({"layer": "battery.graph_properties", "per": "problem",
                 "size": {"problems": CORPUS_SIZE, "m_max": CORPUS_M_MAX,
                          "stack_rows": battery.PROPERTY_STACK_ROWS},
                 **time_per_unit(graph_properties, CORPUS_SIZE)})
    rows.append({"layer": "battery.run_check_battery", "per": "call",
                 "size": {"trials": CORPUS_SIZE},
                 **time_per_unit(lambda seed: (
                     lambda: run_check_battery(CORPUS_SIZE, seed)), 1)})
    for procedure in (wholm.Procedure.WHP, wholm.Procedure.WAP):
        rows.append({"layer": "closure.find_pvalue_monotonicity_violation",
                     "per": "call",
                     "size": {"procedure": procedure.value,
                              "trials": SEARCH_TRIALS},
                     **time_per_unit(lambda seed, procedure=procedure: (
                         lambda: wholm.find_pvalue_monotonicity_violation(
                             procedure, SEARCH_TRIALS, seed)), 1)})

    def problem(seed, m):
        # p-values at the scale of the critical values, so some are rejected
        gen = np.random.default_rng(seed)
        w = gen.uniform(0.5, 5.0, size=m)
        p = w / w.sum() * 0.05 * gen.uniform(0.0, 3.0, size=m)
        return wholm.validate_problem([f"H{i}" for i in range(m)], p, w, 0.05)

    def validate(seed):
        P = problem(seed, VALIDATE_M)
        args = list(P.labels), list(P.p), list(P.w), P.alpha
        return lambda: wholm.validate_problem(*args)

    rows.append({"layer": "core.validate_problem", "per": "call",
                 "size": {"m": VALIDATE_M}, **time_per_unit(validate, 1)})
    for m in KERNEL_SIZES:
        for layer, run in (("procedures.whp_stepdown", wholm.whp_stepdown),
                           ("adjust.adjusted_whp", wholm.adjusted_whp)):
            rows.append({"layer": layer, "per": "call", "size": {"m": m},
                         **time_per_unit(lambda seed, m=m, run=run: (
                             lambda P=problem(seed, m): run(P)), 1)})
    for m in GRAPHICAL_SIZES:
        rows.append({"layer": "graphical.run_graphical", "per": "call",
                     "size": {"ordering": "weighted", "m": m},
                     **time_per_unit(lambda seed, m=m: (
                         lambda P=problem(seed, m): wholm.run_graphical(
                             P, wholm.OrderingKey.WEIGHTED)), 1)})

    def z_problem(seed, m):
        gen = np.random.default_rng(seed)
        z = gen.standard_normal(m)
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
        rows.append({"layer": "graphical.run_graphical", "per": "call",
                     "size": {"ordering": "both", "m": m, "p": "z-test"},
                     **time_per_unit(lambda seed, m=m: both_orderings(seed, m),
                                     2)})

    def stages(seed):
        P = problem(seed, DOT_STAGES_M)
        _, trace = wholm.run_graphical(P, wholm.OrderingKey.WEIGHTED)
        initial = wholm.initial_graph(P.w, P.alpha)
        return lambda: dot_stages(trace, initial, labels=P.labels)

    rows.append({"layer": "graphical.dot_stages", "per": "call",
                 "size": {"ordering": "weighted", "m": DOT_STAGES_M},
                 **time_per_unit(stages, 1)})
    for m in CLOSURE_SIZES:
        for layer, run in (
                ("closure.ctp", lambda P: wholm.ctp(P, wholm.whp_local_test)),
                ("closure.check_consonance",
                 lambda P: wholm.check_consonance(P, wholm.wap_local_test))):
            rows.append({"layer": layer, "per": "call", "size": {"m": m},
                         **time_per_unit(lambda seed, m=m, run=run: (
                             lambda P=problem(seed, m): run(P)), 1)})
    rows.append({"layer": "closure.check_monotonicity_condition",
                 "per": "call",
                 "size": {"procedure": "whp", "m": MONOTONICITY_M},
                 **time_per_unit(lambda seed: (
                     lambda P=problem(seed, MONOTONICITY_M):
                     wholm.check_monotonicity_condition(P, wholm.Procedure.WHP)),
                     1)})

    def local_test(seed, m, count):
        P = problem(seed, m)
        masks = np.random.default_rng(seed).integers(1, 1 << m, size=count)
        return lambda: wholm.whp_local_test(P, masks)

    for m, count in LOCAL_TEST_CALLS:
        rows.append({"layer": "closure.whp_local_test", "per": "call",
                     "size": {"m": m, "masks": count},
                     **time_per_unit(lambda seed, m=m, count=count:
                                     local_test(seed, m, count), 1)})

    rows.append({"layer": "cli.build_parser", "per": "call", "size": {},
                 **time_per_unit(lambda seed: cli.build_parser, 1)})
    with tempfile.TemporaryDirectory() as tmp:
        def cli_call(seed, command, m, flags):
            P = problem(seed, m)
            path = Path(tmp) / f"{command}_{m}_{seed}.csv"
            path.write_text("hypothesis,p_value,weight\n" + "".join(
                f"{label},{p!r},{w!r}\n" for label, p, w in zip(P.labels, P.p, P.w)))
            argv = [command, "--input", str(path), "--alpha", "0.05", *flags]
            if command == "graph":
                argv += ["--output-dir", str(Path(tmp) / f"graph_{m}_{seed}")]

            def call():
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"exit code {code}: {argv}")
            return call

        for command, m, flags in CLI_CALLS:
            rows.append({"layer": f"cli.{command}", "per": "call",
                         "size": {"m": m, "flags": " ".join(flags)},
                         **time_per_unit(lambda seed, c=command, m=m, f=flags:
                                         cli_call(seed, c, m, f), 1)})
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
                    "scipy": scipy.__version__},
    }


def main(argv=None):
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=root / "src",
                        help="directory holding the wholm package to time")
    parser.add_argument("--label", required=True,
                        help="key of this record in the output file")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "wholm" / "__init__.py").is_file():
        parser.error(f"no wholm package under {src}")
    sys.path.insert(0, str(src))
    import wholm

    record = {**provenance(src), "results": measure(wholm)}
    table = json.loads(args.out.read_text()) if args.out.exists() else {}
    table[args.label] = record
    args.out.write_text(json.dumps(table, indent=2) + "\n")
    for row in record["results"]:
        print(f"{row['layer']:36} {json.dumps(row['size']):50} "
              f"{row['median_us']:11.2f} us/{row['per']}  "
              f"(IQR {row['iqr_us']:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
