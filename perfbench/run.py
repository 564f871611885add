"""Benchmark for wholm: one seeded workload per run.

    python3 perfbench/run.py --workload mc-study --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; `wholm` is imported from its `src/`.
With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics, with `--trace 1` the per-layer metrics from a traced
run.  Ops run one at a time from this process, a closed loop with one
client.  See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import Tracer, per_layer_units
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_LAUNCHES = 6
MAX_FAILURES_SHOWN = 5
# The reference slice's median time on the reference machine.  Every op
# latency the benchmark reports is scaled to this speed (see `scaled`).
REFERENCE_S = 2.5e-3
_REF_X = [((i * 7919) % 1009) / 1009 for i in range(400)]
_REF_A = np.linspace(0.0, 1.0, 64)


def reference_slice():
    """A fixed piece of work that calls no wholm code, made of what wholm's
    own calls are made of: building and running an argument parser, writing
    and reading CSV rows, sorting, a dict, float math and small numpy calls.
    Timed next to every op, it measures how fast the machine runs at that
    moment."""
    parser = argparse.ArgumentParser(prog="reference")
    commands = parser.add_subparsers(dest="command")
    for name in ("one", "two", "three"):
        command = commands.add_parser(name)
        command.add_argument("--input", required=True)
        command.add_argument("--alpha", type=float, default=0.05)
        command.add_argument("--mode", choices=("a", "b"), default="a")
    parser.parse_args(["two", "--input", "in.csv", "--alpha", "0.01"])
    text = io.StringIO()
    writer = csv.writer(text)
    for i, x in enumerate(_REF_X[:100]):
        writer.writerow([f"H{i}", repr(x), f"{x:.6g}", str(x < 0.5).lower()])
    rows = list(csv.reader(io.StringIO(text.getvalue())))
    order = sorted(range(len(_REF_X)), key=_REF_X.__getitem__)
    table = {i: _REF_X[i] for i in order}
    acc = sum(float(row[1]) for row in rows)
    for i in order:
        acc += math.sqrt(table[i]) * 0.5
    for _ in range(40):
        acc += float(np.cumsum(np.sort(_REF_A[::-1]))[-1])
    return acc


def timed_reference():
    start = perf_counter()
    reference_slice()
    return perf_counter() - start


def scaled(seconds, reference):
    """A time measured next to reference slices that took `reference`
    seconds, scaled to the speed at which the slice takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference


def import_wholm():
    """Import wholm (and the CLI, which pulls in every module) from this
    checkout's src/ and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import wholm
    import wholm.cli  # noqa: F401
    if Path(wholm.__file__).resolve().parent != SRC / "wholm":
        raise SystemExit(f"wholm imported from {wholm.__file__}, not {SRC}")
    return wholm


def make_workload(wholm, name, seed, workdir):
    """The workload, working in an emptied `workdir`."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return WORKLOADS[name](wholm, seed, workdir)


def setup_only(args):
    """Child process: import and set up, then build pass 0's ops, and report
    when the first op could start, on the system-wide monotonic clock the
    parent also reads.  It works in a directory of its own, so it leaves the
    parent's inputs alone."""
    start = perf_counter()
    wholm = import_wholm()
    import_s = perf_counter() - start
    workdir = OUT / "setup" / args.workload
    make_workload(wholm, args.workload, args.seed, workdir).pass_ops(0)
    ready = perf_counter()
    shutil.rmtree(workdir)
    print(json.dumps({"ready": ready, "import_s": import_s}))


class SetupProbe:
    """Launches fresh interpreters that set up the workload, spread between
    the passes so that no single phase of the machine covers them all.

    Set-up times are not scaled by reference slices: a slice timed in the
    parent runs in another process, and one timed in the child after its
    set-up read 1.4 or 2.4 ms from launch to launch while the set-up time
    did not follow it.  The median of the launches is the steadier
    estimate."""

    def __init__(self, args):
        self.argv = [sys.executable, __file__, "--setup-only",
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds)]
        self.launches = []  # (set-up s, import s)

    def launch(self):
        start = perf_counter()
        done = subprocess.run(self.argv, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"set-up launch exited with {done.returncode}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        self.launches.append((report["ready"] - start, report["import_s"]))

    def setup_s(self):
        return statistics.median(s for s, _ in self.launches)

    def import_s(self):
        return statistics.median(s for _, s in self.launches)


class Runner:
    """Runs ops, times each call, checks each output outside the timing."""

    def __init__(self):
        self.tracer = None
        self.schedule = []  # the kind of each op of a pass
        self.passes = []  # per pass, the latency of each op in schedule order
        self.references = []  # per pass, the reference slice before each op
        self.attempted = 0
        self.failures = []
        self.reference = {}

    def run_op(self, op, op_id):
        error = None
        start = perf_counter()
        try:
            if self.tracer is None:
                result = op.call()
            else:
                result = self.tracer.op(op_id, op.call)
        except Exception as exc:  # an op that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if error is not None:
            return elapsed, None, [error]
        try:
            output = op.read(result)
            return elapsed, output, op.check(output)
        except Exception as exc:  # an output the checker cannot parse
            return elapsed, None, [f"check raised {type(exc).__name__}: {exc}"]

    def warm_up(self, ops):
        """Run the first op of each kind untimed; pass 0 re-runs it and must
        reproduce the output byte for byte."""
        self.schedule = [op.kind for op in ops]
        seen = set()
        for index, op in enumerate(ops):
            if op.kind not in seen:
                seen.add(op.kind)
                _, output, _ = self.run_op(op, -1)
                self.reference[index] = repr(output)

    def run_pass(self, k, ops):
        # Start each pass with no garbage left by the checks, and keep the
        # benchmark's own long-lived objects out of the collector's scans,
        # so the collections inside an op are the op's own.
        gc.collect()
        gc.freeze()
        latencies, references = [], []
        for index, op in enumerate(ops):
            references.append(timed_reference())
            elapsed, output, failures = self.run_op(op, self.attempted)
            if k == 0 and index in self.reference:
                if repr(output) != self.reference[index]:
                    failures = failures + [f"re-run of {op.kind} op {index} "
                                           "did not reproduce its output"]
            self.attempted += 1
            latencies.append(elapsed)
            if failures:
                self.failures.append((k, index, op.kind, failures))
        references.append(timed_reference())
        self.passes.append(latencies)
        self.references.append(references)

    def scaled_latencies(self):
        """Every op's latency, pass by pass, scaled by the reference slices
        timed just before and just after it."""
        latency = np.array(self.passes)
        ref = np.array(self.references)
        return scaled(latency, (ref[:, :-1] + ref[:, 1:]) / 2)

    def op_costs(self):
        """Each op of the schedule's scaled latency, median over the passes.

        Load from other tenants of a shared machine slows the op and the
        reference slices alike, in phases of seconds to minutes, so scaling
        removes most of it; the median over passes removes what is left of
        short bursts."""
        return np.median(self.scaled_latencies(), axis=0)


def tail_percentile(ops_per_pass):
    """The highest percentile with ten of the schedule's ops beyond it."""
    return 100 * (1 - 10 / ops_per_pass)


def e2e_metrics(runner, setup):
    cost = runner.op_costs() * 1e3
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (1e3 * len(cost) / cost.sum(), "1/s"),
        "op_p50_ms": (float(np.median(cost)), "ms"),
        "op_tail_ms": (float(np.percentile(cost, tail_percentile(len(cost)))),
                       "ms"),
        "setup_s": (setup.setup_s(), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "ok_share": (1 - len(runner.failures) / runner.attempted, "share"),
    }


def provenance(wholm, args, runner):
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "wholm").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "wholm_path": str(Path(wholm.__file__).resolve().parent),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": runner.attempted,
        "pass_op_seconds": [sum(p) for p in runner.passes],
    }


def git_sha():
    """HEAD of this checkout, or None when it is not a git repository (the
    source hash in the provenance identifies the code either way)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run(args):
    if not (SRC / "wholm" / "__init__.py").is_file():
        print(f"error: no wholm package under {SRC}", file=sys.stderr)
        return 2
    # importing here first also writes the bytecode the set-up launches use
    wholm = import_wholm()
    workdir = OUT / args.workload
    workload = make_workload(wholm, args.workload, args.seed, workdir)
    runner = Runner()
    setup = SetupProbe(args)
    layer = None
    # the CLI prints progress lines; keep stdout for the result
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        if args.trace:
            layer = traced_passes(runner, workload, setup, args.seconds)
        else:
            timed_passes(runner, workload, setup, args.seconds)
    shutil.rmtree(workdir)
    report(wholm, args, runner, setup, layer)
    return 0


def pass_count(workload, seconds):
    """A fixed number of passes, so every commit runs the same op sequence
    and takes each op's median over the same number of samples.  The
    workload's nominal pass time makes a run last about `seconds` on the
    reference machine."""
    return math.ceil(seconds / workload.pass_seconds)


def launch_points(passes):
    """The passes before which a set-up launch runs, spread evenly."""
    return {round((i + 0.5) * passes / SETUP_LAUNCHES)
            for i in range(SETUP_LAUNCHES)}


def timed_passes(runner, workload, setup, seconds):
    ops = workload.pass_ops(0)
    runner.warm_up(ops)
    passes = pass_count(workload, seconds)
    launches = launch_points(passes)
    for k in range(passes):
        if k in launches:
            setup.launch()
        runner.run_pass(k, ops if k == 0 else workload.pass_ops(k))
    while len(setup.launches) < SETUP_LAUNCHES:
        setup.launch()


def traced_passes(runner, workload, setup, seconds):
    """Pass 0 twice untraced, then the passes traced.  The first untraced
    pass pays for cold caches and first file writes, so the tracing
    overhead is the traced pass 0's scaled op time over the second one's."""
    ops = workload.pass_ops(0)
    runner.warm_up(ops)
    runner.run_pass(0, ops)
    runner.run_pass(0, ops)
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    passes = max(1, pass_count(workload, seconds) - 2)
    for k in range(passes):
        runner.run_pass(k, ops if k == 0 else workload.pass_ops(k))
    for _ in range(SETUP_LAUNCHES):
        setup.launch()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload.name}.npz")
    metrics = tracer.layer_metrics(passes)
    pass_cost = runner.scaled_latencies().sum(axis=1)
    metrics["trace.overhead_ratio"] = pass_cost[2] / pass_cost[1]
    metrics["setup.import_wholm_s"] = setup.import_s()
    return metrics


def report(wholm, args, runner, setup, layer):
    if layer is None:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
                   in e2e_metrics(runner, setup).items()}
    else:
        metrics = {name: {"value": float(layer[name]), "unit": unit}
                   for name, unit in per_layer_units().items()}
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures), "metrics": metrics}
    prov = provenance(wholm, args, runner)
    prov["tail_percentile"] = tail_percentile(len(runner.passes[0]))
    prov["failed_share"] = len(runner.failures) / runner.attempted
    OUT.mkdir(exist_ok=True)
    detail = {"provenance": prov, **result,
              "schedule": runner.schedule,
              "pass_latencies_s": runner.passes,
              "pass_references_s": runner.references,
              "setup_launches_s": setup.launches}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail) + "\n")
    for k, index, kind, failures in runner.failures[:MAX_FAILURES_SHOWN]:
        print(f"FAILED pass {k} op {index} ({kind}): {failures[:3]}",
              file=sys.stderr)
    print("# provenance " + json.dumps(prov))
    if layer is None:
        print(f"# op_tail_ms is p{prov['tail_percentile']:.4g} over the "
              f"{len(runner.passes[0])} ops of the schedule, each the median "
              f"of {len(runner.passes)} passes ({runner.attempted} ops run); "
              f"setup_s is the median of {len(setup.launches)} launches")
    print(json.dumps(result))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    if args.setup_only:
        setup_only(args)
    else:
        sys.exit(run(args))
