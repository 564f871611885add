"""Per-layer timings of the Monte Carlo layer, per replicate.

    python3 bench/layers.py --label after --out BENCH_8.json
    python3 bench/layers.py --src OTHER_CHECKOUT/src --label before --out BENCH_8.json

Times `run_simulation` at m = 10 and 20 (n = 15, reps = 100 and 2,000) and
`estimate_sharpness` for WHP and WAP at m = 10 (reps = 20,000) with
`perf_counter`, one call at a time in this process.  Each size gets one
untimed warm-up call and then `REPEATS` timed calls, each with its own seed;
the record gives the median and the interquartile range of the time per
replicate in microseconds.  `wholm` is imported from `--src` (this
checkout's `src/` by default).  The record is stored under `--label` in the
JSON file `--out`; records under other labels are kept, so a before/after
pair is two runs into one file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

REPEATS = 21
SIMULATION_SIZES = [(m, reps) for m in (10, 20) for reps in (100, 2000)]
SHARPNESS_M, SHARPNESS_REPS = 10, 20_000


def time_per_replicate(call, reps):
    """Median and (q1, q3) of `call(seed)`'s wall time over REPEATS seeds,
    in microseconds per replicate."""
    call(0)
    times = []
    for seed in range(1, REPEATS + 1):
        start = perf_counter()
        call(seed)
        times.append((perf_counter() - start) / reps * 1e6)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_us": median, "q1_us": q1, "q3_us": q3, "iqr_us": q3 - q1,
            "samples": len(times)}


def measure(wholm):
    import numpy as np

    rows = []
    for m, reps in SIMULATION_SIZES:
        def simulate(seed, m=m, reps=reps):
            wholm.run_simulation(wholm.SimulationConfig(
                m=m, pi0=0.5, rho=0.5, n=15, mu_alt=0.7, alpha=0.05, reps=reps,
                weight_scenario=wholm.WeightScenario.S2, seed=seed))

        rows.append({"layer": "montecarlo.run_simulation",
                     "size": {"m": m, "n": 15, "reps": reps},
                     **time_per_replicate(simulate, reps)})
    weights = np.linspace(1.0, 2.0, SHARPNESS_M)
    for procedure in (wholm.Procedure.WHP, wholm.Procedure.WAP):
        def sharpness(seed, procedure=procedure):
            wholm.estimate_sharpness(procedure, weights, SHARPNESS_M,
                                     SHARPNESS_REPS, np.random.default_rng(seed))

        rows.append({"layer": "montecarlo.estimate_sharpness",
                     "size": {"procedure": procedure.value, "m": SHARPNESS_M,
                              "reps": SHARPNESS_REPS},
                     **time_per_replicate(sharpness, SHARPNESS_REPS)})
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
        print(f"{row['layer']:32} {json.dumps(row['size']):50} "
              f"{row['median_us']:9.2f} us/rep  (IQR {row['iqr_us']:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
