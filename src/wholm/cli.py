"""Command-line front door.

Subcommands: `adjust`, `ctp`, `graph`, `simulate`, `sharpness`, `check`.
Exit codes: 0 success, 1 usage error, 2 data error, 3 property failure.
All randomized subcommands require an explicit seed so published results can
be replayed byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .adjust import adjusted_wap, adjusted_whp
from .battery import run_check_battery
from .closure import ctp, wap_local_test, whp_local_test
from .core import OrderingKey, load_problem_csv
from .graphical import dot_stages, initial_graph, run_graphical
from .montecarlo import (Procedure, SimulationConfig, WeightScenario,
                         estimate_sharpness, rng_new, run_simulation)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROPERTY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _checked_arg(flag, convert, holds, requirement):
    """argparse type for `flag`: `convert` the text, then require
    `holds(value)`; anything else is a usage error."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"malformed number for {flag}: {text}")
        if not holds(value):
            raise argparse.ArgumentTypeError(f"{flag} must {requirement}: {text}")
        return value
    return parse


def _int_arg(flag, minimum):
    return _checked_arg(flag, int, lambda v: v >= minimum, f"be at least {minimum}")


_alpha_arg = _checked_arg("--alpha", float, lambda v: 0.0 < v < 1.0, "lie in (0, 1)")


def _fmt(value, precision):
    if precision == "full":
        return repr(float(value))
    return f"{float(value):.6g}"


def _fmt_adjusted(value, precision):
    if precision == "full":
        return repr(float(value))
    return f"{float(value):.4f}"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wholm",
                     description="Weighted Holm procedures toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_adjust = sub.add_parser("adjust", help="adjusted (weighted) p-values")
    p_adjust.add_argument("--input", required=True, help="problem CSV")
    p_adjust.add_argument("--alpha", required=True, type=_alpha_arg)
    p_adjust.add_argument("--output", help="output CSV (default: stdout)")
    p_adjust.add_argument("--precision", choices=("table", "full"),
                          default="table")

    p_ctp = sub.add_parser("ctp", help="full closed-testing decision table")
    p_ctp.add_argument("--input", required=True, help="problem CSV")
    p_ctp.add_argument("--alpha", required=True, type=_alpha_arg)
    p_ctp.add_argument("--procedure", required=True, choices=("whp", "wap"))
    p_ctp.add_argument("--output", help="output CSV (default: stdout)")

    p_graph = sub.add_parser("graph", help="run the graphical procedure")
    p_graph.add_argument("--input", required=True, help="problem CSV")
    p_graph.add_argument("--alpha", required=True, type=_alpha_arg)
    p_graph.add_argument("--ordering", required=True,
                         choices=("weighted", "raw"))
    p_graph.add_argument("--output-dir", required=True)
    p_graph.add_argument("--precision", choices=("table", "full"),
                         default="table")

    p_sim = sub.add_parser("simulate", help="FWER/power Monte Carlo study")
    p_sim.add_argument("--config", required=True,
                       help="key=value file: m, pi0, rho_list, n, mu_alt, "
                            "alpha, reps, scenario, seed; m, pi0, rho_list "
                            "and scenario take comma lists")
    p_sim.add_argument("--output", help="output CSV (default: stdout)")
    p_sim.add_argument("--seed", type=_int_arg("--seed", 0), help="override the config seed")

    p_sharp = sub.add_parser("sharpness",
                             help="empirical FWER at the least favorable configuration")
    p_sharp.add_argument("--procedure", required=True, choices=("whp", "wap"))
    p_sharp.add_argument("--weights", required=True,
                         help="comma-separated positive weights")
    p_sharp.add_argument("--alpha", type=_alpha_arg, default=0.05)
    p_sharp.add_argument("--reps", type=_int_arg("--reps", 1), default=200_000)
    p_sharp.add_argument("--seed", type=_int_arg("--seed", 0), required=True)

    p_check = sub.add_parser("check", help="run the randomized property battery")
    p_check.add_argument("--trials", type=_int_arg("--trials", 1), default=10_000)
    p_check.add_argument("--seed", type=_int_arg("--seed", 0), required=True)
    return parser


def _open_output(path):
    if path is None:
        return sys.stdout, False
    return open(path, "w", newline="", encoding="utf-8"), True


def _cmd_adjust(args) -> int:
    problem = load_problem_csv(args.input, args.alpha)
    # a hypothesis is rejected iff its adjusted value is at most alpha
    whp_values = adjusted_whp(problem).values
    wap_values = adjusted_wap(problem).values
    out, close = _open_output(args.output)
    try:
        writer = csv.writer(out)
        writer.writerow(["hypothesis", "p_value", "weight", "adj_whp",
                         "adj_wap", "reject_whp", "reject_wap"])
        for i, label in enumerate(problem.labels):
            writer.writerow([
                label,
                _fmt(problem.p[i], args.precision),
                _fmt(problem.w[i], args.precision),
                _fmt_adjusted(whp_values[i], args.precision),
                _fmt_adjusted(wap_values[i], args.precision),
                str(whp_values[i] <= problem.alpha).lower(),
                str(wap_values[i] <= problem.alpha).lower(),
            ])
    finally:
        if close:
            out.close()
    return EXIT_OK


def _cmd_ctp(args) -> int:
    problem = load_problem_csv(args.input, args.alpha)
    local = whp_local_test if args.procedure == "whp" else wap_local_test
    report = ctp(problem, local)
    out, close = _open_output(args.output)
    try:
        writer = csv.writer(out)
        writer.writerow(["subset_bitmask", "rejected"])
        for mask in sorted(report.local_decisions):
            writer.writerow([mask, str(report.local_decisions[mask]).lower()])
    finally:
        if close:
            out.close()
    return EXIT_OK


def _cmd_graph(args) -> int:
    problem = load_problem_csv(args.input, args.alpha)
    ordering = (OrderingKey.WEIGHTED if args.ordering == "weighted"
                else OrderingKey.RAW)
    rejections, trace = run_graphical(problem, ordering)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    stages = dot_stages(trace, initial_graph(problem.w, problem.alpha),
                        labels=problem.labels)
    for k, text in enumerate(stages):
        (outdir / f"stage_{k}.dot").write_text(text + "\n", encoding="utf-8")
    with open(outdir / "rejections.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "hypothesis", "threshold"])
        for step, idx, threshold in rejections.trace:
            writer.writerow([step, problem.labels[idx],
                             _fmt(threshold, args.precision)])
    print(f"{len(stages)} stages written to {outdir}; "
          f"rejected: {sorted(problem.labels[i] for i in rejections.rejected)}")
    return EXIT_OK


def _values(raw, key, convert):
    values = [convert(x.strip()) for x in raw[key].split(",") if x.strip()]
    if not values:
        raise ValueError(f"{key}: no values")
    return values


def _parse_sim_config(path, seed_override):
    """Read a simulate config into its cells, in the order m, pi0, rho,
    scenario."""
    raw = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            raw[key] = value
    required = {"m", "pi0", "rho_list", "n", "mu_alt", "alpha", "reps",
                "scenario", "seed"}
    if seed_override is not None:
        raw["seed"] = str(seed_override)
    missing = required - raw.keys()
    if missing:
        raise ValueError(f"{path}: missing keys: {', '.join(sorted(missing))}")
    try:
        grid = itertools.product(
            _values(raw, "m", int), _values(raw, "pi0", float),
            _values(raw, "rho_list", float),
            _values(raw, "scenario", WeightScenario))
        return [SimulationConfig(
            m=m, pi0=pi0, rho=rho, n=int(raw["n"]),
            mu_alt=float(raw["mu_alt"]), alpha=float(raw["alpha"]),
            reps=int(raw["reps"]), weight_scenario=scenario,
            seed=int(raw["seed"])) for m, pi0, rho, scenario in grid]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_simulate(args) -> int:
    configs = _parse_sim_config(args.config, args.seed)
    out, close = _open_output(args.output)
    try:
        writer = csv.writer(out)
        writer.writerow(["procedure", "m", "pi0", "rho", "scenario", "fwer",
                         "fwer_se", "power", "power_se", "reps", "seed"])
        for config in configs:
            result = run_simulation(config)
            for proc in (Procedure.HOLM, Procedure.WHP, Procedure.WAP):
                rec = result.records[proc]
                writer.writerow([
                    proc.value, config.m, config.pi0, config.rho,
                    config.weight_scenario.value,
                    f"{rec.fwer:.6g}", f"{rec.fwer_se:.6g}",
                    f"{rec.power:.6g}", f"{rec.power_se:.6g}",
                    config.reps, config.seed,
                ])
    finally:
        if close:
            out.close()
    return EXIT_OK


def _cmd_sharpness(args) -> int:
    try:
        weights = [float(x) for x in args.weights.split(",") if x.strip()]
    except ValueError:
        print(f"error: malformed number in --weights: {args.weights}",
              file=sys.stderr)
        return EXIT_USAGE
    procedure = Procedure.WHP if args.procedure == "whp" else Procedure.WAP
    estimate = estimate_sharpness(procedure, weights, len(weights), args.reps,
                                  rng_new(args.seed), alpha=args.alpha)
    print(f"procedure={procedure.value} fwer={estimate.fwer:.6g} "
          f"se={estimate.se:.6g} reps={estimate.reps} seed={args.seed}")
    return EXIT_OK


def _cmd_check(args) -> int:
    results = run_check_battery(args.trials, args.seed)
    all_ok = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
        if not result.passed and result.witness is not None:
            print(f"  witness: {result.witness!r}")
        all_ok &= result.passed
    print(f"{'all checks passed' if all_ok else 'CHECK FAILURES PRESENT'} "
          f"(trials={args.trials}, seed={args.seed})")
    return EXIT_OK if all_ok else EXIT_PROPERTY


_COMMANDS = {
    "adjust": _cmd_adjust,
    "ctp": _cmd_ctp,
    "graph": _cmd_graph,
    "simulate": _cmd_simulate,
    "sharpness": _cmd_sharpness,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    input_path = getattr(args, "input", None) or getattr(args, "config", None)
    if input_path is not None and not Path(input_path).exists():
        print(f"error: no such file: {input_path}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
