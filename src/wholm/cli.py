"""Command-line front door.

Subcommands: `adjust`, `ctp`, `graph`, `simulate`, `sharpness`, `check`.
Exit codes: 0 success, 1 usage error, 2 data error, 3 property failure.
All randomized subcommands require an explicit seed so published results can
be replayed byte for byte.

Every numeric flag and `--weights` is converted by its argparse type, so a
malformed or out-of-range value is a usage error that the parser reports.

Every table (`adjust`, `ctp`, `simulate` and `graph`'s `rejections.csv`) is
written by one call of `_table`, which takes the header and whole columns of
text and writes them as the bytes `csv.writer` would, a block of rows in one
string.  A command computes its whole table before that call, so a run that
fails writes no table.  Every number in a table is formatted by
`_fmt_column`, which maps a whole column of floats to text in one pass.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import re
import sys
from contextlib import nullcontext
from pathlib import Path

from numpy.random import default_rng

from . import __version__
from .adjust import adjusted_wap, adjusted_whp
from .battery import run_check_battery
from .closure import ctp, wap_local_test, whp_local_test
from .core import OrderingKey, load_problem_csv
from .graphical import GraphInvariantError, dot_stages, run_graphical
from .montecarlo import (SimulationConfig, WeightScenario, estimate_sharpness,
                         run_simulation)
from .procedures import Procedure

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROPERTY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _checked_arg(flag, convert, holds=lambda value: True, requirement=""):
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
# no weight at all (`--weights ,`) is the data error of `estimate_sharpness`
_weights_arg = _checked_arg(
    "--weights", lambda text: [float(x) for x in text.split(",") if x.strip()])


def _fmt_column(values, precision="table", table=".6g"):
    """Each of the floats `values` as its round-tripping `repr` at `full`
    precision, else in the `table` format."""
    if precision == "full":
        return map(repr, values)
    return map(f"{{:{table}}}".format, values)


def _flags(rejected, m):
    """A column of m flags: "true" at the indices in `rejected`, else
    "false"."""
    flags = ["false"] * m
    for i in rejected:
        flags[i] = "true"
    return flags


# rows a table writes in one string: all of `ctp`'s at m = 12, while a
# larger table's memory stays that of one block (`adjust` at m = 100,000
# peaked at 138 MB with blocks of 65,536 rows and 105 MB with these)
TABLE_BLOCK_ROWS = 4096


def _csv_field(text):
    """`text` as `csv.writer` writes a field: wrapped in double quotes, with
    the ones inside doubled, if it holds a comma, a double quote, CR or
    LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_lines(rows):
    """The nonempty list `rows`, tuples of texts of one length, as CSV lines
    ending in CRLF, in one string."""
    text = "\r\n".join([*map(",".join, rows), ""])
    # every comma, double quote, CR or LF beyond the separators and the line
    # ends is inside a field, which then has to be quoted
    n = len(rows)
    if ('"' in text or text.count(",") != n * (len(rows[0]) - 1)
            or text.count("\r") != n or text.count("\n") != n):
        text = "\r\n".join(
            [*(",".join(map(_csv_field, row)) for row in rows), ""])
    return text


def _table(path, header, columns):
    """Write one CSV table, bytes as `csv.writer` writes them, into the file
    at `path`, or onto stdout when `path` is None: the `header`, then the
    rows of the text `columns`, in one string per `TABLE_BLOCK_ROWS` rows."""
    with (nullcontext(sys.stdout) if path is None
          else open(path, "w", newline="", encoding="utf-8")) as out:
        rows = itertools.chain([tuple(header)], zip(*columns))
        while block := list(itertools.islice(rows, TABLE_BLOCK_ROWS)):
            try:
                out.write(_csv_lines(block))
            except UnicodeEncodeError:
                # on a stdout that cannot encode a label, the lines before
                # it go out and the error places it in its own line, as
                # `csv.writer`'s writes of one line each did
                for row in block:
                    out.write(_csv_lines([row]))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wholm",
                     description="Weighted Holm procedures toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    output = "output CSV (default: stdout)"
    precision = {"choices": ("table", "full"), "default": "table"}
    seed = _int_arg("--seed", 0)

    def problem_command(name, help):
        command = sub.add_parser(name, help=help)
        command.add_argument("--input", required=True, help="problem CSV")
        command.add_argument("--alpha", required=True, type=_alpha_arg)
        return command

    p_adjust = problem_command("adjust", "adjusted (weighted) p-values")
    p_adjust.add_argument("--output", help=output)
    p_adjust.add_argument("--precision", **precision)

    p_ctp = problem_command("ctp", "full closed-testing decision table")
    p_ctp.add_argument("--procedure", required=True, choices=("whp", "wap"))
    p_ctp.add_argument("--output", help=output)

    p_graph = problem_command("graph", "run the graphical procedure")
    p_graph.add_argument("--ordering", required=True,
                         choices=("weighted", "raw"))
    p_graph.add_argument("--output-dir", required=True)
    p_graph.add_argument("--precision", **precision)

    p_sim = sub.add_parser("simulate", help="FWER/power Monte Carlo study")
    p_sim.add_argument("--config", required=True,
                       help="key=value file: m, pi0, rho_list, n, mu_alt, "
                            "alpha, reps, scenario, seed; m, pi0, rho_list "
                            "and scenario take comma lists")
    p_sim.add_argument("--output", help=output)
    p_sim.add_argument("--seed", type=seed, help="override the config seed")

    p_sharp = sub.add_parser("sharpness",
                             help="empirical FWER at the least favorable configuration")
    p_sharp.add_argument("--procedure", required=True, choices=("whp", "wap"))
    p_sharp.add_argument("--weights", required=True, type=_weights_arg,
                         help="comma-separated positive weights")
    p_sharp.add_argument("--alpha", type=_alpha_arg, default=0.05)
    p_sharp.add_argument("--reps", type=_int_arg("--reps", 1), default=200_000)
    p_sharp.add_argument("--seed", type=seed, required=True)

    p_check = sub.add_parser("check", help="run the randomized property battery")
    p_check.add_argument("--trials", type=_int_arg("--trials", 1), default=10_000)
    p_check.add_argument("--seed", type=seed, required=True)
    return parser


# built on first use and reused by every `main` call: a parse leaves the
# parser as it was
_parser = functools.cache(build_parser)


def _cmd_adjust(args) -> int:
    problem = load_problem_csv(args.input, args.alpha)
    # a hypothesis is rejected iff its adjusted value is at most alpha
    whp, wap = adjusted_whp(problem), adjusted_wap(problem)
    _table(args.output, ["hypothesis", "p_value", "weight", "adj_whp",
                         "adj_wap", "reject_whp", "reject_wap"],
           [problem.labels, _fmt_column(problem.p, args.precision),
            _fmt_column(problem.w, args.precision),
            _fmt_column(whp.values, args.precision, ".4f"),
            _fmt_column(wap.values, args.precision, ".4f"),
            _flags(whp.rejected, problem.m), _flags(wap.rejected, problem.m)])
    return EXIT_OK


def _cmd_ctp(args) -> int:
    problem = load_problem_csv(args.input, args.alpha)
    local = whp_local_test if args.procedure == "whp" else wap_local_test
    report = ctp(problem, local)
    decisions = report.local_decisions
    # in increasing mask order, the order `ctp` gives them in
    _table(args.output, ["subset_bitmask", "rejected"],
           [map(str, decisions), ("true" if rejected else "false"
                                  for rejected in decisions.values())])
    return EXIT_OK


def _cmd_graph(args) -> int:
    problem = load_problem_csv(args.input, args.alpha)
    rejections, trace = run_graphical(problem, OrderingKey(args.ordering))
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    stages = dot_stages(trace, labels=problem.labels)
    for k, text in enumerate(stages):
        (outdir / f"stage_{k}.dot").write_text(text + "\n", encoding="utf-8")
    # stage files of an earlier run with more stages
    for name in os.listdir(outdir):
        stage = re.fullmatch(r"stage_([0-9]+)\.dot", name)
        if stage and int(stage[1]) >= len(stages):
            (outdir / name).unlink()
    trace = rejections.trace
    _table(outdir / "rejections.csv", ["step", "hypothesis", "threshold"],
           [[str(step) for step, _, _ in trace],
            [problem.labels[idx] for _, idx, _ in trace],
            _fmt_column([threshold for _, _, threshold in trace],
                        args.precision)])
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
    # every cell runs before the table is opened, so a cell that fails
    # leaves no table behind
    rows = []
    for config in _parse_sim_config(args.config, args.seed):
        result = run_simulation(config)
        for proc in (Procedure.HOLM, Procedure.WHP, Procedure.WAP):
            rec = result.records[proc]
            rows.append([
                proc.value, str(config.m), str(config.pi0), str(config.rho),
                config.weight_scenario.value,
                *_fmt_column([rec.fwer, rec.fwer_se, rec.power,
                              rec.power_se]),
                str(config.reps), str(config.seed)])
    _table(args.output, ["procedure", "m", "pi0", "rho", "scenario", "fwer",
                         "fwer_se", "power", "power_se", "reps", "seed"],
           zip(*rows))
    return EXIT_OK


def _cmd_sharpness(args) -> int:
    procedure, gen = Procedure(args.procedure), default_rng(args.seed)
    estimate = estimate_sharpness(procedure, args.weights, len(args.weights),
                                  args.reps, gen, alpha=args.alpha)
    fwer, se = _fmt_column([estimate.fwer, estimate.se])
    print(f"procedure={procedure.value} fwer={fwer} se={se} "
          f"reps={estimate.reps} seed={args.seed}")
    return EXIT_OK


def _cmd_check(args) -> int:
    results = run_check_battery(args.trials, args.seed)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
        if not result.passed and result.witness is not None:
            print(f"  witness: {result.witness!r}")
    all_ok = all(result.passed for result in results)
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
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        path = getattr(args, "input", None) or getattr(args, "config", None)
        if path is not None and not Path(path).exists():
            parser.error(f"no such file: {path}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, GraphInvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
