"""Span tracing around the public functions of each wholm layer.

The tracer wraps a function once and rebinds the wrapper in every `wholm`
module namespace that holds the original (for example both
`wholm.procedures.whp_stepdown` and `wholm.montecarlo.whp_stepdown`), so
calls between modules are traced too.  Nothing under `src/` changes, and the
rebinding happens only in a process that asked for a traced run.

A span records its name, start, end, parent span and op id.  Spans live in
flat arrays in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# layer -> (module, public functions given a span)
SPANNED = {
    "core": ("wholm.core", ("load_problem_csv", "validate_problem")),
    "procedures": ("wholm.procedures",
                   ("whp_stepdown", "wap_stepdown", "holm_stepdown")),
    "adjust": ("wholm.adjust", ("adjusted_whp", "adjusted_wap")),
    "closure": ("wholm.closure",
                ("ctp", "check_consonance", "check_monotonicity_condition",
                 "find_pvalue_monotonicity_violation")),
    "graphical": ("wholm.graphical",
                  ("run_graphical", "reject_and_update", "dot_stages")),
    "montecarlo": ("wholm.montecarlo",
                   ("run_simulation", "estimate_sharpness",
                    "sample_equicorrelated", "t_sf", "weight_scenario")),
    "battery": ("wholm.battery", ("run_check_battery",)),
    "cli": ("wholm.cli", ("main",)),
}
# one span per CLI subcommand the workloads use
CLI_SUBCOMMANDS = ("adjust", "ctp", "graph")
# The local tests run once per subset (65535 times for one ctp call at
# m = 16), so they get a call counter instead of a span each.
LOCAL_TESTS = ("whp_local_test", "wap_local_test")

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, (_, fns) in SPANNED.items()
                   for fn in fns) + tuple(f"cli.{c}" for c in CLI_SUBCOMMANDS)
# counters summed per pass
COUNT_UNITS = {
    "closure.local_test.calls": "count",
    "graphical.dot_bytes": "B",
    "cli.bytes_written": "B",
}
# useful work over attempted work, as (numerator, denominator) sums
SHARES = ("closure.witness_trials_share", "montecarlo.resampled_share",
          "procedures.steps_walked_share")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNT_UNITS)
    units.update((name, "share") for name in SHARES)
    units["trace.overhead_ratio"] = "ratio"
    units["setup.import_wholm_s"] = "s"
    return units


def _cli_bytes(argv):
    """Bytes in the files a `wholm` CLI call was told to write."""
    total = 0
    for flag, value in zip(argv, argv[1:]):
        path = Path(value)
        if flag == "--output" and path.is_file():
            total += path.stat().st_size
        elif flag == "--output-dir" and path.is_dir():
            total += sum(f.stat().st_size for f in path.iterdir())
    return total


class Tracer:
    """Records spans and counters while `active` is true.

    Outside an op (input generation, output checks) the wrappers call
    straight through, so checks never show up as layer time.
    """

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.names = ["op"]
        self._name = array("i")
        self._op = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self.counts = dict.fromkeys(COUNT_UNITS, 0)
        self.shares = {name: [0, 0] for name in SHARES}

    def _open(self, name_id):
        idx = len(self._start)
        self._name.append(name_id)
        self._op.append(self.op_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def _close(self, idx):
        self._end[idx] = perf_counter()
        self._stack.pop()

    def op(self, op_id, fn):
        """Run one op under a root span carrying its id."""
        self.op_id = op_id
        self.active = True
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)
            self.active = False

    def wrap(self, name, fn, after=None):
        name_id = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return traced

    def count_calls(self, counter, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Rebind every traced function in every loaded wholm module."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "wholm" or name.startswith("wholm.")]
        for layer, (module, fns) in SPANNED.items():
            for fn_name in fns:
                orig = getattr(sys.modules[module], fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", orig,
                                    _AFTER.get(fn_name))
                _rebind(modules, orig, wrapper)
        closure = sys.modules["wholm.closure"]
        for fn_name in LOCAL_TESTS:
            orig = getattr(closure, fn_name)
            _rebind(modules, orig,
                    self.count_calls("closure.local_test.calls", orig))
        commands = sys.modules["wholm.cli"]._COMMANDS
        for sub in CLI_SUBCOMMANDS:
            commands[sub] = self.wrap(f"cli.{sub}", commands[sub])

    def spans(self):
        """Structured array of every span recorded so far."""
        out = np.empty(len(self._start), dtype=[
            ("name", "i4"), ("op", "i4"), ("parent", "i4"),
            ("start", "f8"), ("end", "f8")])
        out["name"] = np.frombuffer(self._name, dtype=np.int32)
        out["op"] = np.frombuffer(self._op, dtype=np.int32)
        out["parent"] = np.frombuffer(self._parent, dtype=np.int32)
        out["start"] = np.frombuffer(self._start, dtype=np.float64)
        out["end"] = np.frombuffer(self._end, dtype=np.float64)
        return out

    def save(self, path):
        np.savez(path, spans=self.spans(), names=np.array(self.names))

    def layer_metrics(self, passes):
        """calls and self time per span name, and the counters, per pass."""
        spans = self.spans()
        names, parent = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(spans))
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=dur - child_time,
                             minlength=len(self.names))
        out = {}
        for name_id, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = calls[name_id] / passes
            out[f"{name}.self_s"] = self_s[name_id] / passes
        for name, value in self.counts.items():
            out[name] = value / passes
        shares = {name: list(pair) for name, pair in self.shares.items()}
        # each witness trial validates the drawn and the lowered problem once
        ids = {name: i for i, name in enumerate(self.names)}
        parent_name = np.where(has_parent, names[parent], -1)
        in_search = ((names == ids["core.validate_problem"]) & (
            parent_name == ids["closure.find_pvalue_monotonicity_violation"]))
        shares["closure.witness_trials_share"][0] = int(in_search.sum()) // 2
        for name, (num, den) in shares.items():
            out[name] = num / den if den else 0.0
        return out


def _rebind(modules, orig, wrapper):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


def _after_simulation(tracer, args, kwargs, result):
    share = tracer.shares["montecarlo.resampled_share"]
    share[0] += result.resampled
    share[1] += result.config.reps


def _after_stepdown(tracer, args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    share = tracer.shares["procedures.steps_walked_share"]
    share[0] += len(result.trace)
    share[1] += problem.m


def _after_dot(tracer, args, kwargs, result):
    tracer.counts["graphical.dot_bytes"] += sum(len(s) for s in result)


def _after_witness_search(tracer, args, kwargs, result):
    budget = kwargs["trials"] if "trials" in kwargs else args[1]
    tracer.shares["closure.witness_trials_share"][1] += budget


def _after_cli(tracer, args, kwargs, result):
    tracer.counts["cli.bytes_written"] += _cli_bytes(list(args[0]))


_AFTER = {
    "run_simulation": _after_simulation,
    "whp_stepdown": _after_stepdown,
    "wap_stepdown": _after_stepdown,
    "dot_stages": _after_dot,
    "find_pvalue_monotonicity_violation": _after_witness_search,
    "main": _after_cli,
}
