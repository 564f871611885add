"""Output checks, run outside the timed region.

Each checker returns a list of failure messages; an empty list means the
output is right.  Every check rests on an invariant the paper proves:
WAP rejects a subset of what WHP rejects, closed testing and the graphical
run reproduce the step-downs, an adjusted value is at or below alpha exactly
when its hypothesis is rejected, and the FWER is at most alpha, with
equality at the least favorable configuration.
"""

from __future__ import annotations

import csv
import io
import math

# Checks the battery reports; a battery missing one passes nothing.
BATTERY_CHECKS = frozenset((
    "ctp-equivalence-whp", "ctp-equivalence-wap",
    "graphical-equivalence-whp", "graphical-equivalence-wap",
    "rejection-dominance", "adjusted-dominance",
    "consonance-whp", "consonance-wap", "monotonicity-whp",
    "pvalue-monotonicity-violation-wap", "pvalue-monotonicity-whp"))


def simulation_cell(result, alpha):
    """WAP is a subset of WHP on every replicate, so its FWER and power are
    never larger; no sample is redrawn; no FWER exceeds alpha by more than
    5 SE, with the SE taken at alpha itself."""
    failures = []
    by_name = {proc.value: rec for proc, rec in result.records.items()}
    whp, wap = by_name["whp"], by_name["wap"]
    if wap.fwer > whp.fwer:
        failures.append(f"FWER(WAP)={wap.fwer} > FWER(WHP)={whp.fwer}")
    if wap.power > whp.power:
        failures.append(f"power(WAP)={wap.power} > power(WHP)={whp.power}")
    if result.resampled != 0:
        failures.append(f"{result.resampled} zero-variance samples redrawn")
    limit = alpha + 5 * math.sqrt(alpha * (1 - alpha) / result.config.reps)
    for name, rec in sorted(by_name.items()):
        if rec.fwer > limit:
            failures.append(f"FWER({name})={rec.fwer} exceeds alpha + 5 SE "
                            f"({limit:.4g})")
    return failures


def sharpness(estimate, alpha):
    """The least favorable configuration attains alpha: the estimate lies
    within 5 SE of alpha, with the SE taken at alpha itself."""
    se = math.sqrt(alpha * (1 - alpha) / estimate.reps)
    if abs(estimate.fwer - alpha) > 5 * se:
        return [f"sharpness FWER {estimate.fwer} is more than 5 SE "
                f"({5 * se:.4g}) from alpha {alpha}"]
    return []


def battery(results):
    """`run_check_battery`: every check present and passed.  The battery
    compares closed testing and the graphical run with the step-downs, and
    checks dominance, consonance and monotonicity."""
    failures = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    missing = BATTERY_CHECKS - {r.name for r in results if r.passed}
    if missing:
        failures.append(f"battery checks missing or failed: {sorted(missing)}")
    return failures


def _closure(m, decisions):
    """Indices that no locally accepted subset holds."""
    accepted = 0
    for mask, rejected in decisions:
        if not rejected:
            accepted |= mask
    return {i for i in range(m) if not accepted >> i & 1}


def ctp_report(report, m, stepdown_rejected):
    """`ctp`: one local decision per nonempty subset, and both the report's
    rejections and the closure of its local decisions equal the step-down."""
    decisions = report.local_decisions
    if sorted(decisions) != list(range(1, 1 << m)):
        return [f"{len(decisions)} local decisions, expected one per each of "
                f"{2 ** m - 1} subsets"]
    failures = []
    rejected = set(report.elementary_rejections.rejected)
    if rejected != set(stepdown_rejected):
        failures.append(f"ctp rejects {sorted(rejected)}, step-down rejects "
                        f"{sorted(stepdown_rejected)}")
    closure = _closure(m, decisions.items())
    if closure != rejected:
        failures.append(f"closing the local decisions rejects "
                        f"{sorted(closure)}, the report {sorted(rejected)}")
    return failures


def holds(report):
    """Consonance and the monotonicity condition hold (both are proved)."""
    return [] if report.holds is True else [f"does not hold: {report}"]


def graphical(result, stepdown):
    """`run_graphical`: the same rejections, in the same order, as the
    step-down, and one graph update per rejection."""
    rejections, trace = result
    got = [i for _, i, _ in rejections.trace]
    want = [i for _, i, _ in stepdown.trace]
    failures = []
    if got != want or rejections.rejected != stepdown.rejected:
        failures.append(f"graphical rejects {got}, step-down rejects {want}")
    if len(trace.steps) != len(got):
        failures.append(f"{len(trace.steps)} graph updates for "
                        f"{len(got)} rejections")
    return failures


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def cli_adjust(code, text, problem, whp_rejected, wap_rejected, full):
    """`wholm adjust`: decisions equal the library step-downs, WAP's are a
    subset of WHP's, and at full precision adj <= alpha iff rejected."""
    if code != 0:
        return [f"exit code {code}"]
    rows = _rows(text)
    if rows[:1] != [["hypothesis", "p_value", "weight", "adj_whp", "adj_wap",
                     "reject_whp", "reject_wap"]]:
        return [f"unexpected header {rows[:1]}"]
    rows = rows[1:]
    if [r[0] for r in rows] != list(problem.labels):
        return ["rows do not list the hypotheses in input order"]
    failures = []
    flags = {"true": True, "false": False}
    for i, (label, _, _, adj_whp, adj_wap, rej_whp, rej_wap) in enumerate(rows):
        rej_whp, rej_wap = flags.get(rej_whp), flags.get(rej_wap)
        if rej_whp != (i in whp_rejected) or rej_wap != (i in wap_rejected):
            failures.append(f"{label}: reject columns differ from the step-downs")
        if rej_wap and not rej_whp:
            failures.append(f"{label}: rejected by WAP but not by WHP")
        if full and ((float(adj_whp) <= problem.alpha) != rej_whp
                     or (float(adj_wap) <= problem.alpha) != rej_wap):
            failures.append(f"{label}: adjusted value and decision disagree")
    return failures


def cli_ctp(code, text, m, stepdown_rejected):
    """`wholm ctp`: one row per nonempty subset, and closing the table (an
    index is rejected iff no accepted subset holds it) gives the step-down."""
    if code != 0:
        return [f"exit code {code}"]
    rows = _rows(text)
    if rows[:1] != [["subset_bitmask", "rejected"]]:
        return [f"unexpected header {rows[:1]}"]
    rows = rows[1:]
    if [int(mask) for mask, _ in rows] != list(range(1, 1 << m)):
        return [f"{len(rows)} rows, expected one per each of {2 ** m - 1} subsets"]
    closure = _closure(m, ((int(mask), decision == "true")
                           for mask, decision in rows))
    if closure != set(stepdown_rejected):
        return [f"closed table rejects {sorted(closure)}, "
                f"step-down rejects {sorted(stepdown_rejected)}"]
    return []


def cli_graph(code, files, labels, stepdown):
    """`wholm graph`: rejections.csv lists the step-down's rejections in
    order, and there is one stage file per rejection plus the initial one."""
    if code != 0:
        return [f"exit code {code}"]
    failures = []
    rows = _rows(files.get("rejections.csv", ""))
    got = [row[1] for row in rows[1:]]
    want = [labels[idx] for _, idx, _ in stepdown.trace]
    if got != want:
        failures.append(f"rejections.csv lists {got}, step-down rejects {want}")
    stages = {f"stage_{k}.dot" for k in range(len(want) + 1)}
    if set(files) - {"rejections.csv"} != stages:
        failures.append(f"{len(files) - 1} stage files, expected {len(stages)}")
    return failures
