"""Acceptance battery: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines as
they are produced.  Each test prints exactly one `[PASS]`/`[FAIL]` line.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from wholm import (OrderingKey, Procedure, SimulationConfig, WeightScenario,
                   adjusted_wap, adjusted_whp, check_monotonicity_condition,
                   estimate_sharpness, find_pvalue_monotonicity_violation,
                   rng_new, run_graphical, run_simulation, t_sf,
                   validate_problem, wap_stepdown, whp_stepdown)
from wholm.battery import check_properties
from wholm.closure import random_corpus
from wholm.montecarlo import _lfc_batch

CORPUS_SIZE = 10_000
CORPUS_SEED = 20240915


def _report(label, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}" + (f" ({detail})" if detail else ""))
    assert ok, label


@pytest.fixture(scope="module")
def corpus():
    return random_corpus(CORPUS_SIZE, seed=CORPUS_SEED, m_max=8)


def test_criterion_1_adjusted_value_goldens():
    three = validate_problem(["H1", "H2", "H3"],
                             [0.01, 0.014, 0.3], [1.0, 2.0, 3.0], 0.05)
    ards = validate_problem(["H1", "H2", "H3", "H4"],
                            [0.024, 0.003, 0.026, 0.002],
                            [0.9, 0.1, 0.5, 0.5], 0.05)
    diabetes = validate_problem(["H1", "H2", "H3", "H4", "H5", "H6"],
                                [0.011, 0.023, 0.006, 0.018, 0.042, 0.088],
                                [6.0, 6.0, 5.0, 4.0, 2.0, 1.0], 0.05)
    ok = True
    ok &= adjusted_wap(three).values == pytest.approx((0.06, 0.06, 0.3),
                                                      abs=1e-12)
    ok &= adjusted_whp(three).values == pytest.approx((0.042, 0.042, 0.3),
                                                      abs=1e-12)
    ok &= adjusted_whp(ards).values == pytest.approx(
        (0.040, 0.040, 0.040, 0.008), abs=1e-12)
    ok &= adjusted_wap(ards).values == pytest.approx(
        (0.045, 0.045, 0.045, 0.008), abs=1e-12)
    ok &= adjusted_whp(diabetes).values == pytest.approx(
        (0.0348, 0.0498, 0.0288, 0.0498, 0.0630, 0.0880), abs=5e-5)
    ok &= adjusted_wap(diabetes).values == pytest.approx(
        (0.0348, 0.0585, 0.0288, 0.0585, 0.0630, 0.0880), abs=5e-5)
    _report("criterion 1: adjusted p-value goldens", bool(ok))


def test_criterion_2_decision_goldens():
    coincident = validate_problem(["H1", "H2", "H3"],
                                  [0.01, 0.03, 0.09], [1.0, 2.0, 3.0], 0.05)
    divergent = validate_problem(["H1", "H2", "H3"],
                                 [0.01, 0.014, 0.3], [1.0, 2.0, 3.0], 0.05)
    ok = True
    ok &= whp_stepdown(coincident).rejected == frozenset()
    ok &= wap_stepdown(coincident).rejected == frozenset()
    ok &= wap_stepdown(divergent).rejected == frozenset()
    ok &= whp_stepdown(divergent).rejected == {0, 1}
    # graphical runs must tell the same story
    ok &= run_graphical(divergent, OrderingKey.WEIGHTED)[0].rejected == {0, 1}
    ok &= run_graphical(divergent, OrderingKey.RAW)[0].rejected == frozenset()
    ok &= run_graphical(coincident, OrderingKey.WEIGHTED)[0].rejected == frozenset()
    _report("criterion 2: decision goldens", bool(ok))


@pytest.fixture(scope="module")
def properties(corpus):
    """The property runner over the whole corpus, with its wall time."""
    start = time.perf_counter()
    results = {result.name: result for result in check_properties(corpus)}
    return results, time.perf_counter() - start


def _failures(properties, names):
    results, _ = properties
    return [f"{results[name].detail} for {name}, first {results[name].witness}"
            for name in names if not results[name].passed]


def test_criterion_3_oracle_equivalence(properties):
    elapsed = properties[1]
    failures = _failures(properties, (
        "ctp-equivalence-whp", "ctp-equivalence-wap",
        "graphical-equivalence-whp", "graphical-equivalence-wap"))
    if elapsed >= 60.0:
        failures.append(f"property runner took {elapsed:.1f}s")
    _report("criterion 3: step-down == closed testing == graphical",
            not failures, "; ".join(failures)
            or f"{CORPUS_SIZE} problems, {elapsed:.1f}s")


def test_criterion_4_dominance(properties):
    failures = _failures(properties, ("rejection-dominance",
                                      "adjusted-dominance"))
    _report("criterion 4: rejection and adjusted-value dominance",
            not failures, "; ".join(failures))


def test_criterion_5_structure_checks(properties):
    failures = _failures(properties, ("monotonicity-whp", "consonance-whp",
                                      "consonance-wap"))
    found = find_pvalue_monotonicity_violation(Procedure.WAP,
                                               trials=100_000, seed=CORPUS_SEED)
    if found is None:
        failures.append("wap-pvalue-monotonicity-counterexample")
    else:
        problem, lowered = found
        if not (all(q <= p for q, p in zip(lowered.p, problem.p))
                and len(wap_stepdown(lowered).rejected)
                < len(wap_stepdown(problem).rejected)):
            failures.append("wap-counterexample-not-verified")
    if find_pvalue_monotonicity_violation(Procedure.WHP, trials=20_000,
                                          seed=CORPUS_SEED) is not None:
        failures.append("whp-pvalue-monotonicity")
    _report("criterion 5: structure checks", not failures, "; ".join(failures))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "by step 1 of the closure module docstring, subset totals are monotone "
    "under inclusion, and the first-ranked member, which takes the whole "
    "budget, stays first in every subset holding it, so its share can only "
    "grow as the intersection shrinks: the critical-share condition holds "
    "for every problem and no counterexample can exist"))
def test_criterion_5_wap_share_condition_counterexample(corpus):
    witness = None
    for problem in corpus:
        if problem.m < 2:
            continue
        report = check_monotonicity_condition(problem, Procedure.WAP)
        if not report.holds:
            witness = problem
            break
    _report("criterion 5b: critical-share counterexample for raw-ordered "
            "procedure", witness is not None)


def test_criterion_6_sharpness():
    start = time.perf_counter()
    whp = estimate_sharpness(Procedure.WHP, [1.0, 2.0, 3.0], 3, 200_000,
                             rng_new(CORPUS_SEED))
    wap = estimate_sharpness(Procedure.WAP, [1.0, 2.0, 3.0], 3, 200_000,
                             rng_new(CORPUS_SEED + 1))
    w = np.array([1.0, 2.0, 3.0])
    samples = _lfc_batch(w, 1.0 / w.sum(), rng_new(CORPUS_SEED + 2),
                         200_000)[0]
    grid = np.linspace(0.01, 0.99, 100)
    deviation = max(
        float(np.max(np.abs((samples[:, col][:, None] <= grid[None, :]).mean(axis=0)
                            - grid)))
        for col in range(3))
    elapsed = time.perf_counter() - start
    ok = (0.045 <= whp.fwer <= 0.055 and 0.045 <= wap.fwer <= 0.055
          and deviation <= 0.01 and elapsed < 30.0)
    _report("criterion 6: least-favorable sharpness", ok,
            f"whp={whp.fwer:.4f}, wap={wap.fwer:.4f}, "
            f"grid dev={deviation:.4f}, {elapsed:.1f}s")


def test_criterion_7_desk_scale_simulation():
    start = time.perf_counter()
    fwer_cap = 0.05 + 3 * math.sqrt(0.05 * 0.95 / 1000)
    problems = []
    for m in (5, 10):
        for pi0 in (0.4, 0.8):
            for rho in (0.0, 0.5):
                for scenario in (WeightScenario.S2, WeightScenario.S4):
                    config = SimulationConfig(
                        m=m, pi0=pi0, rho=rho, n=15, mu_alt=0.7, alpha=0.05,
                        reps=1000, weight_scenario=scenario,
                        seed=CORPUS_SEED + m)
                    result = run_simulation(config)
                    rec = result.records
                    cell = f"m={m} pi0={pi0} rho={rho} {scenario.value}"
                    for proc in (Procedure.HOLM, Procedure.WHP, Procedure.WAP):
                        if rec[proc].fwer > fwer_cap:
                            problems.append(f"{cell}: fwer {proc.value}")
                    if rec[Procedure.WHP].power < rec[Procedure.WAP].power:
                        problems.append(f"{cell}: whp<wap power")
                    if scenario is WeightScenario.S2:
                        slack = 2 * max(rec[Procedure.WHP].power_se,
                                        rec[Procedure.HOLM].power_se)
                        if rec[Procedure.WHP].power < rec[Procedure.HOLM].power - slack:
                            problems.append(f"{cell}: whp<holm-2se")
                    if scenario is WeightScenario.S4 and pi0 == 0.4:
                        slack = 2 * max(rec[Procedure.HOLM].power_se,
                                        rec[Procedure.WAP].power_se)
                        if rec[Procedure.HOLM].power < rec[Procedure.WAP].power - slack:
                            problems.append(f"{cell}: holm<wap-2se")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 120.0
    _report("criterion 7: desk-scale simulation grid", ok,
            "; ".join(problems) or f"16 cells clean, {elapsed:.1f}s")


def _t_density(x, df):
    c = math.exp(math.lgamma((df + 1) / 2)
                 - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    return c * (1.0 + x * x / df) ** (-(df + 1) / 2)


def test_criterion_8_t_numerics():
    gen = rng_new(CORPUS_SEED)
    worst = 0.0
    for _ in range(100):
        df = int(gen.integers(2, 60))
        t = float(gen.normal(scale=3.0))
        oracle, _ = quad(_t_density, t, np.inf, args=(df,),
                         epsabs=1e-13, limit=300)
        worst = max(worst, abs(t_sf(t, df) - oracle))
    exact_half = all(t_sf(0.0, df) == 0.5 for df in (1, 2, 14, 50))
    # super-uniformity of null p-values under independence
    draws = gen.standard_normal((20_000, 15))
    tstats = draws.mean(axis=1) / (draws.std(axis=1, ddof=1) / math.sqrt(15))
    pvals = t_sf(tstats, 14)
    super_uniform = all(
        (pvals <= x).mean() <= x + 3 * math.sqrt(x * (1 - x) / 20_000)
        for x in np.linspace(0.01, 0.99, 25))
    ok = worst <= 1e-9 and exact_half and super_uniform
    _report("criterion 8: t survival numerics", ok,
            f"max |err|={worst:.2e}")
