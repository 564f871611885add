"""Seeded simulation machinery: equicorrelated normal data, one-sided t-test
p-values, the four weight scenarios, FWER/average-power estimation, and the
least-favorable-configuration samplers used to verify that the error bound
alpha is actually attained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.special import betainc

from .core import check_weights
from .procedures import Procedure, batch_stepdown

# Rows of least-favorable samples decided per kernel call.  The kernel's
# (rows, m) temporaries then stay small and cache-resident, so peak memory is
# set by the draws alone, while numpy's per-call overhead is still small
# against the work of a block.
SHARPNESS_BLOCK_ROWS = 1024


class DegenerateSampleError(ValueError):
    pass


def rng_new(seed: int) -> np.random.Generator:
    """Deterministic PCG64 stream; identical seeds give identical draws."""
    return np.random.default_rng(seed)


def t_sf(t, df):
    """Upper-tail probability of the Student-t distribution.

    Evaluated through the regularized incomplete beta function, which is
    accurate to well below 1e-12 in absolute terms.  Accepts arrays.
    """
    t = np.asarray(t, dtype=float)
    df = np.asarray(df, dtype=float)
    x = df / (df + t * t)
    half_tail = 0.5 * betainc(df / 2.0, 0.5, x)
    out = np.where(t >= 0, half_tail, 1.0 - half_tail)
    if out.ndim == 0:
        return float(out)
    return out


def one_sample_t_pvalue(column: Sequence[float]) -> float:
    """One-sided upper-tail p-value for mean = 0 against mean > 0."""
    x = np.asarray(column, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError(f"need at least two observations, got {n}")
    sd = x.std(ddof=1)
    if sd == 0.0:
        raise DegenerateSampleError("sample has zero variance")
    t = x.mean() / (sd / math.sqrt(n))
    return t_sf(t, n - 1)


def sample_equicorrelated(m: int, rho: float, mu: Sequence[float], n: int,
                          gen: np.random.Generator) -> np.ndarray:
    """n rows of m-variate normals with unit variances and common correlation.

    One-factor construction sqrt(rho) * Z0 + sqrt(1 - rho) * Z_i + mu_i,
    exact for every rho in [0, 1).
    """
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"rho must lie in [0, 1): {rho}")
    z0 = gen.standard_normal((n, 1))
    z = gen.standard_normal((n, m))
    return math.sqrt(rho) * z0 + math.sqrt(1.0 - rho) * z + np.asarray(mu)


class WeightScenario(Enum):
    """Weight informativeness settings: S1 strongly separates false nulls from
    true nulls, S4 draws everything from one distribution."""

    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    S4 = "S4"


_SCENARIO_RANGES = {
    WeightScenario.S1: ((1.0, 2.0), (6.0, 10.0)),
    WeightScenario.S2: ((1.0, 2.0), (2.0, 10.0)),
    WeightScenario.S3: ((1.0, 2.0), (2.0, 6.0)),
    WeightScenario.S4: ((1.0, 6.0), (1.0, 6.0)),
}


def weight_scenario(kind: WeightScenario, null_mask: Sequence[bool],
                    gen: np.random.Generator) -> np.ndarray:
    """Draw one weight per hypothesis; true nulls and false nulls use the
    scenario's respective uniform ranges."""
    null_mask = np.asarray(null_mask, dtype=bool)
    (null_lo, null_hi), (alt_lo, alt_hi) = _SCENARIO_RANGES[WeightScenario(kind)]
    w = gen.uniform(alt_lo, alt_hi, size=null_mask.size)
    n_null = int(null_mask.sum())
    if n_null:
        w[null_mask] = gen.uniform(null_lo, null_hi, size=n_null)
    return w


@dataclass(frozen=True)
class SimulationConfig:
    m: int
    pi0: float
    rho: float
    n: int
    mu_alt: float
    alpha: float
    reps: int
    weight_scenario: WeightScenario
    seed: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if not (0.0 < self.pi0 < 1.0):
            raise ValueError(f"pi0 must lie strictly inside (0, 1): {self.pi0}")
        m0 = self.m * self.pi0
        if abs(m0 - round(m0)) > 1e-9:
            raise ValueError(f"m * pi0 must be an integer, got {m0}")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError(f"rho must lie in [0, 1): {self.rho}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1): {self.alpha}")

    @property
    def m0(self) -> int:
        return round(self.m * self.pi0)


@dataclass(frozen=True)
class CellRecord:
    procedure: Procedure
    fwer: float
    fwer_se: float
    power: float
    power_se: float


@dataclass(frozen=True)
class SimulationResult:
    config: SimulationConfig
    records: Dict[Procedure, CellRecord]
    resampled: int


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Monte Carlo estimate of FWER and average power for Holm, WHP and WAP.

    Weights are redrawn every replicate.  Each replicate draws its generator
    from a per-replicate substream of the seed, so results do not depend on
    how replicates are partitioned across workers.  A zero-variance sample
    (probability zero in theory) is redrawn once and counted.

    Replicates are drawn one at a time and decided together: one `t_sf` call
    and one `batch_stepdown` call per procedure cover the whole cell.
    """
    m, m0 = config.m, config.m0
    m1 = m - m0
    reps = config.reps
    mu = np.zeros(m)
    mu[m0:] = config.mu_alt
    null_mask = np.zeros(m, dtype=bool)
    null_mask[:m0] = True

    weights = np.empty((reps, m))
    tstats = np.empty((reps, m))
    resampled = 0
    for r, child in enumerate(np.random.SeedSequence(config.seed).spawn(reps)):
        gen = np.random.default_rng(child)
        weights[r] = weight_scenario(config.weight_scenario, null_mask, gen)
        data = sample_equicorrelated(m, config.rho, mu, config.n, gen)
        sds = data.std(axis=0, ddof=1)
        if np.any(sds == 0.0):
            resampled += 1
            data = sample_equicorrelated(m, config.rho, mu, config.n, gen)
            sds = data.std(axis=0, ddof=1)
            if np.any(sds == 0.0):
                raise DegenerateSampleError("zero-variance sample after resampling")
        tstats[r] = data.mean(axis=0) / (sds / math.sqrt(config.n))
    pvals = t_sf(tstats, config.n - 1)
    bad = ~((pvals >= 0.0) & (pvals <= 1.0))
    if bad.any():
        r, i = np.argwhere(bad)[0]
        raise ValueError(
            f"p-value out of [0, 1] in replicate {r}, hypothesis {i}: {pvals[r, i]}")

    masks = {
        Procedure.HOLM: batch_stepdown(Procedure.WHP, pvals, 1.0, config.alpha),
        Procedure.WHP: batch_stepdown(Procedure.WHP, pvals, weights, config.alpha),
        Procedure.WAP: batch_stepdown(Procedure.WAP, pvals, weights, config.alpha),
    }
    wap_only = masks[Procedure.WAP] & ~masks[Procedure.WHP]
    if wap_only.any():
        r = int(np.argmax(wap_only.any(axis=1)))
        raise RuntimeError(
            f"WAP rejected a hypothesis WHP kept in replicate {r}: "
            f"{np.flatnonzero(wap_only[r]).tolist()}")

    records = {}
    for proc in Procedure:
        mask = masks[proc]
        fwer = int(mask[:, :m0].any(axis=1).sum()) / reps
        # summed in replicate order as Python floats, so the result does not
        # depend on numpy's pairwise summation
        power_sum = 0.0
        if m1:
            for k in mask[:, m0:].sum(axis=1).tolist():
                power_sum += k / m1
        power = power_sum / reps
        records[proc] = CellRecord(
            procedure=proc,
            fwer=fwer,
            fwer_se=math.sqrt(fwer * (1.0 - fwer) / reps),
            power=power,
            power_se=math.sqrt(power * (1.0 - power) / reps),
        )
    return SimulationResult(config=config, records=records, resampled=resampled)


@dataclass(frozen=True)
class LfcSample:
    """Raw p-values for the true nulls (false nulls, when present, sit at the
    front as exact zeros) plus the index selected to carry the small value."""

    p: Tuple[float, ...]
    selected: Optional[int]


def lfc_whp_sampler(weights: Sequence[float], gen: np.random.Generator) -> LfcSample:
    """One draw from the joint distribution that pushes the step-down FWER to
    its bound with all hypotheses true.

    Exactly one index i (chosen with probability proportional to its weight)
    receives p_i = w_i * U with U uniform below 1 / (total weight); every
    other index is pushed above that cut.  Marginally each p-value is exactly
    Unif(0, 1).  A weight that is not positive and finite raises ValueError
    naming its index.
    """
    w = np.asarray(weights, dtype=float)
    if w.size < 1:
        raise ValueError("weights must be a nonempty positive sequence")
    check_weights(w)
    total = w.sum()
    selected = int(gen.choice(w.size, p=w / total))
    p = np.empty(w.size)
    u1 = gen.uniform(0.0, 1.0 / total)
    p[selected] = w[selected] * u1
    for j in range(w.size):
        if j != selected:
            p[j] = w[j] * gen.uniform(1.0 / total, 1.0 / w[j])
    return LfcSample(p=tuple(p), selected=selected)


def _lfc_whp_batch(weights: np.ndarray, gen: np.random.Generator,
                   size: int) -> np.ndarray:
    """Vectorized version of lfc_whp_sampler: (size, m0) raw p-values."""
    w = np.asarray(weights, dtype=float)
    m0 = w.size
    total = w.sum()
    selected = gen.choice(m0, size=size, p=w / total)
    u1 = gen.uniform(0.0, 1.0 / total, size=size)
    u2 = gen.uniform(1.0 / total, 1.0 / w, size=(size, m0))
    p = w * u2
    p[np.arange(size), selected] = w[selected] * u1
    return p


def lfc_stepdown_falsifier(critical_values: Sequence[float],
                           weights: Sequence[float], r: int,
                           gen: np.random.Generator) -> LfcSample:
    """Adversarial draw against any weighted step-down with the given
    nondecreasing critical values.

    The first r - 1 p-values are fixed at zero (false nulls already
    rejected); among the remaining indices at most one, chosen with
    probability w_j * tau, receives a weighted p-value below
    tau = min(critical_values[r - 1], 1 / remaining weight mass).  The raw
    p-values of indices r..m are marginally Unif(0, 1).  A weight that is not
    positive and finite raises ValueError naming its index.
    """
    crit = [float(c) for c in critical_values]
    w = np.asarray(weights, dtype=float)
    m = w.size
    if len(crit) != m:
        raise ValueError("critical values and weights must have equal length")
    check_weights(w)
    if any(b < a for a, b in zip(crit, crit[1:])):
        raise ValueError("critical values must be nondecreasing")
    if not 1 <= r <= m:
        raise ValueError(f"r must lie in 1..{m}, got {r}")
    tail = w[r - 1:]
    l = tail.sum()
    tau = min(crit[r - 1], 1.0 / l)
    probs = np.append(tail * tau, 1.0 - l * tau)
    choice = int(gen.choice(tail.size + 1, p=probs))
    selected = None if choice == tail.size else (r - 1 + choice)
    p = np.zeros(m)
    for i in range(r - 1, m):
        if i == selected:
            tilde = gen.uniform(0.0, tau)
        else:
            tilde = gen.uniform(tau, 1.0 / w[i])
        p[i] = w[i] * tilde
    return LfcSample(p=tuple(p), selected=selected)


@dataclass(frozen=True)
class SharpnessEstimate:
    procedure: Procedure
    fwer: float
    se: float
    reps: int


def estimate_sharpness(procedure: Procedure, weights: Sequence[float], m0: int,
                       reps: int, gen: np.random.Generator,
                       alpha: float = 0.05) -> SharpnessEstimate:
    """Empirical FWER of a procedure under the least favorable configuration
    with all m0 hypotheses true.

    For the raw-ordered procedure the construction only attains the bound when
    min(w) / max(w) >= alpha, so that condition is enforced.  A weight that is
    not positive and finite raises ValueError naming its index.
    """
    w = np.asarray(weights, dtype=float)
    check_weights(w)
    if w.size != m0:
        raise ValueError(f"expected {m0} weights, got {w.size}")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if procedure is Procedure.WAP and w.min() / w.max() < alpha:
        raise ValueError(
            "the raw-ordered procedure attains the bound only when "
            f"min(w)/max(w) >= alpha; got ratio {w.min() / w.max():.6g} < {alpha}")
    samples = _lfc_whp_batch(w, gen, reps)
    hits = 0
    for start in range(0, reps, SHARPNESS_BLOCK_ROWS):
        block = samples[start:start + SHARPNESS_BLOCK_ROWS]
        hits += int(batch_stepdown(procedure, block, w, alpha).any(axis=1).sum())
    fwer = hits / reps
    return SharpnessEstimate(procedure=procedure, fwer=fwer,
                             se=math.sqrt(fwer * (1.0 - fwer) / reps), reps=reps)
