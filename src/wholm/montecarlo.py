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

# Replicates drawn from one spawned generator.  This constant defines the
# random stream of `run_simulation` (block b of a cell is drawn from child b of
# the cell's seed), so changing it changes seeded output; at 1 the stream is
# the per-replicate one of earlier versions.  256 rows of normals stay a few
# MB at desk sizes, while numpy's per-call overhead is spread over the block.
SIMULATION_BLOCK_ROWS = 256


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


def _column_t(data: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One-sample t statistics of `data` over its axis -2 (one observation
    per step along it), and which leading rows hold a zero-variance column.

    Data of shape (..., n, m) give (..., m) statistics and a (...) mask; the
    statistics of a masked row are not finite.
    """
    sds = data.std(axis=-2, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = data.mean(axis=-2) / (sds / math.sqrt(data.shape[-2]))
    return t, (sds == 0.0).any(axis=-1)


def one_sample_t_pvalue(column: Sequence[float]) -> float:
    """One-sided upper-tail p-value for mean = 0 against mean > 0."""
    x = np.asarray(column, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError(f"need at least two observations, got {n}")
    t, zero = _column_t(x[:, None])
    if zero:
        raise DegenerateSampleError("sample has zero variance")
    return t_sf(t[0], n - 1)


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
    """Draw one weight per entry of `null_mask` (of any shape); true nulls and
    false nulls use the scenario's respective uniform ranges.

    Every entry is first drawn from the false-null range in row-major order,
    then the true nulls are redrawn, in the same order, from theirs.
    """
    null_mask = np.asarray(null_mask, dtype=bool)
    (null_lo, null_hi), (alt_lo, alt_hi) = _SCENARIO_RANGES[WeightScenario(kind)]
    w = gen.uniform(alt_lo, alt_hi, size=null_mask.shape)
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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative: {self.seed}")

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


def _draw_block(config: SimulationConfig, rows: int,
                gen: np.random.Generator) -> Tuple[np.ndarray, np.ndarray, int]:
    """`rows` replicates of a cell from one generator: their (rows, m) weights,
    their (rows, m) t statistics and how many of them were redrawn.

    All weights are drawn first, then all normals; a replicate with a
    zero-variance column is then redrawn once, in row order.
    """
    m, m0, n = config.m, config.m0, config.n
    mu = np.zeros(m)
    mu[m0:] = config.mu_alt
    null_mask = np.zeros((rows, m), dtype=bool)
    null_mask[:, :m0] = True
    weights = weight_scenario(config.weight_scenario, null_mask, gen)
    data = sample_equicorrelated(m, config.rho, mu, n * rows, gen)
    tstats, zero = _column_t(data.reshape(rows, n, m))
    for r in np.flatnonzero(zero):
        t, again = _column_t(sample_equicorrelated(m, config.rho, mu, n, gen))
        if again:
            raise DegenerateSampleError("zero-variance sample after resampling")
        tstats[r] = t
    return weights, tstats, int(zero.sum())


def _draw_cell(config: SimulationConfig) -> Tuple[np.ndarray, np.ndarray, int]:
    """The (reps, m) weights and t statistics of a cell, and how many
    replicates were redrawn: block b of `SIMULATION_BLOCK_ROWS` replicates
    (the last holds what is left) is drawn from child b of the seed."""
    reps, block = config.reps, SIMULATION_BLOCK_ROWS
    children = np.random.SeedSequence(config.seed).spawn(-(-reps // block))
    weights = np.empty((reps, config.m))
    tstats = np.empty((reps, config.m))
    resampled = 0
    for b, child in enumerate(children):
        rows = slice(b * block, min((b + 1) * block, reps))
        weights[rows], tstats[rows], redrawn = _draw_block(
            config, rows.stop - rows.start, np.random.default_rng(child))
        resampled += redrawn
    return weights, tstats, resampled


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Monte Carlo estimate of FWER and average power for Holm, WHP and WAP.

    Weights are redrawn every replicate.  Replicates are drawn in blocks of
    `SIMULATION_BLOCK_ROWS`: block b comes from its own generator, seeded by
    child b of `SeedSequence(config.seed)`, which draws all of the block's
    weights and then all of its normals.  A block depends on nothing but its
    child, so results do not depend on how the blocks are split across
    workers.  With a block size of 1 this is the per-replicate stream of
    earlier versions, and their seeded output is reproduced byte for byte.
    A zero-variance sample (probability zero in theory) is redrawn once from
    its block's generator and counted.

    One `t_sf` call and one `batch_stepdown` call per procedure decide the
    whole cell.
    """
    m0 = config.m0
    m1 = config.m - m0
    reps = config.reps
    weights, tstats, resampled = _draw_cell(config)
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
    Unif(0, 1).  Empty weights, or a weight that is not positive and finite,
    raise ValueError; a bad weight is named by its index.
    """
    w = np.asarray(weights, dtype=float)
    check_weights(w)
    p, selected = _lfc_whp_batch(w, gen, 1)
    return LfcSample(p=tuple(p[0].tolist()), selected=int(selected[0]))


def _lfc_whp_batch(weights: np.ndarray, gen: np.random.Generator,
                   size: int) -> Tuple[np.ndarray, np.ndarray]:
    """`size` least-favorable draws at once: the (size, m0) raw p-values and
    the index selected in each row (see `lfc_whp_sampler`)."""
    w = np.asarray(weights, dtype=float)
    m0 = w.size
    total = w.sum()
    selected = gen.choice(m0, size=size, p=w / total)
    u1 = gen.uniform(0.0, 1.0 / total, size=size)
    u2 = gen.uniform(1.0 / total, 1.0 / w, size=(size, m0))
    p = w * u2
    p[np.arange(size), selected] = w[selected] * u1
    return p, selected


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
    min(w) / max(w) >= alpha, so that condition is enforced.  Empty weights,
    or a weight that is not positive and finite, raise ValueError; a bad
    weight is named by its index.
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
    samples, _ = _lfc_whp_batch(w, gen, reps)
    hits = 0
    for start in range(0, reps, SHARPNESS_BLOCK_ROWS):
        block = samples[start:start + SHARPNESS_BLOCK_ROWS]
        hits += int(batch_stepdown(procedure, block, w, alpha).any(axis=1).sum())
    fwer = hits / reps
    return SharpnessEstimate(procedure=procedure, fwer=fwer,
                             se=math.sqrt(fwer * (1.0 - fwer) / reps), reps=reps)
