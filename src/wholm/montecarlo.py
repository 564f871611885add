"""Seeded simulation machinery: equicorrelated normal data, one-sided t-test
p-values, the four weight scenarios, FWER/average-power estimation, and the
least-favorable-configuration sampler used to verify that the error bound
alpha is actually attained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from .core import OrderingKey, _check_block, check_alpha, check_weights
from .procedures import Procedure, adjust_rows, rank, ranking

# Rows of least-favorable samples drawn and decided together.  This constant
# defines the random stream of `estimate_sharpness` (its blocks are drawn one
# after another from its generator), so changing it changes seeded output; at
# `reps` or more it is the single draw of earlier versions.  A block's draws
# and the kernel's (rows, m) temporaries stay small, so memory does not grow
# with `reps`, while numpy's per-call overhead is still small against a block.
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

    Evaluated as the distribution function at -t (`scipy.special.stdtr`,
    imported on the first call, so that importing wholm and every command
    but `simulate` never load scipy), and at df = 1, the Cauchy law, as the
    closed form atan2(1, t) / pi, since `stdtr` is up to 1e-9 off near
    t = 0 there alone.  Both are accurate to well below 1e-12 in absolute
    terms at every t, including near 0, where they give exactly 0.5.  (The
    incomplete-beta form 0.5 * I_x(df/2, 1/2) at x = df / (df + t^2) is
    not, because x rounds towards 1.)  Accepts arrays.
    """
    from scipy.special import stdtr

    t, df = np.asarray(t, dtype=float), np.asarray(df, dtype=float)
    out = stdtr(df, -t)
    cauchy = df == 1.0
    if cauchy.any():
        out = np.where(cauchy, np.arctan2(1.0, t) / np.pi, out)
    if out.ndim == 0:
        return float(out)
    return out


def _column_t(data: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One-sample t statistics of `data` over its axis -2 (one observation
    per step along it), and which leading rows hold a zero-variance column.

    Data of shape (..., n, m) give (..., m) statistics and a (...) mask; the
    statistics of a masked row are not finite.  The sum over axis -2 is
    taken once, and the mean and the ddof=1 standard deviation follow from
    it by the operations numpy's own `mean` and `std` apply, so the bits
    are theirs.
    """
    n = data.shape[-2]
    mean = data.sum(axis=-2, keepdims=True)
    mean /= n
    squares = data - mean
    squares *= squares
    sds = squares.sum(axis=-2)
    sds /= n - 1
    np.sqrt(sds, out=sds)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = mean[..., 0, :] / (sds / math.sqrt(n))
    return t, (sds == 0.0).any(axis=-1)


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
    # in place, in the order sqrt(rho) * z0 + sqrt(1 - rho) * z + mu; float
    # addition commutes, so the bits are that expression's
    z *= math.sqrt(1.0 - rho)
    z += math.sqrt(rho) * z0
    z += np.asarray(mu)
    return z


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
    # with no true null this draws nothing, so the state is left as it is
    w[null_mask] = gen.uniform(null_lo, null_hi, size=int(null_mask.sum()))
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
        if not 0 < self.m0 < self.m:
            raise ValueError("m * pi0 must leave at least one true and one "
                             f"false null: m0 = {self.m0} of m = {self.m}")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError(f"rho must lie in [0, 1): {self.rho}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not math.isfinite(self.mu_alt):
            raise ValueError(f"mu_alt must be finite: {self.mu_alt}")
        # the t statistic sums n observations of mean mu_alt
        if self.n * abs(self.mu_alt) == math.inf:
            raise ValueError(f"n * |mu_alt| overflows: mu_alt = {self.mu_alt}, "
                             f"n = {self.n}")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        check_alpha(self.alpha)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative: {self.seed}")

    @property
    def m0(self) -> int:
        return round(self.m * self.pi0)


@dataclass(frozen=True)
class CellRecord:
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


def _draw_blocks(config: SimulationConfig) -> Iterator[
        Tuple[np.ndarray, np.ndarray, int]]:
    """The blocks of a cell in replicate order, each as `_draw_block` draws
    it: block b of `SIMULATION_BLOCK_ROWS` replicates (the last holds what is
    left) is drawn from child b of the seed."""
    reps, block = config.reps, SIMULATION_BLOCK_ROWS
    children = np.random.SeedSequence(config.seed).spawn(-(-reps // block))
    for b, child in enumerate(children):
        yield _draw_block(config, min(block, reps - b * block),
                          np.random.default_rng(child))


def _check_wap_within_whp(whp, wap, offset: int) -> None:
    """Raise RuntimeError naming the first replicate of a block, and the
    indices in increasing order, where WAP rejects a hypothesis WHP keeps;
    `whp` and `wap` are the block's (rows, m) rejections from `adjust_rows`,
    in hypothesis order."""
    wap_only = wap & ~whp
    if wap_only.any():
        r = int(np.argmax(wap_only.any(axis=1)))
        raise RuntimeError(
            f"WAP rejected a hypothesis WHP kept in replicate {offset + r}: "
            f"{np.flatnonzero(wap_only[r]).tolist()}")


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

    Each block is decided as it is drawn, by one `t_sf` call, one
    `procedures.rank` call per ranking and one `procedures.adjust_rows`
    call per procedure: WAP's view by raw p serves Holm too, with unit
    weights, since Holm's p/1.0 ranks as p.  Only the FWER counts and the
    power sums are carried to the next, so memory does not grow with
    `reps`.  The rejections come in hypothesis order, where the true
    nulls are the first m0 columns and the false nulls the rest.  The power
    terms are summed in replicate order as Python floats.  Each block is
    checked once before it is decided, by `core._check_block`: a p-value
    outside [0, 1] (NaN included) or a weight that is not positive and
    finite raises ValueError, and a replicate where WAP rejects a
    hypothesis WHP keeps raises RuntimeError; all name the replicate by its
    index in the cell.
    """
    m0 = config.m0
    m1 = config.m - m0
    reps = config.reps
    familywise = dict.fromkeys(Procedure, 0)
    # summed in replicate order as Python floats, so the result does not
    # depend on numpy's pairwise summation or on the block size
    power_sums = dict.fromkeys(Procedure, 0.0)
    resampled = 0
    offset = 0
    for weights, tstats, redrawn in _draw_blocks(config):
        resampled += redrawn
        pvals = t_sf(tstats, config.n - 1)
        _check_block(pvals, (pvals >= 0.0) & (pvals <= 1.0),
                     "p-value out of [0, 1]", "replicate", offset)
        _check_block(weights, (weights > 0.0) & (weights < np.inf),
                     "weight must be positive and finite", "replicate", offset)
        # Holm ranks by p/1.0, which sorts as p does: WAP's view, unit weights
        raw = rank(pvals, weights, OrderingKey.RAW)
        rejected = {proc: adjust_rows(view, config.alpha)[2] for proc, view in (
            (Procedure.HOLM, raw._replace(w=np.ones_like(raw.w))),
            (Procedure.WHP, rank(pvals, weights, OrderingKey.WEIGHTED)),
            (Procedure.WAP, raw))}
        _check_wap_within_whp(rejected[Procedure.WHP], rejected[Procedure.WAP],
                              offset)
        for proc, mask in rejected.items():
            familywise[proc] += int(mask[:, :m0].any(axis=1).sum())
            power_sum = power_sums[proc]
            for k in mask[:, m0:].sum(axis=1).tolist():
                power_sum += k / m1
            power_sums[proc] = power_sum
        offset += len(pvals)

    records = {}
    for proc in Procedure:
        fwer = familywise[proc] / reps
        power = power_sums[proc] / reps
        records[proc] = CellRecord(
            fwer=fwer,
            fwer_se=math.sqrt(fwer * (1.0 - fwer) / reps),
            power=power,
            power_se=math.sqrt(power * (1.0 - power) / reps),
        )
    return SimulationResult(config=config, records=records, resampled=resampled)


def _lfc_batch(w: np.ndarray, tau: float, gen: np.random.Generator,
               size: int) -> Tuple[np.ndarray, np.ndarray]:
    """`size` draws of the least-favorable law with cut `tau` (at most
    1 / sum(w)): the (size, m) raw p-values and the index selected in each
    row, m where none is.

    Index i is selected with probability w_i * tau, and none with the rest,
    1 - tau * sum(w).  The selected index gets p / w ~ U(0, tau) and every
    other index p / w ~ U(tau, 1 / w_i), so each p-value is marginally
    Unif(0, 1).  The selections are drawn first, then the small values, then
    the (size, m) large ones.
    """
    m = w.size
    selected = gen.choice(m + 1, size=size,
                          p=np.append(w * tau, 1.0 - tau * w.sum()))
    small = gen.uniform(0.0, tau, size=size)
    p = w * gen.uniform(tau, 1.0 / w, size=(size, m))
    rows = np.flatnonzero(selected < m)
    p[rows, selected[rows]] = w[selected[rows]] * small[rows]
    return p, selected


def _lfc_weights(weights: Sequence[float]) -> np.ndarray:
    """The weights of a least-favorable draw as an array.  A weight that
    `core.check_weights` refuses, or one whose reciprocal overflows (at most
    2^-1024, about 5.6e-309), raises ValueError naming its index: the law
    draws p/w up to 1/w."""
    w = np.asarray(weights, dtype=float)
    check_weights(w.tolist())
    # 1/w overflows exactly where w <= 2^-1024, so no division is needed;
    # as in `check_weights`, the minimum decides and the first is named
    if w.min() <= 2.0 ** -1024:
        i = int(np.argmax(w <= 2.0 ** -1024))
        raise ValueError(f"weight reciprocal overflows at index {i}: {w[i]}")
    return w


def lfc_stepdown_falsifier(critical_values: Sequence[float],
                           weights: Sequence[float], r: int,
                           gen: np.random.Generator,
                           size: int) -> Tuple[np.ndarray, np.ndarray]:
    """`size` adversarial draws against any weighted step-down with the given
    nondecreasing critical values: the (size, m) raw p-values and the (size,)
    index selected in each row, m where none is.

    The first r - 1 p-values are fixed at zero (false nulls already
    rejected); among the remaining indices at most one, chosen with
    probability w_j * tau, receives a weighted p-value below
    tau = min(critical_values[r - 1], 1 / remaining weight mass).  The raw
    p-values of indices r..m are marginally Unif(0, 1).  The rows are one
    `_lfc_batch` call on w[r - 1:], behind r - 1 columns of zeros; at r = 1
    with critical values of at least 1 / sum(w) they are rows of the law
    `estimate_sharpness` draws.  A weight refused as
    `estimate_sharpness` refuses it, a critical value that is NaN or
    negative (both named by index), or a size below 1 raises ValueError.
    """
    crit = [float(c) for c in critical_values]
    if len(crit) != len(weights):
        raise ValueError("critical values and weights must have equal length")
    w = _lfc_weights(weights)
    for i, c in enumerate(crit):
        if not c >= 0.0:
            raise ValueError(f"critical value must be non-negative at index {i}: {c}")
    if any(b < a for a, b in zip(crit, crit[1:])):
        raise ValueError("critical values must be nondecreasing")
    if not 1 <= r <= w.size:
        raise ValueError(f"r must lie in 1..{w.size}, got {r}")
    if size < 1:
        raise ValueError("size must be at least 1")
    lead = r - 1
    p, selected = _lfc_batch(w[lead:], min(crit[lead], 1.0 / w[lead:].sum()),
                             gen, size)
    return np.hstack((np.zeros((size, lead)), p)), selected + lead


@dataclass(frozen=True)
class SharpnessEstimate:
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
    a weight that is not positive and finite, weights whose total overflows,
    or alpha outside (0, 1) raise ValueError, and so does a weight whose
    reciprocal overflows; a bad weight is named by its index.

    The samples are drawn from `gen` in blocks of `SHARPNESS_BLOCK_ROWS` rows
    (the last holds what is left), and each block is ranked by one
    `procedures.rank` call and decided by one `procedures.adjust_rows` call
    on its view before the next is drawn, so memory does not grow with
    `reps`.  A block's p-values are checked once, by `core._check_block`,
    before it is decided: one outside [0, 1] (NaN included) raises
    ValueError naming its replicate and hypothesis.  A replicate counts
    when its first-ranked hypothesis is rejected, one read per row, since
    the rejections are a prefix of the ranking.
    """
    w = _lfc_weights(weights)
    if w.size != m0:
        raise ValueError(f"expected {m0} weights, got {w.size}")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    check_alpha(alpha)
    if procedure is Procedure.WAP and w.min() / w.max() < alpha:
        raise ValueError(
            "the raw-ordered procedure attains the bound only when "
            f"min(w)/max(w) >= alpha; got ratio {w.min() / w.max():.6g} < {alpha}")
    key = ranking(procedure)
    tau = 1.0 / w.sum()
    hits = 0
    for start in range(0, reps, SHARPNESS_BLOCK_ROWS):
        block, _ = _lfc_batch(w, tau, gen, min(SHARPNESS_BLOCK_ROWS, reps - start))
        _check_block(block, (block >= 0.0) & (block <= 1.0),
                     "p-value out of [0, 1]", "replicate", start)
        ranked = rank(block, w, key)
        rejected = adjust_rows(ranked, alpha)[2]
        hits += int(np.count_nonzero(rejected.take(ranked.flat[:, 0])))
    fwer = hits / reps
    return SharpnessEstimate(fwer=fwer, se=math.sqrt(fwer * (1.0 - fwer) / reps),
                             reps=reps)
