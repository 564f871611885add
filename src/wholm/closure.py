"""Brute-force closed testing over all intersection hypotheses.

Subsets of {0..m-1} are encoded as bitmasks.  The two local tests are the
weighted Bonferroni tests behind the step-downs, written in the step-downs'
one rule: with total the weight of the intersection, a member's value is
(p/w) * total, and it counts as significant iff that value is at most alpha.
The weighted-ordering procedure (WHP) rejects the intersection as soon as any
member is significant; the raw-ordering procedure (WAP) tests only the member
with the smallest raw p-value.  Closing either local test over all subsets
reproduces the corresponding step-down; the exhaustive engine here is the
oracle the fast procedures are checked against.

Subset sums are taken in index order, while a step-down sums its tail in rank
order.  Float addition commutes, so sums of one or two weights agree exactly;
from three weights on the two orders can differ in the last bit, so for
m >= 3 a p-value exactly on a boundary can be decided differently by closed
testing and by the step-down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .core import RejectionSet, TestingProblem, validate_problem
from .procedures import Procedure, wap_stepdown, whp_stepdown

MAX_CTP_HYPOTHESES = 20
MAX_MONOTONICITY_HYPOTHESES = 12


class CapacityError(ValueError):
    pass


@dataclass(frozen=True)
class CtpReport:
    local_decisions: Dict[int, bool]
    elementary_rejections: RejectionSet


@dataclass(frozen=True)
class ConsonanceReport:
    holds: bool
    violating_subset: Optional[int] = None


@dataclass(frozen=True)
class MonotonicityReport:
    holds: bool
    # (I, J, i, alpha_i(I), alpha_i(J)) with J a proper subset of I
    counterexample: Optional[Tuple[int, int, int, float, float]] = None


def members(mask: int) -> List[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def wap_local_test(problem: TestingProblem, mask: int) -> bool:
    """Reject the intersection iff its smallest raw p-value is at or below the
    weight share of its own index (ties at the minimum go to the smallest
    index)."""
    if mask == 0:
        raise ValueError("intersection must be nonempty")
    idxs = members(mask)
    best = min(idxs, key=lambda i: (problem.p[i], i))
    total = sum(problem.w[i] for i in idxs)
    return problem.p[best] / problem.w[best] * total <= problem.alpha


def whp_local_test(problem: TestingProblem, mask: int) -> bool:
    """Weighted Bonferroni test: reject iff some member beats its own weight
    share of alpha, that is iff min(p/w) * total <= alpha."""
    if mask == 0:
        raise ValueError("intersection must be nonempty")
    idxs = members(mask)
    total = sum(problem.w[i] for i in idxs)
    # stops at the first hit; rounding is monotone, so this decides as the
    # minimum would
    return any(problem.p[i] / problem.w[i] * total <= problem.alpha for i in idxs)


def ctp(problem: TestingProblem,
        local_test: Callable[[TestingProblem, int], bool]) -> CtpReport:
    """Evaluate `local_test` on every nonempty subset and close.

    An elementary hypothesis is rejected iff every subset containing it is
    locally rejected.
    """
    m = problem.m
    if m > MAX_CTP_HYPOTHESES:
        raise CapacityError(
            f"closed testing is capped at {MAX_CTP_HYPOTHESES} hypotheses, got {m}")
    full = (1 << m) - 1
    decisions: Dict[int, bool] = {}
    accepted_union = 0  # indices appearing in any locally accepted subset
    for mask in range(1, full + 1):
        dec = local_test(problem, mask)
        decisions[mask] = dec
        if not dec:
            accepted_union |= mask
    rejected = frozenset(i for i in range(m) if not (accepted_union >> i) & 1)
    trace = tuple((step, i, problem.alpha)
                  for step, i in enumerate(sorted(rejected), start=1))
    return CtpReport(local_decisions=decisions,
                     elementary_rejections=RejectionSet(rejected=rejected, trace=trace))


def check_consonance(problem: TestingProblem,
                     local_test: Callable[[TestingProblem, int], bool]) -> ConsonanceReport:
    """Check that every intersection rejected by the full CTP contains an
    elementary hypothesis rejected by the full CTP."""
    m = problem.m
    if m > MAX_CTP_HYPOTHESES:
        raise CapacityError(
            f"closed testing is capped at {MAX_CTP_HYPOTHESES} hypotheses, got {m}")
    full = (1 << m) - 1
    local = [False] * (full + 1)
    for mask in range(1, full + 1):
        local[mask] = local_test(problem, mask)
    # ctp_rej[I]: all supersets of I (including I) rejected locally.
    ctp_rej = [False] * (full + 1)
    for mask in range(full, 0, -1):
        ok = local[mask]
        if ok:
            for i in range(m):
                bit = 1 << i
                if not mask & bit and not ctp_rej[mask | bit]:
                    ok = False
                    break
        ctp_rej[mask] = ok
    elem = [ctp_rej[1 << i] for i in range(m)]
    for mask in range(1, full + 1):
        if ctp_rej[mask] and not any(elem[i] for i in members(mask)):
            return ConsonanceReport(holds=False, violating_subset=mask)
    return ConsonanceReport(holds=True)


def _intersection_shares(problem: TestingProblem, procedure: Procedure):
    """alpha_i(I) for every subset I, as a (2^m, m) array with +inf outside I.

    WHP gives every member its weight share of alpha.  WAP assigns the whole
    intersection budget to the member with the smallest raw p-value (ties to
    the smallest index) and zero to the rest.
    """
    m = problem.m
    full = (1 << m) - 1
    w = np.asarray(problem.w)
    p = problem.p
    sums = np.zeros(full + 1)
    minidx = np.zeros(full + 1, dtype=np.int64)
    for mask in range(1, full + 1):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        if rest:
            sums[mask] = sums[rest] + w[low]
            mi = minidx[rest]
            # low is the smallest index present, so it wins ties
            minidx[mask] = low if p[low] <= p[mi] else mi
        else:
            sums[mask] = w[low]
            minidx[mask] = low
    masks = np.arange(full + 1)
    member = ((masks[:, None] >> np.arange(m)) & 1).astype(bool)
    shares = np.full((full + 1, m), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        if procedure is Procedure.WHP:
            shares[member] = (w[None, :] * problem.alpha / sums[:, None])[member]
        elif procedure is Procedure.WAP:
            shares[member] = 0.0
            rows = masks[1:]
            shares[rows, minidx[rows]] = w[minidx[rows]] * problem.alpha / sums[rows]
        else:
            raise ValueError(f"no intersection shares defined for {procedure}")
    return shares


def check_monotonicity_condition(problem: TestingProblem,
                                 procedure: Procedure) -> MonotonicityReport:
    """Verify alpha_i(I) <= alpha_i(J) for all i in J, J a proper subset of I.

    Only single-element removals are compared: any nested pair J subset of I
    is connected by a chain of such removals, so the reduced check is
    equivalent and a single-removal violation is already a valid witness.
    """
    m = problem.m
    if m > MAX_MONOTONICITY_HYPOTHESES:
        raise CapacityError(
            f"monotonicity enumeration is capped at {MAX_MONOTONICITY_HYPOTHESES}"
            f" hypotheses, got {m}")
    if m == 1:
        return MonotonicityReport(holds=True)
    shares = _intersection_shares(problem, procedure)
    full = (1 << m) - 1
    masks = np.arange(full + 1)
    for j in range(m):
        bit = 1 << j
        big = masks[(masks & bit).astype(bool) & (masks != bit)]
        small = big ^ bit
        viol = shares[big] > shares[small]
        if viol.any():
            row, col = np.argwhere(viol)[0]
            big_mask = int(big[row])
            small_mask = int(small[row])
            return MonotonicityReport(
                holds=False,
                counterexample=(big_mask, small_mask, int(col),
                                float(shares[big_mask, col]),
                                float(shares[small_mask, col])))
    return MonotonicityReport(holds=True)


def random_problem(gen: np.random.Generator, m: int, alpha: float = 0.05,
                   weight_low: float = 0.5, weight_high: float = 5.0) -> TestingProblem:
    """One corpus problem: p i.i.d. U(0,1), weights i.i.d. U(0.5, 5)."""
    p = gen.uniform(0.0, 1.0, size=m)
    w = gen.uniform(weight_low, weight_high, size=m)
    return validate_problem([f"H{i + 1}" for i in range(m)], p, w, alpha)


def random_corpus(count: int, seed: int, m_max: int = 8,
                  alpha: float = 0.05) -> List[TestingProblem]:
    """Seeded corpus of random problems with m uniform on {1..m_max}."""
    gen = np.random.default_rng(seed)
    return [random_problem(gen, int(gen.integers(1, m_max + 1)), alpha=alpha)
            for _ in range(count)]


def find_pvalue_monotonicity_violation(procedure: Procedure, trials: int,
                                       seed: int):
    """Randomized search for a pair q <= p (componentwise) where lowering the
    p-values loses rejections.

    Returns (problem, lowered_problem) for the first violation, or None.
    """
    stepdown = {Procedure.WHP: whp_stepdown, Procedure.WAP: wap_stepdown}[procedure]
    gen = np.random.default_rng(seed)
    for _ in range(trials):
        m = int(gen.integers(3, 6))
        w = gen.uniform(1.0, 10.0, size=m)
        # p-values drawn at the scale of the critical thresholds; anything far
        # above them never rejects and wastes the trial
        p = w / w.sum() * 0.05 * gen.uniform(0.0, 3.0, size=m)
        labels = [f"H{i + 1}" for i in range(m)]
        problem = validate_problem(labels, p, w, 0.05)
        # lowering a single coordinate is what reorders the raw p-values and
        # can shrink the early thresholds out from under the others
        q = np.array(p)
        q[int(gen.integers(m))] *= gen.uniform()
        lowered = validate_problem(labels, q, w, 0.05)
        if len(stepdown(lowered).rejected) < len(stepdown(problem).rejected):
            return problem, lowered
    return None
