"""Closed testing over all intersection hypotheses, read from one subset table.

Subsets of {0..m-1} are encoded as bitmasks.  One routine, `_subsets`, tabulates
every subset a caller asks for: its weight total, its smallest weighted p-value
min(p/w) and its member with the smallest raw p-value (ties to the smallest
index).  Every closed-testing entry point reads that table; none walks the
subsets in Python.

The two local tests are the weighted Bonferroni tests behind the step-downs,
written in the step-downs' one rule: a member's value is (p/w) * total, and it
counts as significant iff that value is at most alpha.  The weighted-ordering
procedure (WHP) rejects the intersection iff min(p/w) * total <= alpha, that
is iff some member is significant (rounding is monotone, so the minimum
decides as any member would); the raw-ordering procedure (WAP) tests only the
member with the smallest raw p-value.

A local test is any callable `local_test(problem, masks)` that takes one int
mask or an int array of masks and returns bools of the same shape.  `ctp` and
`check_consonance` call it once, on every nonempty mask at the same time, and
close the table: a subset is rejected by the closed procedure iff no locally
accepted subset contains it.  Closing either built-in test reproduces the
corresponding step-down; the exhaustive engine here is the oracle the fast
procedures are checked against.

Subset totals are summed in index order, while a step-down sums its tail in
rank order.  Float addition commutes, so sums of one or two weights agree
exactly; from three weights on the two orders can differ in the last bit, so
for m >= 3 a p-value exactly on a boundary can be decided differently by
closed testing and by the step-down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .core import RejectionSet, TestingProblem, validate_problem
from .procedures import Procedure, wap_stepdown, whp_stepdown

MAX_CTP_HYPOTHESES = 20
MAX_MONOTONICITY_HYPOTHESES = 12


LocalTest = Callable[[TestingProblem, Union[int, np.ndarray]],
                     Union[bool, np.ndarray]]


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


def _subsets(problem: TestingProblem, masks: Union[int, np.ndarray]):
    """Weight total, min(p/w) and raw-p argmin of every subset in `masks`.

    One pass per hypothesis over the whole mask array.  Each total is summed
    in index order, and an absent member adds 0.0, which is exact, so it
    equals `sum(w[i] for i in members)` bit for bit.  The argmin keeps the
    first member with the smallest raw p-value, so ties go to the smallest
    index.
    """
    masks = np.asarray(masks)
    if masks.min() <= 0 or int(masks.max()) >> problem.m:
        raise ValueError("intersection must be a nonempty subset of the "
                         f"{problem.m} hypotheses")
    p, w = problem.p, problem.w
    total = np.zeros(masks.shape)
    min_tilde = np.full(masks.shape, np.inf)
    best = np.zeros(masks.shape, dtype=np.intp)
    best_p = np.full(masks.shape, np.inf)
    for i in range(problem.m):
        has = np.asarray((masks >> i) & 1, dtype=bool)
        total += np.where(has, w[i], 0.0)
        np.minimum(min_tilde, np.where(has, p[i] / w[i], np.inf), out=min_tilde)
        first = has & (p[i] < best_p)
        best[first] = i
        best_p[first] = p[i]
    return total, min_tilde, best


def wap_local_test(problem: TestingProblem,
                   mask: Union[int, np.ndarray]) -> Union[bool, np.ndarray]:
    """Reject an intersection iff its smallest raw p-value is at or below the
    weight share of its own index (ties at the minimum go to the smallest
    index).  `mask` is one int mask or an int array of masks; the decisions
    have its shape."""
    total, _, best = _subsets(problem, mask)
    tilde = np.asarray(problem.p) / np.asarray(problem.w)
    return tilde[best] * total <= problem.alpha


def whp_local_test(problem: TestingProblem,
                   mask: Union[int, np.ndarray]) -> Union[bool, np.ndarray]:
    """Weighted Bonferroni test: reject an intersection iff some member beats
    its own weight share of alpha, that is iff min(p/w) * total <= alpha.
    `mask` is one int mask or an int array of masks; the decisions have its
    shape."""
    total, min_tilde, _ = _subsets(problem, mask)
    return min_tilde * total <= problem.alpha


def _accepted(problem: TestingProblem, local_test: LocalTest) -> np.ndarray:
    """accepted[mask] for every mask in 0..2^m-1, from one local_test call.

    The empty set counts as accepted; it is contained only in itself, so it
    changes no closure.
    """
    m = problem.m
    if m > MAX_CTP_HYPOTHESES:
        raise CapacityError(
            f"closed testing is capped at {MAX_CTP_HYPOTHESES} hypotheses, got {m}")
    accepted = np.ones(1 << m, dtype=bool)
    accepted[1:] = ~np.asarray(local_test(problem, np.arange(1, 1 << m)), dtype=bool)
    return accepted


def ctp(problem: TestingProblem, local_test: LocalTest) -> CtpReport:
    """Evaluate `local_test` on every nonempty subset and close.

    An elementary hypothesis is rejected iff every subset containing it is
    locally rejected, that is iff no locally accepted subset holds it.
    """
    accepted = _accepted(problem, local_test)
    accepted_union = int(np.bitwise_or.reduce(np.flatnonzero(accepted)))
    rejected = frozenset(i for i in range(problem.m)
                         if not (accepted_union >> i) & 1)
    trace = tuple((step, i, problem.alpha)
                  for step, i in enumerate(sorted(rejected), start=1))
    decisions = dict(zip(range(1, accepted.size), (~accepted[1:]).tolist()))
    return CtpReport(local_decisions=decisions,
                     elementary_rejections=RejectionSet(rejected=rejected, trace=trace))


def check_consonance(problem: TestingProblem,
                     local_test: LocalTest) -> ConsonanceReport:
    """Check that every intersection rejected by the full CTP contains an
    elementary hypothesis rejected by the full CTP.

    The witness is the smallest CTP-rejected mask holding no elementary
    rejection.
    """
    covered = _accepted(problem, local_test)
    # covered[I] becomes: some accepted superset of I exists.  Pass k ORs
    # each mask with bit k set into the same mask with bit k clear.
    for k in range(problem.m):
        halves = covered.reshape(-1, 2, 1 << k)
        halves[:, 0] |= halves[:, 1]
    masks = np.arange(covered.size)
    elementary = sum(1 << i for i in range(problem.m) if not covered[1 << i])
    violating = np.flatnonzero(~covered & (masks & elementary == 0))
    if violating.size:
        return ConsonanceReport(holds=False, violating_subset=int(violating[0]))
    return ConsonanceReport(holds=True)


def _intersection_shares(problem: TestingProblem, procedure: Procedure):
    """alpha_i(I) for every subset I, as a (2^m, m) array with +inf outside I.

    WHP gives every member its weight share of alpha.  WAP assigns the whole
    intersection budget to the member with the smallest raw p-value (ties to
    the smallest index) and zero to the rest.
    """
    m = problem.m
    w = np.asarray(problem.w)
    rows = np.arange(1, 1 << m)
    total, _, best = _subsets(problem, rows)
    member = ((rows[:, None] >> np.arange(m)) & 1).astype(bool)
    shares = np.full((1 << m, m), np.inf)
    inner = shares[1:]
    if procedure is Procedure.WHP:
        inner[member] = (w[None, :] * problem.alpha / total[:, None])[member]
    elif procedure is Procedure.WAP:
        inner[member] = 0.0
        inner[np.arange(rows.size), best] = w[best] * problem.alpha / total
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
