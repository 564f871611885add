"""Closed testing over all intersection hypotheses, read from one subset table.

Subsets of {0..m-1} are encoded as bitmasks.  One table, `_subset_table`,
holds the weight total and the first-ranked member of every nonempty subset
of each problem in a stack of one size m, held as (P, m) arrays, each row in
its own ranking.  Every closed-testing entry point reads that table; none
walks the subsets in Python.  `ClosedStack` closes a stack of problems under
the local test of WHP or WAP and gives, per problem, the closed rejections,
the consonance witness and the monotonicity counterexample;
`battery.check_properties` uses it on stacks of many problems.  `ctp`,
`check_consonance`, `check_monotonicity_condition` and the two local tests
are one-row calls of the same code, and the answers are the same either way.
All but the local tests are capped at `MAX_CTP_HYPOTHESES`, where the table
is built.  The monotonicity condition reads only the table's totals, which
by step 1 below never grow on the removal of a hypothesis (see
`_counterexamples`).
A local test asked about too few masks to pay for the table (or for m above
`MAX_CTP_HYPOTHESES`) decides each one as the first step of the step-down
run on that intersection alone, `procedures.adjust_rows`, with the same sums.

The local decisions of a stack, a (P, 2^m - 1) table, are closed row by row
with the superset OR: the accepted masks of a row are packed into the bits of
one int, and pass k ORs every mask holding hypothesis k into the same mask
without it, so bit I ends up set iff some locally accepted subset contains I.
Hypothesis i is rejected by the closed procedure iff bit {i} is clear.

The two local tests are the weighted Bonferroni tests behind the step-downs,
written in the step-downs' one rule: the first-ranked member's value is
(p/w) * total, and the intersection is rejected iff that value is at most
alpha.  The weighted-ordering procedure (WHP) ranks by p/w, so its first
member holds min(p/w) and the test asks whether some member is significant;
the raw-ordering procedure (WAP) ranks by raw p-values and tests only the
member with the smallest raw p-value (ties to the smallest index).

A local test is any callable `local_test(problem, masks)` that takes one int
mask or an int array of masks and returns bools of the same shape.  `ctp` and
`check_consonance` call it once, on every nonempty mask at the same time, and
close the one-row table: a subset is rejected by the closed procedure iff no
locally accepted subset contains it.  The exhaustive engine here is the oracle
the fast procedures are checked against.

Closing either built-in test reproduces its step-down bit for bit, also for a
p-value exactly on a boundary, because every subset total is summed from the
last rank upward in the procedure's own ranking, `procedures.rank_rows`:

1. Sums taken in one fixed order are monotone under inclusion.  If A is a
   subset of B, each partial sum of A is at most that of B: both start at
   0.0, each step adds w_i >= 0 to B and w_i or 0.0 to A, and rounded
   addition is monotone in each argument.  So total(A) <= total(B).
2. The tail set T_j of the hypotheses at ranks j and later is summed exactly
   as `procedures.adjust_rows` sums tail_j: both rank with `rank_rows`, so
   the same weights are added in the same order, and adding 0.0 for an
   absent member is exact.
   So total(T_j) == tail_j.
3. Let the step-down reject ranks 0..k-1.  A subset I holding one of them has
   its first rank r < k, so I is a subset of T_r, and its value
   tilde_r * total(I) <= tilde_r * tail_r <= alpha by 1, 2 and the monotone
   rounding of a product: I is rejected, and every rejected hypothesis stays
   rejected by the closure.  T_k itself has the value tilde_k * tail_k, the
   step-down's own product at rank k, which exceeds alpha: T_k is accepted,
   and it holds every hypothesis the step-down keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .core import (OrderingKey, RejectionSet, TestingProblem, check_alpha,
                   validate_problem)
from .procedures import (Procedure, ProblemStack, adjust_rows, rank_rows,
                         ranking)

MAX_CTP_HYPOTHESES = 20
# Trials in the first chunk of the p-value monotonicity search.
SEARCH_FIRST_CHUNK = 16


LocalTest = Callable[[TestingProblem, Union[int, np.ndarray]],
                     Union[bool, np.ndarray]]


class CapacityError(ValueError):
    pass


@dataclass(frozen=True)
class CtpReport:
    """`local_decisions` maps every nonempty mask to its local test's
    decision, in increasing mask order."""

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


def _all_subsets(perm: np.ndarray, ranked_w: np.ndarray):
    """Totals of all 2^m subsets of each row and first-ranked members of the
    nonempty ones, by rank-space code, and the code of each index mask.

    In a code, bit m-1-r stands for the member at rank r, so the highest bit
    is the first-ranked member and the lower bits hold later ranks.  Codes
    in [2^q, 2^(q+1)) are those below 2^q plus the member at rank m-1-q, so
    their totals are the lower totals plus that weight: each total adds its
    members from the last rank upward, starting at 0.0 for the empty set.
    `first[:, c]` is the first-ranked member of code c (for the empty code
    0, the last-ranked member, which no caller reads).
    """
    count, m = perm.shape
    code_bit = np.empty_like(perm)
    code_bit[np.arange(count)[:, None], perm] = 1 << np.arange(m - 1, -1, -1)
    # Step q adds the weight at rank m-1-q to the totals of codes below 2^q,
    # and hypothesis q's code bit to the codes of index masks below 2^q (the
    # masks in [2^q, 2^(q+1)) hold q).  Codes are below 2^m and so exact in
    # float64; the totals (rows below `count`) and the codes (rows from
    # `count`) take one add per step together.
    steps = np.concatenate([ranked_w[:, ::-1], code_bit]).T[:, :, None]
    table = np.zeros((2 * count, 1 << m))
    for q, step in enumerate(steps):
        np.add(table[:, :1 << q], step, out=table[:, 1 << q:2 << q])
    total, code = table[:count], table[count:].astype(np.intp)
    counts = 1 << np.arange(m)
    counts[0] = 2
    first = np.repeat(perm[:, ::-1], counts, axis=1)
    return total, first, code


def _check_ctp_size(m: int) -> None:
    if m > MAX_CTP_HYPOTHESES:
        raise CapacityError(
            f"closed testing is capped at {MAX_CTP_HYPOTHESES} hypotheses, got {m}")


def _subset_table(stack: ProblemStack, key: OrderingKey):
    """Weight totals and first-ranked members of every nonempty subset, as
    two (P, 2^m - 1) arrays whose column I - 1 holds mask I.  Each row is
    ranked under `key` by the step-downs' `procedures.rank_rows`, and
    `_all_subsets` sums each total from its last rank upward, starting at
    0.0: the order in which the row's step-down sums its tails."""
    _check_ctp_size(stack.m)
    p, w, _ = stack
    perm = rank_rows(p, p / w, key)
    rows = np.arange(p.shape[0])[:, None]
    total, first, code = _all_subsets(perm, w[rows, perm])
    code = code[:, 1:]
    return total[rows, code], first[rows, code]


def _rejects(stack: ProblemStack, total: np.ndarray,
             first: np.ndarray) -> np.ndarray:
    """Both local tests' rule: the first-ranked member's (p/w) * total is at
    most alpha."""
    rows = np.arange(first.shape[0])[:, None]
    return (stack.p / stack.w)[rows, first] * total <= stack.alpha[:, None]


def _local_test(problem: TestingProblem, masks: Union[int, np.ndarray],
                key: OrderingKey) -> Union[bool, np.ndarray]:
    """K masks with K * m >= 2^m (m within `MAX_CTP_HYPOTHESES`) are read
    from the `_subset_table`.  Otherwise the masks of each size k are
    stacked as (K_k, k) rows of their members in index order and decided by
    the first step of `procedures.adjust_rows`: its stable ranking orders
    the members as the full ranking does, its tail adds the same weights in
    the same order, and its adjusted value, capped at 1, is at most
    alpha < 1 iff the product is."""
    masks = np.asarray(masks)
    if masks.size == 0:
        return np.zeros(masks.shape, dtype=bool)
    m = problem.m
    if masks.min() <= 0 or int(masks.max()) >> m:
        raise ValueError("intersection must be a nonempty subset of the "
                         f"{m} hypotheses")
    flat, stack = masks.reshape(-1), ProblemStack.of([problem])
    if flat.size * m >= 1 << m and m <= MAX_CTP_HYPOTHESES:
        rejected = _rejects(stack, *_subset_table(stack, key))[0, flat - 1]
    else:
        # (Python ints for masks wider than 64 bits)
        member = ((flat[:, None] >> np.arange(m)) & 1).astype(bool)
        size = member.sum(axis=1)
        rejected = np.empty(flat.size, dtype=bool)
        for k in np.unique(size).tolist():
            group = np.flatnonzero(size == k)
            index = np.nonzero(member[group])[1].reshape(-1, k)
            rejected[group] = adjust_rows(stack.p[0, index], stack.w[0, index],
                                          problem.alpha, key)[3][:, 0]
    return rejected.reshape(masks.shape)[()]


def wap_local_test(problem: TestingProblem,
                   mask: Union[int, np.ndarray]) -> Union[bool, np.ndarray]:
    """Reject an intersection iff its smallest raw p-value is at or below the
    weight share of its own index (ties at the minimum go to the smallest
    index).  `mask` is one int mask or an int array of masks; the decisions
    have its shape."""
    return _local_test(problem, mask, OrderingKey.RAW)


def whp_local_test(problem: TestingProblem,
                   mask: Union[int, np.ndarray]) -> Union[bool, np.ndarray]:
    """Weighted Bonferroni test: reject an intersection iff some member beats
    its own weight share of alpha, that is iff min(p/w) * total <= alpha.
    `mask` is one int mask or an int array of masks; the decisions have its
    shape."""
    return _local_test(problem, mask, OrderingKey.WEIGHTED)


def _local_rejections(problem: TestingProblem,
                      local_test: LocalTest) -> np.ndarray:
    """The one-row table of `local_test`'s decisions on every nonempty mask,
    from one call: column I - 1 holds mask I."""
    _check_ctp_size(problem.m)
    rejected = local_test(problem, np.arange(1, 1 << problem.m))
    return np.asarray(rejected, dtype=bool)[None, :]


@lru_cache(maxsize=None)
def _bit_clear(m: int) -> Tuple[int, ...]:
    """For each k < m, the masks in 0..2^m-1 with bit k clear, as an int
    whose bit I stands for mask I: runs of 2^k ones and 2^k zeros.  Closed
    testing caps m at `MAX_CTP_HYPOTHESES`, so the cache holds at most one
    entry per m up to the cap, about 5 MB if every size is used."""
    clear = []
    for k in range(m):
        bits, width = (1 << (1 << k)) - 1, 2 << k
        while width < 1 << m:
            bits |= bits << width
            width *= 2
        clear.append(bits)
    return tuple(clear)


def _close(rejected: np.ndarray) -> List[int]:
    """Close each row of a (P, 2^m - 1) table of local rejections of the
    nonempty masks: an int per row whose bit I is set iff the row has a
    locally accepted superset of mask I.

    A row's accepted masks are packed into the bits of one int, with the
    empty mask counted as accepted (it is contained only in itself, so it
    changes no closure); pass k ORs each mask with bit k set into the same
    mask with bit k clear.
    """
    m = rejected.shape[1].bit_length()
    clear = _bit_clear(m)
    every = (1 << (1 << m)) - 1
    covered = []
    for row in np.packbits(rejected, axis=1, bitorder="little"):
        bits = (~int.from_bytes(row.tobytes(), "little") << 1 | 1) & every
        for k, kept in enumerate(clear):
            bits |= (bits >> (1 << k)) & kept
        covered.append(bits)
    return covered


def _closed_rejections(covered: int, m: int) -> frozenset:
    """The elementary rejections of one closed row: hypothesis i is rejected
    iff no locally accepted subset holds it, iff {i} is not covered."""
    return frozenset(i for i in range(m) if not covered >> (1 << i) & 1)


def _consonance_witness(covered: int, m: int,
                        rejected: frozenset) -> Optional[int]:
    """The smallest CTP-rejected mask of one closed row that holds none of
    its elementary rejections `rejected`, or None where the row is
    consonant."""
    violating = ~covered & (1 << (1 << m)) - 1
    for i in rejected:
        violating &= _bit_clear(m)[i]
    return (violating & -violating).bit_length() - 1 if violating else None


def ctp(problem: TestingProblem, local_test: LocalTest) -> CtpReport:
    """Evaluate `local_test` on every nonempty subset and close.

    An elementary hypothesis is rejected iff every subset containing it is
    locally rejected, that is iff no locally accepted subset holds it.
    """
    local = _local_rejections(problem, local_test)
    decisions = dict(enumerate(local[0].tolist(), start=1))
    rejected = _closed_rejections(*_close(local), problem.m)
    trace = tuple((step, i, problem.alpha)
                  for step, i in enumerate(sorted(rejected), start=1))
    return CtpReport(local_decisions=decisions,
                     elementary_rejections=RejectionSet(rejected=rejected, trace=trace))


def check_consonance(problem: TestingProblem,
                     local_test: LocalTest) -> ConsonanceReport:
    """Check that every intersection rejected by the full CTP contains an
    elementary hypothesis rejected by the full CTP.

    The witness is the smallest CTP-rejected mask holding no elementary
    rejection.
    """
    [covered] = _close(_local_rejections(problem, local_test))
    witness = _consonance_witness(covered, problem.m,
                                  _closed_rejections(covered, problem.m))
    return ConsonanceReport(holds=witness is None, violating_subset=witness)


def _counterexamples(stack: ProblemStack, procedure: Procedure,
                     table) -> List[Optional[Tuple]]:
    """Per row, the first violation of alpha_i(I) <= alpha_i(J) for i in J,
    J a proper subset of I, as (I, J, i, alpha_i(I), alpha_i(J)), or None
    where the condition holds.  `table` is the `_subset_table` under the
    procedure's ranking.

    WHP gives every member of I its weight share w_i * alpha / total(I).
    WAP gives that share to the first-ranked member, the one with the
    smallest raw p-value (ties to the smallest index), and 0.0 to the rest.
    Only single-element removals are compared: any nested pair J subset of I
    is connected by a chain of such removals, so the reduced check is
    equivalent and a single-removal violation is already a valid witness.
    Removals of hypothesis 0 are searched first, then of hypothesis 1, and
    so on; within one, the smallest I and then the smallest i.

    A share of i can rise from J = I - {j} to I only where total(I) <
    total(J), since rounded division by a positive total is monotone; under
    WAP, i must also be first in I, and so first in J.  Shares are worked
    out only at such pairs, of which the library's own tables have none
    (step 1 of the module docstring).
    """
    total, first = table
    count, m = total.shape[0], stack.m
    # column I holds mask I, with the empty set's total 0.0 in column 0
    total = np.concatenate([np.zeros((count, 1)), total], axis=1)
    hypotheses = np.arange(m)

    def shares(rows, masks):
        # alpha_i(mask) of each row, with +inf outside the mask
        share = stack.w[rows] * stack.alpha[rows, None] / total[rows, masks, None]
        if procedure is Procedure.WAP:
            share[hypotheses != first[rows, masks - 1, None]] = 0.0
        return np.where((masks[:, None] >> hypotheses) & 1 == 1, share, np.inf)

    found: List[Optional[Tuple]] = [None] * count
    for j in range(m):
        # [:, a, 1, b] is I = a * 2^(j+1) + 2^j + b and [:, a, 0, b] is I - 2^j
        halves = total.reshape(count, -1, 2, 1 << j)
        below = halves[:, :, 1] < halves[:, :, 0]
        if not below.any():
            continue
        rows, a, b = np.nonzero(below)
        small = a << (j + 1) | b
        big_share, small_share = shares(rows, small | 1 << j), shares(rows, small)
        viol = big_share > small_share
        for k in np.flatnonzero(viol.any(axis=1)).tolist():
            r, i = int(rows[k]), int(viol[k].argmax())
            if found[r] is None:
                found[r] = (int(small[k]) | 1 << j, int(small[k]), i,
                            float(big_share[k, i]), float(small_share[k, i]))
    return found


def check_monotonicity_condition(problem: TestingProblem,
                                 procedure: Procedure) -> MonotonicityReport:
    """Verify alpha_i(I) <= alpha_i(J) for all i in J, J a proper subset of I
    (see `_counterexamples`)."""
    stack = ProblemStack.of([problem])
    [found] = _counterexamples(stack, procedure,
                               _subset_table(stack, ranking(procedure)))
    return MonotonicityReport(holds=found is None, counterexample=found)


class ClosedStack:
    """Closed testing of problems of one size under the local test of WHP
    (`whp_local_test`) or of WAP (`wap_local_test`), for all of them at once
    from one subset table.  `stack` is their `procedures.ProblemStack`, as
    `ProblemStack.of(problems)` builds it.  Each attribute holds one entry
    per problem, in stack order, equal to what the one-problem function
    returns for it:

    - `rejections`: the closed elementary rejections, as
      `ctp(problem, local_test).elementary_rejections.rejected`;
    - `consonance_witnesses`: the smallest CTP-rejected mask holding no
      elementary rejection, or None, as
      `check_consonance(problem, local_test).violating_subset`;
    - `monotonicity_counterexamples`: as
      `check_monotonicity_condition(problem, procedure).counterexample`,
      worked out from the same subset table when first read.
    """

    def __init__(self, stack: ProblemStack, procedure: Procedure):
        self.procedure = procedure
        self._stack, self.m = stack, stack.m
        self._table = _subset_table(stack, ranking(procedure))
        covered = _close(_rejects(stack, *self._table))
        self.rejections = [_closed_rejections(row, self.m) for row in covered]
        self.consonance_witnesses = [
            _consonance_witness(row, self.m, rejected)
            for row, rejected in zip(covered, self.rejections)]

    @cached_property
    def monotonicity_counterexamples(self) -> List[Optional[Tuple]]:
        return _counterexamples(self._stack, self.procedure, self._table)


def random_corpus(count: int, seed: int, m_max: int = 8,
                  alpha: float = 0.05) -> List[TestingProblem]:
    """Seeded corpus of random problems: m uniform on {1..m_max}, p i.i.d.
    U(0, 1) and weights i.i.d. U(0.5, 5).

    All sizes are drawn first, then all p-values, then all weights, each in
    one generator call, so `random_corpus(n, seed)[:k]` is not
    `random_corpus(k, seed)`.  The arrays are checked once as
    `validate_problem` checks each problem, and every problem equals
    `validate_problem` on its labels, p, w and alpha.
    """
    alpha = float(alpha)
    check_alpha(alpha)
    gen = np.random.default_rng(seed)
    sizes = gen.integers(1, m_max + 1, size=count)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    p = gen.uniform(0.0, 1.0, size=int(sizes.sum()))
    w = gen.uniform(0.5, 5.0, size=p.size)
    ok = (p >= 0.0) & (p <= 1.0) & (w > 0.0) & (w < np.inf)
    if not ok.all():
        # validate_problem raises, naming the first bad value of its problem
        k = int(np.searchsorted(ends, ok.argmin(), side="right"))
        rows = slice(starts[k], ends[k])
        validate_problem(_labels(sizes[k]), p[rows], w[rows], alpha)
    labels = {m: _labels(m) for m in set(sizes.tolist())}
    p, w = p.tolist(), w.tolist()
    return [TestingProblem(labels[m], tuple(p[a:b]), tuple(w[a:b]), alpha)
            for m, a, b in zip(sizes.tolist(), starts.tolist(), ends.tolist())]


def _labels(m: int) -> Tuple[str, ...]:
    return tuple(f"H{i + 1}" for i in range(m))


def _search_trials(gen: np.random.Generator, trials: int):
    """Every trial of the p-value monotonicity search, drawn at once: the
    sizes m, uniform on {3, 4, 5}, and (trials, 5) arrays of p-values p,
    lowered p-values q <= p and weights w, whose first m columns hold a
    row's trial and whose other columns are 0."""
    sizes = gen.integers(3, 6, size=trials)
    w = gen.uniform(1.0, 10.0, size=(trials, 5))
    factor = gen.uniform(0.0, 3.0, size=(trials, 5))
    w[np.arange(5) >= sizes[:, None]] = 0.0
    # p-values drawn at the scale of the critical thresholds; anything far
    # above them never rejects and wastes the trial
    p = w / w.sum(axis=1, keepdims=True) * 0.05 * factor
    # lowering a single coordinate is what reorders the raw p-values and
    # can shrink the early thresholds out from under the others
    lowered = gen.integers(0, sizes)
    q = p.copy()
    q[np.arange(trials), lowered] *= gen.uniform(size=trials)
    return sizes, p, q, w


def find_pvalue_monotonicity_violation(procedure: Procedure, trials: int,
                                       seed: int):
    """Randomized search for a pair q <= p (componentwise) where lowering the
    p-values loses rejections.

    Returns (problem, lowered_problem) for the first violating trial, or
    None.  All trials are drawn before any is decided (`_search_trials`),
    and their p-values are checked at once: one outside [0, 1] raises
    ValueError naming its trial and hypothesis.  They are then decided in
    chunks that double from `SEARCH_FIRST_CHUNK`, so an early witness costs
    only a small chunk, and the witness does not depend on the chunks.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1: {trials}")
    key = ranking(procedure)
    sizes, p, q, w = _search_trials(np.random.default_rng(seed), trials)
    pq = np.stack([p, q], axis=1)
    bad = np.argwhere(~((pq >= 0.0) & (pq <= 1.0)))
    if bad.size:
        t, side, i = bad[0]
        raise ValueError(f"p-value out of [0, 1] in trial {t}, "
                         f"hypothesis {i}: {pq[t, side, i]}")
    lost = np.zeros(trials, dtype=bool)
    start, chunk = 0, SEARCH_FIRST_CHUNK
    while start < trials:
        stop = min(start + chunk, trials)
        # one `adjust_rows` call over the p and q rows of each size; only
        # the number of rejections per row is compared, so it is counted by
        # rank
        for m in np.unique(sizes[start:stop]).tolist():
            rows = start + np.flatnonzero(sizes[start:stop] == m)
            counts = adjust_rows(np.concatenate([p[rows, :m], q[rows, :m]]),
                                 np.concatenate([w[rows, :m]] * 2), 0.05,
                                 key)[3].sum(axis=1)
            lost[rows] = counts[rows.size:] < counts[:rows.size]
        if lost.any():
            t = int(lost.argmax())
            m = sizes[t]
            labels = _labels(m)
            return (validate_problem(labels, p[t, :m], w[t, :m], 0.05),
                    validate_problem(labels, q[t, :m], w[t, :m], 0.05))
        start, chunk = stop, 2 * chunk
    return None
