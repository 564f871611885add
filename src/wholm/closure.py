"""Closed testing over all intersection hypotheses, read from one subset table.

Subsets of {0..m-1} are encoded as bitmasks, the index masks.  One table,
`_all_subsets`, holds the weight total of every subset of each problem in a
stack of one size m, each row in its own ranking, read through the stack's
`procedures.rank` view, and indexed by rank-space code (bit m-1-r for the
member at rank r).  The table holds totals only.  A code is its index mask
with the bits permuted by the ranking, so the one-row local test reads its
row of decisions in index-mask order by permuting the row's m bit axes
(`_by_index_mask`), and the few codes read back from a stack, its
consonance witnesses and monotonicity violations, are mapped to index masks
one row at a time by `_index_masks`.  Every closed-testing entry point
reads that table; none walks the subsets in Python.
`ClosedStack` closes a stack of problems under the local test of WHP or
WAP and gives, per problem, the closed rejections, the consonance witness
and the monotonicity counterexample;
`battery.check_properties` uses it on stacks of many problems.  `ctp`,
`check_consonance`, `check_monotonicity_condition` and the two local tests
are one-row calls of the same code, and the answers are the same either way.
All but the local tests are capped at `MAX_CTP_HYPOTHESES`, where the table
is built.  The monotonicity condition reads only the table's totals, which
by step 1 below never grow on the removal of a hypothesis (see
`_counterexamples`), in code order as they are built; only a violation
found is mapped back to index masks.
A local test asked about too few masks to pay for the table (or for m above
`MAX_CTP_HYPOTHESES`) reads each mask's members through the row's view and
sums their weights as the table does, from the last rank upward, so it
makes the same decisions without the table.

`_decide` makes the local decisions of a stack in code space, where the
first-ranked member of code c is its highest bit, so that no value is
gathered; `_counterexamples` reads the monotonicity condition there by the
same rule.  Closing under supersets commutes with permuting the bits of the
subsets, so `ClosedStack` closes that (P, 2^m) table as it is, reads each
hypothesis's singleton back through the ranking and maps a witness's codes
through its row's ranking; the one-row calls close their local test's
table in index-mask order.  `_close` packs the accepted subsets of a whole table
into one int, row r from bit r * stride with stride = max(2^m, 8) (whole
bytes, so that the table packs row by row), and pass k ORs every subset
holding element k into the same subset without it, within its row, so bit
c of a row ends up set iff some locally accepted subset contains c.
Hypothesis i is rejected by the closed procedure iff its singleton's bit is
clear.  The closed-rejected subsets are closed under supersets, so a row is
consonant iff the set of all its hypotheses that are not rejected is
covered: one bit per row, and only a row where it is clear is searched for
its witness (`_witnesses`).

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
locally accepted subset contains it.  `ctp` hands that row back as its
`local_decisions`, a read-only `LocalDecisions` mapping of mask to decision
over the row itself, so no Python object is made per subset unless a reader
asks for it.  The exhaustive engine here is the oracle the fast procedures
are checked against.

Closing either built-in test reproduces its step-down bit for bit, also for a
p-value exactly on a boundary, because every subset total is summed from the
last rank upward in the procedure's own ranking, `procedures.rank`:

1. Sums taken in one fixed order are monotone under inclusion.  If A is a
   subset of B, each partial sum of A is at most that of B: both start at
   0.0, each step adds w_i >= 0 to B and w_i or 0.0 to A, and rounded
   addition is monotone in each argument.  So total(A) <= total(B).
2. The tail set T_j of the hypotheses at ranks j and later is summed exactly
   as `procedures.adjust_rows` sums tail_j: both read the weights by rank
   of one `procedures.rank` view, so the same weights are added in the same
   order, and adding 0.0 for an absent member is exact.
   So total(T_j) == tail_j.  Both also take p/w as the view's `tilde`, one
   rounded division of its p and w by rank, so tilde_r below is one float.
3. Let the step-down reject ranks 0..k-1.  A subset I holding one of them has
   its first rank r < k, so I is a subset of T_r, and its value
   tilde_r * total(I) <= tilde_r * tail_r <= alpha by 1, 2 and the monotone
   rounding of a product: I is rejected, and every rejected hypothesis stays
   rejected by the closure.  T_k itself has the value tilde_k * tail_k, the
   step-down's own product at rank k, which exceeds alpha: T_k is accepted,
   and it holds every hypothesis the step-down keeps.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .core import (OrderingKey, RejectionSet, TestingProblem, _check_block,
                   _labels, check_alpha, validate_problem)
from .procedures import Procedure, Ranked, adjust_rows, rank, ranking

MAX_CTP_HYPOTHESES = 20
# Trials in the first chunk of the p-value monotonicity search.
SEARCH_FIRST_CHUNK = 16


LocalTest = Callable[[TestingProblem, Union[int, np.ndarray]],
                     Union[bool, np.ndarray]]

# A corpus as flat arrays: the (N,) sizes and start offsets, the p-values
# and weights of all problems one after another, and the (N,) alphas.
# `_draw_corpus` draws one, `_cut` cuts problems from one, and the property
# runner flattens its problems into one and stacks it (`battery._stacks`).
_Corpus = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class CapacityError(ValueError):
    pass


class LocalDecisions(Mapping):
    """A read-only `Mapping[int, bool]` over one bool row: entry mask - 1
    holds the decision on mask, for the keys 1..len(row) in increasing
    order.  `items()` and `values()` read the row in one `tolist()`, and
    the repr is that of the equal dict."""

    __slots__ = ("_row",)

    def __init__(self, row: np.ndarray):
        self._row = row.view()
        self._row.flags.writeable = False

    def __getitem__(self, mask) -> bool:
        if isinstance(mask, (int, np.integer)) and 0 < mask <= self._row.size:
            return self._row.item(mask - 1)
        raise KeyError(mask)

    def __iter__(self):
        return iter(range(1, self._row.size + 1))

    def __len__(self) -> int:
        return self._row.size

    def items(self):
        return _Items(self)

    def values(self):
        return _Values(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def __reduce__(self):
        return LocalDecisions, (self._row,)


class _Items(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._row.tolist())


class _Values(ValuesView):
    def __iter__(self):
        return iter(self._mapping._row.tolist())


@dataclass(frozen=True)
class CtpReport:
    """`local_decisions` maps every nonempty mask to its local test's
    decision, in increasing mask order, as a read-only `LocalDecisions`;
    `dict(report.local_decisions)` is a mutable copy."""

    local_decisions: Mapping[int, bool]
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


@lru_cache(maxsize=None)
def _layout(m: int):
    """Read-only constants of the subset tables at m hypotheses: the
    singletons 1 << k, k < m; the number of codes whose first-ranked member
    is at each rank from the last, 2 (codes 0 and 1) and then 2^k
    (`_decide`); and, for each k, the subsets with bit k clear as the int
    of one row of `_close`'s packed table, runs of 2^k set and 2^k clear
    bits from bit 0, over the row's max(2^m, 8) bits.  Closed
    testing caps m at `MAX_CTP_HYPOTHESES`, so the cache holds at most one
    entry per m up to the cap, about 5 MB if every size is used."""
    bit = 1 << np.arange(m)
    counts = bit.copy()
    counts[0] = 2
    bit.flags.writeable = counts.flags.writeable = False
    row = np.arange(max(1 << m, 8))
    return bit, counts, tuple(int.from_bytes(
        np.packbits(row >> k & 1 == 0, bitorder="little").tobytes(), "little")
        for k in range(m))


def _all_subsets(ranked: Ranked) -> np.ndarray:
    """The (P, 2^m) totals of all 2^m subsets of each row of `ranked`, a
    stack's `procedures.rank` view, by rank-space code.

    In a code, bit m-1-r stands for the member at rank r, so the highest bit
    is the first-ranked member and the lower bits hold later ranks.  Codes
    in [2^q, 2^(q+1)) are those below 2^q plus the member at rank m-1-q, so
    their totals are the lower totals plus that weight: each total adds its
    members from the last rank upward, starting at 0.0 for the empty set,
    the order in which the row's step-down sums its tails.
    """
    count, m = ranked.perm.shape
    _check_ctp_size(m)
    table = np.zeros((count, 1 << m))
    # step q adds the weight at rank m-1-q to the totals of codes below 2^q
    for q, step in enumerate(ranked.w[:, ::-1].T[:, :, None]):
        np.add(table[:, :1 << q], step, out=table[:, 1 << q:2 << q])
    return table


def _check_ctp_size(m: int) -> None:
    if m > MAX_CTP_HYPOTHESES:
        raise CapacityError(
            f"closed testing is capped at {MAX_CTP_HYPOTHESES} hypotheses, got {m}")


def _decide(ranked: Ranked, alpha):
    """Both local tests' rule on every subset of every row of `ranked`, in
    code space: the first-ranked member's (p/w) * total is at most `alpha`,
    a scalar or a (P, 1) column.  Returns `_all_subsets`' totals and the
    (P, 2^m) decisions by code."""
    total = _all_subsets(ranked)
    # each code's first-ranked member is its highest bit: codes 0 and 1
    # take the last rank's p/w (code 0, the empty set, is never read), and
    # the 2^k codes in [2^k, 2^(k+1)) that of rank m-1-k
    first = np.repeat(ranked.tilde[:, ::-1], _layout(ranked.perm.shape[1])[1],
                      axis=1)
    first *= total
    return total, first <= alpha


def _by_index_mask(row: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The 2^m entries of `row`, one row of a table by rank-space code, in
    index-mask order, for the row ranked by `perm` (m,), the index at each
    rank.  As m axes of length 2, axis r of the code row is bit m-1-r, the
    member at rank r, and axis a of the mask row is hypothesis m-1-a, so
    the code row is written through the mask row's axes m-1-perm."""
    m = len(perm)
    out = np.empty_like(row)
    out.reshape((2,) * m).transpose(m - 1 - perm)[...] = row.reshape((2,) * m)
    return out


def _local_test(problem: TestingProblem, masks: Union[int, np.ndarray],
                key: OrderingKey) -> Union[bool, np.ndarray]:
    """K masks with K * m >= 2^m (m within `MAX_CTP_HYPOTHESES`) are read
    from `_decide`'s decisions on all subsets, put in index-mask order by
    `_by_index_mask`.  Otherwise each mask's members are read at each rank
    of the row's `procedures.rank` view, and its total adds their weights
    from the last rank upward, skipping each absent rank, which is adding
    0.0 exactly: the subset table's own sum, so the same bits.  A mask is
    rejected iff its first-ranked member's (p/w) * total is at most alpha.
    Masks of any integer or bool dtype are taken, and object arrays of
    Python ints for masks wider than 64 bits; any other dtype raises
    ValueError."""
    masks = np.asarray(masks)
    if masks.size == 0:
        return np.zeros(masks.shape, dtype=bool)
    if masks.dtype.kind not in "biuO" or masks.dtype.kind == "O" and not all(
            isinstance(mask, (int, np.integer)) for mask in masks.flat):
        raise ValueError(f"intersection masks must be integers: {masks.dtype}")
    m = problem.m
    if masks.min() <= 0 or int(masks.max()) >> m:
        raise ValueError("intersection must be a nonempty subset of the "
                         f"{m} hypotheses")
    if masks.dtype.kind == "u":
        # numpy shifts no uint64 by an int64; the masks are below 2^m
        masks = masks.astype(np.int64 if m < 64 else object)
    flat, ranked = masks.reshape(-1), rank([problem.p], [problem.w], key)
    if flat.size * m >= 1 << m and m <= MAX_CTP_HYPOTHESES:
        _, rejected = _decide(ranked, problem.alpha)
        # (the masks are below 2^m here, whatever their dtype; `take`
        # refuses an object array, so they are cast first)
        rejected = _by_index_mask(rejected[0], ranked.perm[0]).take(
            flat.astype(np.intp, copy=False))
    else:
        # (m, K) member bits by rank (Python ints for masks wider than 64
        # bits)
        member = (flat >> ranked.perm[0, :, None] & 1).astype(bool)
        total = np.zeros(flat.size)
        for held, weight in zip(member[::-1], ranked.w[0, ::-1].tolist()):
            np.add(total, weight, out=total, where=held)
        rejected = (ranked.tilde[0].take(member.argmax(axis=0)) * total
                    <= problem.alpha)
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
    from one call: column I holds mask I, and column 0, the empty set, is
    False."""
    _check_ctp_size(problem.m)
    rejected = np.zeros((1, 1 << problem.m), dtype=bool)
    rejected[0, 1:] = local_test(problem, np.arange(1, 1 << problem.m))
    return rejected


def _close(rejected: np.ndarray) -> np.ndarray:
    """Close a (P, 2^m) table of local rejections whose column c holds
    subset c, under one bit encoding of the subsets: the (P, 2^m) table
    whose column c is True iff the row has a locally accepted superset of
    subset c.  Column 0, the empty set, is counted as accepted whatever it
    holds (it is contained only in itself, so it changes no closure).

    The accepted subsets of the whole stack are packed into one int, row r
    from bit r * stride with stride = max(2^m, 8), whole bytes; pass k ORs
    each subset with bit k set into the same subset with bit k clear, with
    `_layout`'s row of subsets with bit k clear repeated for every row, so
    no bit moves into another row.
    """
    packed = np.packbits(rejected, axis=1, bitorder="little")
    count, width = packed.shape

    def rows(row: int) -> int:
        # `row`, one row's int, repeated for every row
        return row if count == 1 else int.from_bytes(
            row.to_bytes(width, "little") * count, "little")

    bits = (int.from_bytes(packed.tobytes(), "little")
            ^ (1 << 8 * packed.size) - 1 | rows(1))
    for k, kept in enumerate(_layout(rejected.shape[1].bit_length() - 1)[2]):
        bits |= (bits >> (1 << k)) & rows(kept)
    covered = np.frombuffer(bits.to_bytes(packed.size, "little"),
                            dtype=np.uint8).reshape(packed.shape)
    return np.unpackbits(covered, axis=1, count=rejected.shape[1],
                         bitorder="little").view(bool)


def _index_masks(perm: np.ndarray, codes) -> np.ndarray:
    """The index masks of rank-space `codes` (an int or an int array) of a
    row ranked by `perm` (m,), the index at each rank: bit k of a code
    stands for the member at rank m-1-k."""
    bits = np.arange(len(perm))
    return (np.asarray(codes)[..., None] >> bits & 1) @ (1 << perm[::-1])


def _witnesses(covered: np.ndarray, kept: np.ndarray,
               perm: Optional[np.ndarray]) -> List[Optional[int]]:
    """Each row's consonance witness, from `_close`'s table `covered` and
    its singletons `kept`, `covered[:, 1 << k]` for k < m (True where the
    hypothesis of bit k is not rejected): the smallest CTP-rejected index
    mask holding none of the row's elementary rejections, or None.  With the
    (P, m) ranking `perm`, column c of a row holds rank-space code c, and
    the codes found in a row that is searched are mapped to index masks by
    `_index_masks`; with `perm` None, column I holds mask I.  The
    CTP-rejected subsets are closed under supersets (an accepted superset
    of a superset of I is one of I), so only a row whose hypotheses that are
    not rejected form a CTP-rejected set has a witness, and only such a row
    is searched.
    """
    count, size = covered.shape
    held = kept @ _layout(kept.shape[1])[0]
    lone = covered[np.arange(count), held]
    witnesses: List[Optional[int]] = [None] * count
    if lone.all():
        return witnesses
    for r in np.flatnonzero(~lone).tolist():
        found = np.flatnonzero(~covered[r] & (np.arange(size) & ~held[r] == 0))
        if perm is not None:
            found = _index_masks(perm[r], found)
        witnesses[r] = int(found.min())
    return witnesses


def _singletons(covered: np.ndarray) -> np.ndarray:
    """Column k of `_close`'s table `covered` for each k < m, subset 1 << k,
    as (P, m) bools: True iff that subset is covered."""
    return covered[:, _layout(covered.shape[1].bit_length() - 1)[0]]


def ctp(problem: TestingProblem, local_test: LocalTest) -> CtpReport:
    """Evaluate `local_test` on every nonempty subset and close.

    An elementary hypothesis is rejected iff every subset containing it is
    locally rejected, that is iff no locally accepted subset holds it.
    """
    local = _local_rejections(problem, local_test)
    [kept] = _singletons(_close(local)).tolist()
    rejected = [i for i, k in enumerate(kept) if not k]
    trace = tuple((step, i, problem.alpha)
                  for step, i in enumerate(rejected, start=1))
    return CtpReport(local_decisions=LocalDecisions(local[0, 1:]),
                     elementary_rejections=RejectionSet(
                         rejected=frozenset(rejected), trace=trace))


def check_consonance(problem: TestingProblem,
                     local_test: LocalTest) -> ConsonanceReport:
    """Check that every intersection rejected by the full CTP contains an
    elementary hypothesis rejected by the full CTP.

    The witness is the smallest CTP-rejected mask holding no elementary
    rejection.
    """
    covered = _close(_local_rejections(problem, local_test))
    [witness] = _witnesses(covered, _singletons(covered), None)
    return ConsonanceReport(holds=witness is None, violating_subset=witness)


def _counterexamples(ranked: Ranked, alpha: np.ndarray, procedure: Procedure,
                     total: np.ndarray) -> List[Optional[Tuple]]:
    """Per row, the first violation of alpha_i(I) <= alpha_i(J) for i in J,
    J a proper subset of I, as (I, J, i, alpha_i(I), alpha_i(J)) with I and
    J index masks and i a hypothesis, or None where the condition holds.
    `ranked` is the stack's view under the procedure's ranking, `alpha` its
    (P,) levels and `total` `_all_subsets`' totals by rank-space code
    (column 0 the empty set's 0.0).

    WHP gives every member of I its weight share w_i * alpha / total(I).
    WAP gives that share to the first-ranked member, the one with the
    smallest raw p-value (ties to the smallest index), and 0.0 to the rest.
    Only single-element removals are compared: any nested pair J subset of I
    is connected by a chain of such removals, so the reduced check is
    equivalent and a single-removal violation is already a valid witness.
    The search runs in code space: removals of code bit 0 (the last-ranked
    member) are searched first, then of bit 1, and so on; within one, the
    smallest code I and then the lowest code bit i.  Only a violation found
    is mapped back to index masks and a hypothesis, through the ranking.

    A share of i can rise from J = I - {j} to I only where total(I) <
    total(J), since rounded division by a positive total is monotone; under
    WAP, i must also be first in I, and so first in J.  Shares are worked
    out only at such pairs, of which the library's own tables have none
    (step 1 of the module docstring).
    """
    count, m = ranked.perm.shape
    bits = np.arange(m)
    # bit k of a code stands for the member at rank m-1-k
    weight = ranked.w[:, ::-1]

    def shares(rows, codes):
        # alpha_i(code) of each row by code bit, with +inf outside the code
        high = codes[:, None] >> bits
        share = weight[rows] * alpha[rows, None] / total[rows, codes, None]
        if procedure is Procedure.WAP:
            # the first-ranked member is the highest bit, as in `_decide`
            share[high != 1] = 0.0
        return np.where(high & 1 == 1, share, np.inf)

    found: List[Optional[Tuple]] = [None] * count
    for k in range(m):
        # [:, a, 1, b] is code I = a * 2^(k+1) + 2^k + b and [:, a, 0, b] is
        # I - 2^k
        halves = total.reshape(count, -1, 2, 1 << k)
        if k < 3:
            # numpy would loop innermost over runs of 2^k < 8 codes b, which
            # cost more to step through than to compare: loop over a
            halves = halves.swapaxes(1, 3)
            below = np.less(halves[:, :, 1], halves[:, :, 0],
                            order="C").swapaxes(1, 2)
        else:
            below = halves[:, :, 1] < halves[:, :, 0]
        if not below.any():
            continue
        rows, a, b = np.nonzero(below)
        small = a << (k + 1) | b
        big_share, small_share = shares(rows, small | 1 << k), shares(rows, small)
        viol = big_share > small_share
        for n in np.flatnonzero(viol.any(axis=1)).tolist():
            r, i = int(rows[n]), int(viol[n].argmax())
            if found[r] is None:
                big, mask = _index_masks(ranked.perm[r],
                                         [small[n] | 1 << k, small[n]])
                found[r] = (int(big), int(mask), int(ranked.perm[r, m - 1 - i]),
                            float(big_share[n, i]), float(small_share[n, i]))
    return found


def check_monotonicity_condition(problem: TestingProblem,
                                 procedure: Procedure) -> MonotonicityReport:
    """Verify alpha_i(I) <= alpha_i(J) for all i in J, J a proper subset of I
    (see `_counterexamples`)."""
    ranked = rank([problem.p], [problem.w], ranking(procedure))
    [found] = _counterexamples(ranked, np.array([problem.alpha]), procedure,
                               _all_subsets(ranked))
    return MonotonicityReport(holds=found is None, counterexample=found)


class ClosedStack:
    """Closed testing of problems of one size under the local test of WHP
    (`whp_local_test`) or of WAP (`wap_local_test`), for all of them at once
    from one subset table.  `ranked` is their `procedures.rank` view under
    the procedure's ranking, the view `adjust_rows` decides, and `alpha`
    their (P,) levels.  Each attribute holds one entry per problem, in stack
    order, equal to what the one-problem function returns for it:

    - `rejections`: a (P, m) bool array whose row holds the closed
      elementary rejections in hypothesis order, the indices of
      `ctp(problem, local_test).elementary_rejections.rejected`;
    - `consonance_witnesses`: the smallest CTP-rejected mask holding no
      elementary rejection, or None, as
      `check_consonance(problem, local_test).violating_subset`;
    - `monotonicity_counterexamples`: as
      `check_monotonicity_condition(problem, procedure).counterexample`,
      worked out from the same subset totals when first read.

    The decisions are made and closed in code space (`_decide`, `_close`)
    from a table of totals alone, and only the singletons, put in
    hypothesis order through the view's flat index, and the witnesses are
    read back, each witness's codes mapped to index masks through its row's
    ranking (`_index_masks`).
    """

    def __init__(self, ranked: Ranked, alpha: np.ndarray,
                 procedure: Procedure):
        self.procedure = procedure
        self._alpha, self._ranked, self.m = alpha, ranked, ranked.perm.shape[1]
        self._total, rejected = _decide(ranked, alpha[:, None])
        covered = _close(rejected)
        kept = _singletons(covered)
        self.consonance_witnesses = _witnesses(covered, kept, ranked.perm)
        # bit k of a code stands for rank m-1-k: reversed, kept is by rank
        self.rejections = np.empty_like(kept)
        self.rejections.put(ranked.flat, ~kept[:, ::-1])

    @cached_property
    def monotonicity_counterexamples(self) -> List[Optional[Tuple]]:
        return _counterexamples(self._ranked, self._alpha, self.procedure,
                                self._total)


def _draw_corpus(count: int, seed: int, m_max: int, alpha: float) -> _Corpus:
    """`random_corpus`'s draw as a `_Corpus`: the (count,) sizes, the start
    of each problem's values in the flat p-values and weights, those two,
    and the (count,) alphas, all `alpha`.

    All sizes are drawn first, then all p-values, then all weights, each in
    one generator call.  The arrays are checked once as `validate_problem`
    checks each problem: a bad value raises its ValueError, naming the
    value's index in its problem.
    """
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
    return sizes, starts, p, w, np.full(count, alpha)


def random_corpus(count: int, seed: int, m_max: int = 8,
                  alpha: float = 0.05) -> List[TestingProblem]:
    """Seeded corpus of random problems: m uniform on {1..m_max}, p i.i.d.
    U(0, 1) and weights i.i.d. U(0.5, 5), all cut by `_cut` from one
    `_draw_corpus`.

    All sizes are drawn first, then all p-values, then all weights, so
    `random_corpus(n, seed)[:k]` is not `random_corpus(k, seed)`.  Every
    problem equals `validate_problem` on its labels, p, w and alpha.
    `battery.run_check_battery` reads the same draw as arrays and cuts a
    problem only for a witness.
    """
    return _cut(_draw_corpus(count, seed, m_max, float(alpha)), slice(None))


def _cut(corpus: _Corpus, index) -> List[TestingProblem]:
    """The problems `index` (a slice or a sequence of ints) of `corpus`, in
    that order: problem k holds the sizes[k] values of p and w from
    starts[k], labelled by `_labels`, at alphas[k].  The arrays are
    converted to Python floats once, whatever their number of problems."""
    sizes, starts, p, w, alphas = corpus
    labels = {m: _labels(m) for m in set(sizes.tolist())}
    p, w = p.tolist(), w.tolist()
    rows = zip(*(column[index].tolist() for column in (sizes, starts, alphas)))
    return [TestingProblem(labels[m], tuple(p[a:a + m]), tuple(w[a:a + m]),
                           alpha) for m, a, alpha in rows]


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
    p-values loses a rejection: some hypothesis rejected at p is kept at q,
    whatever else is rejected at q.

    Returns (problem, lowered_problem) for the first violating trial, or
    None.  All trials are drawn before any is decided (`_search_trials`),
    and their p-values are checked at once by `core._check_block`, all p
    and then all q: one outside [0, 1] raises ValueError naming its trial
    and hypothesis, the first trial with one.  They are then decided in
    chunks that double from `SEARCH_FIRST_CHUNK`, so an early witness costs
    only a small chunk, and the witness does not depend on the chunks.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1: {trials}")
    key = ranking(procedure)
    sizes, p, q, w = _search_trials(np.random.default_rng(seed), trials)
    # q = p * u with u in [0, 1) at one entry per trial, so a trial with a
    # bad q has a bad p: checking p first names the first bad trial
    for values in (p, q):
        _check_block(values, (values >= 0.0) & (values <= 1.0),
                     "p-value out of [0, 1]", "trial")
    lost = np.zeros(trials, dtype=bool)
    start, chunk = 0, SEARCH_FIRST_CHUNK
    while start < trials:
        stop = min(start + chunk, trials)
        # one `rank` and `adjust_rows` call over the p and q rows of each
        # size, whose rejections in hypothesis order are compared as sets
        for m in np.unique(sizes[start:stop]).tolist():
            rows = start + np.flatnonzero(sizes[start:stop] == m)
            sets = adjust_rows(rank(np.concatenate([p[rows, :m], q[rows, :m]]),
                                    np.concatenate([w[rows, :m]] * 2), key),
                               0.05)[2]
            lost[rows] = (sets[:rows.size] & ~sets[rows.size:]).any(axis=1)
        if lost.any():
            t = int(lost.argmax())
            m = sizes[t]
            labels = _labels(m)
            return (validate_problem(labels, p[t, :m], w[t, :m], 0.05),
                    validate_problem(labels, q[t, :m], w[t, :m], 0.05))
        start, chunk = stop, 2 * chunk
    return None
