"""Shared domain types for weighted multiple testing problems.

A testing problem bundles hypothesis labels, raw p-values, strictly positive
weights and a global significance level.  Everything downstream (step-down
procedures, closed testing, graphs, adjusted p-values) consumes these
immutable values.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, Tuple


class OrderingKey(Enum):
    """Which scale an ordering permutation was computed on."""

    RAW = "raw"
    WEIGHTED = "weighted"


@dataclass(frozen=True)
class TestingProblem:
    labels: Tuple[str, ...]
    p: Tuple[float, ...]
    w: Tuple[float, ...]
    alpha: float

    @property
    def m(self) -> int:
        return len(self.p)


@dataclass(frozen=True)
class WeightedPValues:
    tilde_p: Tuple[float, ...]


@dataclass(frozen=True)
class OrderingPermutation:
    """Maps rank -> original index; equal keys keep increasing index order."""

    perm: Tuple[int, ...]
    key: OrderingKey


@dataclass(frozen=True)
class RejectionSet:
    """Rejected indices plus the ordered (step, index, threshold) trace.

    Thresholds are recorded on the raw p-value scale, so they always lie in
    (0, 1) regardless of the weight magnitudes.
    """

    rejected: frozenset
    trace: Tuple[Tuple[int, int, float], ...]


def check_weights(w: Sequence[float]) -> None:
    """Raise ValueError if there is no weight, or naming the first weight
    that is not positive and finite."""
    if len(w) == 0:
        raise ValueError("weights must be a nonempty positive sequence")
    for i, wi in enumerate(w):
        if not (0.0 < wi < float("inf")):
            raise ValueError(f"weight must be positive and finite at index {i}: {wi}")


def validate_problem(labels: Sequence[str], p: Sequence[float],
                     w: Sequence[float], alpha: float) -> TestingProblem:
    """Validate raw inputs and build an immutable TestingProblem.

    Raises ValueError naming the offending index or label for any violated
    constraint: mismatched lengths, duplicate labels, p outside [0, 1],
    nonpositive or nonfinite weights, or alpha outside (0, 1).
    """
    labels = tuple(str(x) for x in labels)
    p = tuple(float(x) for x in p)
    w = tuple(float(x) for x in w)
    alpha = float(alpha)
    m = len(labels)
    if m == 0:
        raise ValueError("at least one hypothesis is required")
    if len(p) != m or len(w) != m:
        raise ValueError(
            f"length mismatch: {m} labels, {len(p)} p-values, {len(w)} weights")
    if len(set(labels)) != m:
        label = next(x for x, n in Counter(labels).items() if n > 1)
        raise ValueError(f"duplicate hypothesis label: {label}")
    for i, pi in enumerate(p):
        if not (0.0 <= pi <= 1.0):
            raise ValueError(f"p-value out of [0, 1] at index {i}: {pi}")
    check_weights(w)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1): {alpha}")
    return TestingProblem(labels=labels, p=p, w=w, alpha=alpha)


def weighted_pvalues(problem: TestingProblem) -> WeightedPValues:
    """Componentwise p_i / w_i."""
    return WeightedPValues(tilde_p=tuple(pi / wi for pi, wi in zip(problem.p, problem.w)))


def order(values: Sequence[float], key: OrderingKey) -> OrderingPermutation:
    """Stable ascending sort permutation over `values`.

    Ties are broken by smallest original index, which makes every downstream
    procedure deterministic.
    """
    vals = [float(v) for v in values]
    perm = tuple(sorted(range(len(vals)), key=lambda i: (vals[i], i)))
    return OrderingPermutation(perm=perm, key=key)


def load_problem_csv(path, alpha: float) -> TestingProblem:
    """Read a `hypothesis,p_value,weight` CSV into a validated problem.

    Row order is preserved as hypothesis order.
    """
    labels, ps, ws = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        expected = ["hypothesis", "p_value", "weight"]
        if [h.strip() for h in header] != expected:
            raise ValueError(
                f"{path}: expected header {','.join(expected)}, got {','.join(header)}")
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ValueError(f"{path}: row {rownum}: expected 3 columns, got {len(row)}")
            label, p_str, w_str = (c.strip() for c in row)
            try:
                ps.append(float(p_str))
                ws.append(float(w_str))
            except ValueError:
                raise ValueError(f"{path}: row {rownum}: malformed number") from None
            labels.append(label)
    if not labels:
        raise ValueError(f"{path}: no data rows")
    return validate_problem(labels, ps, ws, alpha)
