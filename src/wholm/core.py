"""Shared domain types for weighted multiple testing problems.

A testing problem bundles hypothesis labels, raw p-values, strictly positive
weights and a global significance level.  Everything downstream (step-down
procedures, closed testing, graphs, adjusted p-values) consumes these
immutable values.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Tuple

import numpy as np


class OrderingKey(Enum):
    """Which scale a ranking is computed on: p/w or raw p."""

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


def _labels(m: int) -> Tuple[str, ...]:
    """The default labels of m hypotheses, "H1" to "Hm"."""
    return tuple(f"H{i + 1}" for i in range(m))


@dataclass(frozen=True)
class RejectionSet:
    """Rejected indices plus the ordered (step, index, threshold) trace.

    Thresholds are recorded on the raw p-value scale, so they always lie in
    (0, 1) regardless of the weight magnitudes.
    """

    rejected: frozenset
    trace: Tuple[Tuple[int, int, float], ...]


def check_weights(w: Sequence[float]) -> None:
    """Raise ValueError if there is no weight, naming the first weight that
    is not positive and finite, or else the weight at which their total
    overflows."""
    if len(w) == 0:
        raise ValueError("weights must be a nonempty positive sequence")
    # min and max decide every value but NaN, which makes the total NaN, and
    # the last running total decides an overflow: Python 3.11's `sum` adds
    # the same way, but from 3.12 on `sum` compensates its additions and can
    # overflow where the running total does not.  The values are walked
    # only to name the first bad one
    totals = list(itertools.accumulate(w))
    if not (min(w) > 0.0 and max(w) < math.inf and totals[-1] < math.inf):
        for i, wi in enumerate(w):
            if not (0.0 < wi < math.inf):
                raise ValueError(
                    f"weight must be positive and finite at index {i}: {wi}")
        i = totals.index(math.inf)
        raise ValueError(f"weight total overflows at index {i}: {w[i]}")


def check_pvalues(p: Sequence[float]) -> None:
    """Raise ValueError naming the first p-value outside [0, 1]."""
    # min and max decide every value but NaN
    if len(p) and not (min(p) >= 0.0 and max(p) <= 1.0
                       and not any(map(math.isnan, p))):
        for i, pi in enumerate(p):
            if not (0.0 <= pi <= 1.0):
                raise ValueError(f"p-value out of [0, 1] at index {i}: {pi}")


def _check_block(values: np.ndarray, ok: np.ndarray, what: str, unit: str,
                 offset: int = 0) -> None:
    """Raise ValueError naming the first entry, in row-major order, of a
    (rows, m) block `values` where the bools `ok` fail: `what`, then the
    `unit` (a replicate or a trial) numbered `offset` plus its row, and the
    hypothesis, as in "p-value out of [0, 1] in trial 2, hypothesis 1: nan".
    """
    if not ok.all():
        r, i = np.argwhere(~ok)[0]
        raise ValueError(f"{what} in {unit} {offset + r}, "
                         f"hypothesis {i}: {values[r, i]}")


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless alpha lies in (0, 1)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1): {alpha}")


def validate_problem(labels: Sequence[str], p: Sequence[float],
                     w: Sequence[float], alpha: float) -> TestingProblem:
    """Validate raw inputs and build an immutable TestingProblem.

    Raises ValueError naming the offending index or label for any violated
    constraint: mismatched lengths, duplicate labels, p outside [0, 1],
    nonpositive or nonfinite weights, a weight total or a p/w that
    overflows, or alpha outside (0, 1).  A p-value of -0 is taken as 0.
    """
    labels = tuple(map(str, labels))
    p = tuple(map(float, p))
    if 0.0 in p:
        # -0.0 + 0.0 is 0.0, and adding 0.0 leaves every other float as it is
        p = tuple([x + 0.0 for x in p])
    w = tuple(map(float, w))
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
    check_pvalues(p)
    check_weights(w)
    check_alpha(alpha)
    # no p/w exceeds 1 / min(w), as p <= 1, so only then can one overflow
    if 1.0 / min(w) == math.inf:
        for i, (pi, wi) in enumerate(zip(p, w)):
            if pi / wi == math.inf:
                raise ValueError(f"p-value over weight overflows at index {i}: "
                                 f"{pi} / {wi}")
    return TestingProblem(labels=labels, p=p, w=w, alpha=alpha)


def load_problem_csv(path, alpha: float) -> TestingProblem:
    """Read a `hypothesis,p_value,weight` CSV into a validated problem.

    Row order is preserved as hypothesis order, and cells are stripped of
    whitespace.  A UTF-8 byte order mark before the header is ignored.  Rows
    that are empty once stripped are skipped; any other row must have three
    cells and two numbers, or the first row that does not is named, as is a
    row the csv module cannot read (a field over its size limit).
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        expected = ["hypothesis", "p_value", "weight"]
        if [h.strip() for h in header] != expected:
            raise ValueError(
                f"{path}: expected header {','.join(expected)}, got {','.join(header)}")
        # as tuples of strings, the rows leave the garbage collector's view
        # at its first pass instead of being traversed by every later one
        rows = []
        try:
            rows.extend(map(tuple, reader))
        except csv.Error as exc:
            # a bad row before the one the reader fails on is named first
            _read_rows(path, rows)
            raise ValueError(f"{path}: row {len(rows) + 2}: {exc}") from None
    columns = _read_columns(rows)
    if columns is None:
        columns = _read_rows(path, rows)
        if not columns[0]:
            raise ValueError(f"{path}: no data rows")
    return validate_problem(*columns, alpha)


def _read_columns(rows):
    """The labels, p-values and weights of the data `rows`, read a whole
    column at a time, or None if a row is not three cells or a number cell
    is one `float` refuses.  `float` ignores the whitespace around a number
    itself, except U+001C to U+001F, which `_read_rows` strips."""
    if set(map(len, rows)) != {3}:
        return None
    labels, ps, ws = zip(*rows)
    try:
        return map(str.strip, labels), tuple(map(float, ps)), tuple(map(float, ws))
    except ValueError:
        return None


def _read_rows(path, rows):
    """The labels, p-values and weights of the data `rows`, read one row at
    a time: blank rows are skipped, and the first row of another width or
    with a malformed number is named by its row number in the file."""
    labels, ps, ws = [], [], []
    for rownum, row in enumerate(rows, start=2):
        row = [c.strip() for c in row]
        if not any(row):
            continue
        if len(row) != 3:
            raise ValueError(f"{path}: row {rownum}: expected 3 columns, got {len(row)}")
        label, p_str, w_str = row
        try:
            ps.append(float(p_str))
            ws.append(float(w_str))
        except ValueError:
            raise ValueError(f"{path}: row {rownum}: malformed number") from None
        labels.append(label)
    return labels, ps, ws
