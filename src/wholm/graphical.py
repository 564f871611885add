"""Graphical formulation: an (m,) vector of local levels and an (m, m)
matrix of transition coefficients `g`, both exactly 0 at rejected nodes, `g`
0 on its diagonal.  Rejecting node j is the update of Bretz et al. (2009):
alpha_l += alpha_j * g_jl and g_lk <- (g_lk + g_lj * g_jk) / (1 - g_lj * g_jl).
WHP and WAP share the weight-derived initial graph, from which the update
stays in closed form (the tests' independent oracle), and each tests the
next hypothesis in `procedures.rank_rows`'s ranking, by p/w or by p.  The
rejections are a prefix of that ranking, so `run_graphical` walks it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Optional, Sequence, Tuple

import numpy as np

from .core import OrderingKey, RejectionSet, TestingProblem
from .procedures import rank_rows


class GraphInvariantError(RuntimeError):
    pass


@dataclass(frozen=True)
class TransitionGraph:
    active: FrozenSet[int]
    local_alpha: np.ndarray
    g: np.ndarray


@dataclass(frozen=True)
class GraphStep:
    rejected_index: int
    after: TransitionGraph


@dataclass(frozen=True)
class GraphTrace:
    steps: Tuple[GraphStep, ...]


def initial_graph(w: Sequence[float], alpha: float) -> TransitionGraph:
    """Weight-proportional initial allocation with row-stochastic coefficients."""
    total = sum(w)
    w = np.asarray(w, dtype=float)
    m = len(w)
    # each row's other weights, summed directly: total - w_i cancels when
    # w_i holds nearly all the weight
    left, right = np.zeros(m), np.zeros(m)
    np.add.accumulate(w[:-1], out=left[1:])
    np.add.accumulate(w[:0:-1], out=right[-2::-1])
    # one node has no edge; with two or more every row has weight to share
    g = w / (left + right)[:, None] if m > 1 else np.zeros((1, 1))
    g.flat[::m + 1] = 0.0
    return TransitionGraph(active=frozenset(range(m)),
                           local_alpha=w * alpha / total, g=g)


def reject_and_update(graph: TransitionGraph, j: int) -> TransitionGraph:
    """Remove node j, redistributing its level along g_j. and rewiring edges.
    A rejected node's coefficients are 0, so only row j, column j and the
    diagonal of the rewired matrix need clearing."""
    if j not in graph.active:
        raise ValueError(f"node {j} is not active")
    remaining = graph.active - {j}
    g = graph.g
    local = graph.local_alpha + graph.local_alpha[j] * g[j]
    local[j] = 0.0
    if len(remaining) < 2:
        return TransitionGraph(active=remaining, local_alpha=local,
                               g=np.zeros_like(g))
    g_to_j, g_from_j = g[:, j], g[j]
    denom = 1.0 - g_to_j * g_from_j
    if denom.min() <= 0.0:
        l = int(np.argmin(denom))
        raise GraphInvariantError(
            f"degenerate update: g[{l},{j}] * g[{j},{l}] = 1")
    g = (g + np.multiply.outer(g_to_j, g_from_j)) / denom[:, None]
    g[j] = 0.0
    g[:, j] = 0.0
    g.flat[::len(g) + 1] = 0.0
    return TransitionGraph(active=remaining, local_alpha=local, g=g)


def run_graphical(problem: TestingProblem,
                  ordering: OrderingKey) -> Tuple[RejectionSet, GraphTrace]:
    """Test the hypotheses in `rank_rows`'s order until the first failure.

    WEIGHTED ordering reproduces WHP, RAW ordering reproduces WAP.  A
    hypothesis is rejected iff its raw p-value is at or below its current
    local level.
    """
    p = np.array([problem.p])
    perm = rank_rows(p, p / np.array([problem.w]), ordering)[0].tolist()
    graph = initial_graph(problem.w, problem.alpha)
    steps = []
    trace = []
    for j in perm:
        threshold = float(graph.local_alpha[j])
        if problem.p[j] > threshold:
            break
        graph = reject_and_update(graph, j)
        steps.append(GraphStep(rejected_index=j, after=graph))
        trace.append((len(trace) + 1, j, threshold))
    return (RejectionSet(rejected=frozenset(perm[:len(trace)]),
                         trace=tuple(trace)),
            GraphTrace(steps=tuple(steps)))


_MAX_DENOMINATOR = 10 ** 6
# below it a float's denominator can pass 2**62, so `_coefficient_label` takes it
_KERNEL_LOW = 2.0 ** -10


def _coefficient_label(value: float) -> str:
    frac = Fraction(value).limit_denominator(_MAX_DENOMINATOR)
    if abs(float(frac) - value) < 1e-12:
        if frac.denominator == 1:
            return str(frac.numerator)
        return f"{frac.numerator}/{frac.denominator}"
    return f"{value:.6f}"


def _limit_denominator(n, d):
    """`Fraction(n, d).limit_denominator(_MAX_DENOMINATOR)` for int64 arrays
    of reduced n/d in [0, 1) with d > _MAX_DENOMINATOR, as (numerator,
    denominator) arrays.  The continued fraction takes one masked step per
    term; a lane leaves at its first convergent past the limit, as in
    CPython.  A partial quotient is clamped to limit + 1 before it
    multiplies q1: the lane still leaves there, and every product stays
    below 2 * limit**2."""
    limit = _MAX_DENOMINATOR
    p0, q0 = np.zeros_like(n), np.ones_like(n)
    p1, q1 = np.ones_like(n), np.zeros_like(n)
    denominator, steps = d, np.ones(len(n), dtype=bool)
    while True:
        a = np.minimum(n // d, limit + 1)
        q2 = q0 + a * q1
        steps &= q2 <= limit
        if not steps.any():
            break
        p0, q0, p1, q1 = (np.where(steps, p1, p0), np.where(steps, q1, q0),
                          np.where(steps, p0 + a * p1, p1),
                          np.where(steps, q2, q1))
        n, d = np.where(steps, d, n), np.where(steps, n - a * d, d)
    k = (limit - q0) // q1
    bound = q0 + k * q1
    # p1/q1 unless it is farther than the other candidate: CPython's test
    # 2*d*bound <= denominator, in integers
    nearer = d <= denominator // (2 * bound)
    return np.where(nearer, p1, p0 + k * p1), np.where(nearer, q1, bound)


def _coefficient_labels(values) -> list:
    """`_coefficient_label` of each value, computed at once in int64 for
    values in [2**-10, 1) and one by one for the rest.  Each float there is
    n / 2**s with s <= 62; a reduced denominator within the limit is its own
    fraction, any other goes through `_limit_denominator`."""
    labels = [None] * len(values)
    kernel = (values >= _KERNEL_LOW) & (values < 1.0)
    for i in np.flatnonzero(~kernel).tolist():
        labels[i] = _coefficient_label(float(values[i]))
    v = values[kernel]
    mantissa, exponent = np.frexp(v)
    n = (mantissa * 2.0 ** 53).astype(np.int64)
    low_bit = n & -n
    num = n // low_bit
    den = np.left_shift(1, 53 - exponent.astype(np.int64)) // low_bit
    cf = den > _MAX_DENOMINATOR
    num[cf], den[cf] = _limit_denominator(num[cf], den[cf])
    # int64 / int64 rounds as Python's int / int below 2**53
    close = np.abs(num / den - v) < 1e-12
    for i, ok, p, q, value in zip(np.flatnonzero(kernel).tolist(), close.tolist(),
                                  num.tolist(), den.tolist(), v.tolist()):
        labels[i] = ((str(p) if q == 1 else f"{p}/{q}") if ok
                     else f"{value:.6f}")
    return labels


def _off_diagonal(graph: TransitionGraph) -> np.ndarray:
    """The active coefficients g_ij, i != j, in the order `_stage_dot`
    prints them: by row, then by column, over the sorted active nodes."""
    active = sorted(graph.active)
    return graph.g[np.ix_(active, active)][~np.eye(len(active), dtype=bool)]


def _stage_dot(name: str, graph: TransitionGraph, all_nodes, labels,
               edge_labels) -> str:
    local = graph.local_alpha.tolist()
    lines = [f"digraph {name} {{"]
    for i in all_nodes:
        if i in graph.active:
            lines.append(
                f'  "{labels[i]}" [label="{labels[i]}\\n'
                f'alpha={local[i]:.4f}"];')
        else:
            lines.append(f'  "{labels[i]}" [label="{labels[i]}", rejected=true];')
    active = sorted(graph.active)
    edges = ((i, j) for i in active for j in active if i != j)
    # zip asks `edges` first, so it takes exactly this stage's labels off
    # the iterator shared by all stages
    lines.extend(f'  "{labels[i]}" -> "{labels[j]}" [label="{text}"];'
                 for (i, j), text in zip(edges, edge_labels))
    lines.append("}")
    return "\n".join(lines)


def dot_stages(trace: GraphTrace, initial: TransitionGraph,
               labels: Optional[Sequence[str]] = None):
    """One DOT digraph per stage: the initial graph, then each post-rejection
    snapshot.  The edge labels of all stages come from one
    `_coefficient_labels` call."""
    all_nodes = sorted(initial.active)
    if labels is None:
        labels = {i: f"H{i + 1}" for i in all_nodes}
    else:
        labels = {i: labels[i] for i in all_nodes}
    graphs = [initial] + [step.after for step in trace.steps]
    edge_labels = iter(_coefficient_labels(
        np.concatenate([_off_diagonal(graph) for graph in graphs])))
    return [_stage_dot(f"stage_{k}", graph, all_nodes, labels, edge_labels)
            for k, graph in enumerate(graphs)]


def export_dot(trace: GraphTrace, initial: TransitionGraph,
               labels: Optional[Sequence[str]] = None) -> str:
    return "\n\n".join(dot_stages(trace, initial, labels)) + "\n"
