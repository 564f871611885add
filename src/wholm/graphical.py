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


def _coefficient_label(value: float) -> str:
    frac = Fraction(value).limit_denominator(10 ** 6)
    if abs(float(frac) - value) < 1e-12:
        if frac.denominator == 1:
            return str(frac.numerator)
        return f"{frac.numerator}/{frac.denominator}"
    return f"{value:.6f}"


def _stage_dot(name: str, graph: TransitionGraph, all_nodes, labels) -> str:
    local, g = graph.local_alpha.tolist(), graph.g.tolist()
    lines = [f"digraph {name} {{"]
    for i in all_nodes:
        if i in graph.active:
            lines.append(
                f'  "{labels[i]}" [label="{labels[i]}\\n'
                f'alpha={local[i]:.4f}"];')
        else:
            lines.append(f'  "{labels[i]}" [label="{labels[i]}", rejected=true];')
    active = sorted(graph.active)
    for i in active:
        for j in active:
            if i != j:
                lines.append(f'  "{labels[i]}" -> "{labels[j]}" '
                             f'[label="{_coefficient_label(g[i][j])}"];')
    lines.append("}")
    return "\n".join(lines)


def dot_stages(trace: GraphTrace, initial: TransitionGraph,
               labels: Optional[Sequence[str]] = None):
    """One DOT digraph per stage: the initial graph, then each post-rejection
    snapshot."""
    all_nodes = sorted(initial.active)
    if labels is None:
        labels = {i: f"H{i + 1}" for i in all_nodes}
    else:
        labels = {i: labels[i] for i in all_nodes}
    stages = [_stage_dot("stage_0", initial, all_nodes, labels)]
    for k, step in enumerate(trace.steps, start=1):
        stages.append(_stage_dot(f"stage_{k}", step.after, all_nodes, labels))
    return stages


def export_dot(trace: GraphTrace, initial: TransitionGraph,
               labels: Optional[Sequence[str]] = None) -> str:
    return "\n\n".join(dot_stages(trace, initial, labels)) + "\n"
