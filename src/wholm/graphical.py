"""Graphical formulation: an (m,) vector of local levels and an (m, m)
matrix of transition coefficients `g`, both exactly 0 at rejected nodes, `g`
0 on its diagonal.  Rejecting node j is the update of Bretz et al. (2009):
alpha_l += alpha_j * g_jl and g_lk <- (g_lk + g_lj * g_jk) / (1 - g_lj * g_jl).
WHP and WAP share the weight-derived initial graph, from which the update
stays in closed form (the tests' independent oracle), and each tests the
next hypothesis in the step-downs' ranking, by p/w or by p.  The walk reads
a problem only through its `procedures.rank` view: the ranking, and the
p-values and weights by rank.  The initial graphs of a stack are built in
one place, `_initial_graphs`, with a 0 diagonal; `initial_graph` is its
one-row call in hypothesis order.

The rejections are a prefix of that ranking, so `_walk` runs the graphs of a
stack of same-size problems along it at once, each permuted into rank
order: step k tests rank k of every row still rejecting and updates only
the trailing block of ranks k+1.. left active, with `reject_and_update`'s
elementwise expressions.  `run_graphical` is a one-row walk; each of its
steps keeps its own rank-order block, put back in hypothesis order only
when its `GraphStep.after` is read.  `graph_rejections` gives the battery
the rejections of a whole stack from one walk of the view the step-down
kernel returned for it.  `dot_stages` writes each node name and
label as a DOT quoted string, its backslashes and double quotes escaped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import FrozenSet, Optional, Sequence, Tuple

import numpy as np

from .core import OrderingKey, RejectionSet, TestingProblem, _labels
from .procedures import Ranked, rank


class GraphInvariantError(RuntimeError):
    """An update would divide by 1 - g_lj * g_jl <= 0.  `row` is the row of
    the walked stack whose update it is (0 for `run_graphical`)."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class TransitionGraph:
    active: FrozenSet[int]
    local_alpha: np.ndarray
    g: np.ndarray


@dataclass(frozen=True)
class GraphStep:
    """One rejection of `run_graphical`.  It keeps the run's ranking and the
    graph after it as `_walk` yields it, a (1, n + 1, n) block in rank order
    over the n ranks still active; `after` scatters that block into fresh
    hypothesis-order arrays each time it is read."""

    rejected_index: int
    _ranking: np.ndarray = field(repr=False, compare=False)
    _block: np.ndarray = field(repr=False, compare=False)

    @property
    def after(self) -> TransitionGraph:
        [block] = self._block
        m, n = len(self._ranking), block.shape[1]
        active = self._ranking[m - n:]
        g, local = np.zeros((m, m)), np.zeros(m)
        g[active[:, None], active] = block[:n]
        local[active] = block[n]
        return TransitionGraph(active=frozenset(active.tolist()),
                               local_alpha=local, g=g)


@dataclass(frozen=True)
class GraphTrace:
    steps: Tuple[GraphStep, ...]


def initial_graph(w: Sequence[float], alpha: float) -> TransitionGraph:
    """Weight-proportional initial allocation with row-stochastic
    coefficients: `_initial_graphs` of one row in index order."""
    m = len(w)
    graph = _initial_graphs(np.array([w], dtype=float), alpha,
                            np.arange(m)[None])[0]
    return TransitionGraph(active=frozenset(range(m)), local_alpha=graph[m],
                           g=graph[:m])


def _initial_graphs(w, alpha, flat):
    """The initial graphs of (P, m) weights `w` by rank, as (P, m + 1, m) in
    that rank order: g_ij = w_j over the other weights, then the levels
    w_i * alpha / total as a last row; `flat` is the flat index in
    hypothesis order of each rank, and `alpha` a scalar or a (P, 1) column.
    The weights are put back in hypothesis order once, for the sums: the
    other weights are summed from both ends towards i, since total - w_i
    cancels when w_i holds nearly all the weight; the total is the left sum
    run on to the last weight, the sequential sum in index order.  The
    diagonal is 0: it is cleared before the division, so w_i over the other
    weights is never formed (it overflows when they are subnormal)."""
    count, m = w.shape
    by_index = np.empty_like(w)
    by_index.put(flat, w)
    left, right = np.zeros((2, count, m))
    np.add.accumulate(by_index[:, :-1], axis=1, out=left[:, 1:])
    np.add.accumulate(by_index[:, :0:-1], axis=1, out=right[:, -2::-1])
    total = left[:, -1:] + by_index[:, -1:]
    others = np.add(left, right).take(flat)
    graph = np.empty((count, m + 1, m))
    graph[:, :m] = w[:, None, :]
    graph.reshape(count, -1)[:, :m * m:m + 1] = 0.0
    if m > 1:
        graph[:, :m] /= others[:, :, None]
    np.multiply(w, alpha, out=graph[:, m])
    graph[:, m] /= total
    return graph


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


def _walk(ranked: Ranked, alpha: np.ndarray):
    """The graphs of a stack of problems, walked along its `procedures.rank`
    view `ranked`, from the p-values and weights by rank that the view holds,
    at the (P,) levels `alpha`.

    Yields one item per step k that some row rejects at: the stack rows
    rejecting rank k, the levels rank k was tested at, and the rows' graphs
    after the rejection over the n = m - k - 1 ranks still active, as an
    (L, n + 1, n) array: the coefficients, then the levels as a last row.
    The levels update as a coefficient row does, without the division.  The
    initial graphs are `_initial_graphs`', as `initial_graph`'s are; rows
    that stop are dropped.  A degenerate update raises `GraphInvariantError`
    naming the stack row and, in hypothesis indices, the node
    `reject_and_update` names.
    """
    p, perm = ranked.p, ranked.perm
    graph = _initial_graphs(ranked.w, alpha[:, None], ranked.flat)
    live = np.arange(len(p))
    m = p.shape[1]
    for k in range(m):
        threshold = graph[:, -1, 0]
        passed = p[:, k] <= threshold
        kept = np.count_nonzero(passed)
        if kept < len(live):
            if not kept:
                return
            live, threshold, p, graph = (
                a[passed] for a in (live, threshold, p, graph))
        # row and column 0 are the rejected node's
        n = m - k - 1
        update = graph[:, 1:, :1] * graph[:, :1, 1:]
        if n < 2:
            graph = np.add(graph[:, 1:, 1:], update, out=update)
            graph[:, :n] = 0.0
        else:
            # the diagonal of the coefficients' update, as an (L, n, 1)
            # view, holds each g_lj * g_jl
            diagonal = update.reshape(kept, -1)[:, :n * (n + 1):n + 1, None]
            denom = 1.0 - diagonal
            if not denom.min() > 0.0:
                _degenerate(denom[:, :, 0], perm[live, k:], live)
            graph = np.add(graph[:, 1:, 1:], update, out=update)
            graph[:, :n] /= denom
            diagonal.fill(0.0)
        yield live, threshold, graph


def _degenerate(denom, ranks, live):
    """Raise for the first row of `denom` (L, n) with a denominator <= 0,
    naming the node of its smallest denominator, the first in hypothesis
    order.  `ranks` (L, n + 1) holds each row's rejected node and then its
    active ones, and `live` each row's place in the stack.  A NaN min is no
    failure, as in `reject_and_update`."""
    low = denom.min(axis=1)
    for r in np.flatnonzero(low <= 0.0).tolist():
        j, l = ranks[r, 0], ranks[r, 1:][denom[r] == low[r]].min()
        raise GraphInvariantError(
            f"degenerate update: g[{l},{j}] * g[{j},{l}] = 1", int(live[r]))


def run_graphical(problem: TestingProblem,
                  ordering: OrderingKey) -> Tuple[RejectionSet, GraphTrace]:
    """Test the hypotheses in the step-downs' order until the first failure.

    WEIGHTED ordering reproduces WHP, RAW ordering reproduces WAP.  A
    hypothesis is rejected iff its raw p-value is at or below its current
    local level.
    """
    ranked = rank([problem.p], [problem.w], ordering)
    [ranking] = ranked.perm
    trace, steps = [], []
    for (_, threshold, graph), j in zip(
            _walk(ranked, np.array([problem.alpha])), ranking.tolist()):
        trace.append((len(trace) + 1, j, threshold.item()))
        steps.append(GraphStep(j, ranking, graph))
    return (RejectionSet(rejected=frozenset(step.rejected_index
                                            for step in steps),
                         trace=tuple(trace)),
            GraphTrace(steps=tuple(steps)))


def graph_rejections(ranked: Ranked, alpha: np.ndarray) -> np.ndarray:
    """`run_graphical(problem, ordering)`'s rejections for every problem of
    a stack, from one walk along its `procedures.rank` view `ranked` under
    that ordering at the (P,) levels `alpha`, as a (P, m) bool array in
    hypothesis order."""
    count = np.zeros(len(alpha), dtype=np.intp)
    for live, *_ in _walk(ranked, alpha):
        count[live] += 1
    rejected = np.empty(ranked.perm.shape, dtype=bool)
    rejected.put(ranked.flat,
                 np.arange(ranked.perm.shape[1]) < count[:, None])
    return rejected


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
    names = [labels[i] for i in sorted(graph.active)]
    for a, head in enumerate(names):
        # zip asks the targets first, so it takes exactly this node's labels
        # off the iterator shared by all stages
        lines.extend(f'  "{head}" -> "{tail}" [label="{text}"];' for tail, text
                     in zip(names[:a] + names[a + 1:], edge_labels))
    lines.append("}")
    return "\n".join(lines)


def dot_stages(trace: GraphTrace, initial: TransitionGraph,
               labels: Optional[Sequence[str]] = None):
    """One DOT digraph per stage: the initial graph, then each post-rejection
    snapshot.  Node i is named `labels[i]`, by default `core._labels`'
    "H1" to "Hm", with each backslash and double quote escaped by a
    backslash, so that every quoted string closes where it should.  The
    edge labels of all stages come from one
    `_coefficient_labels` call."""
    all_nodes = sorted(initial.active)
    if labels is None:
        labels = _labels(len(initial.local_alpha))
    # each name and label is written between double quotes
    labels = {i: labels[i].replace("\\", "\\\\").replace('"', '\\"')
              for i in all_nodes}
    graphs = [initial] + [step.after for step in trace.steps]
    edge_labels = iter(_coefficient_labels(
        np.concatenate([_off_diagonal(graph) for graph in graphs])))
    return [_stage_dot(f"stage_{k}", graph, all_nodes, labels, edge_labels)
            for k, graph in enumerate(graphs)]

