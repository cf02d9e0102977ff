"""Extract an exactly 2d-regular spanning subgraph, for a half-degree d the
caller chooses, from a dense near-regular graph: orient the edges with in-
and out-degree balanced at every vertex, route one integral max flow
through a bipartite one-arc-per-edge network, and keep the saturated middle
arcs.

A saturated flow plus the exact 2d-regularity check of the result is the
certificate; the paper's cross-density hypothesis, which guarantees
saturation at large n, is not audited.

The stage speaks bit rows from end to end.  An orientation is its out-rows:
bit w of ``out[v]`` is set iff there is an arc v -> w.  The flow network
holds those rows, the flow's result holds the out-rows of the arcs that
carry flow, and the extracted subgraph is those rows plus their mirror.
The public surface consumes and produces undirected Graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InfeasibleError, InputError, SearchFailedError
from .graphs import Graph, iter_bits


def random_orientation(g: Graph, seed: int) -> tuple[int, ...]:
    """Out-rows of an orientation that directs each edge by an independent
    fair coin, the edges taken in (u, v), u < v order."""
    rng = random.Random(seed)
    out = [0] * g.n
    for u, row in enumerate(g.adj_bits):
        for v in iter_bits(row & -(2 << u)):  # the neighbours above u
            if rng.random() < 0.5:
                out[u] |= 1 << v
            else:
                out[v] |= 1 << u
    return tuple(out)


def balanced_orientation(g: Graph) -> tuple[int, ...]:
    """Out-rows of a deterministic orientation with |out(v) - in(v)| <= 1
    for every v.

    Pairs up odd-degree vertices with virtual edges, walks closed trails
    from each vertex in turn (always to the lowest remaining neighbour), and
    drops the first traversal of each virtual pair.  The extraction uses it:
    a vertex of degree >= 2d keeps at least d out-arcs and d in-arcs.
    """
    real = list(g.adj_bits)
    # a virtual pair may double a real edge (K4), so it keeps a row of its own
    virtual = [0] * g.n
    odd = [v for v, row in enumerate(real) if row.bit_count() % 2]
    for u, v in zip(odd[::2], odd[1::2]):
        virtual[u] |= 1 << v
        virtual[v] |= 1 << u

    out = [0] * g.n
    for start in range(g.n):
        # every degree is even, so each trail closes where it started
        v = start
        while row := real[v] | virtual[v]:
            w = (row & -row).bit_length() - 1
            if virtual[v] >> w & 1:
                virtual[v] ^= 1 << w
                virtual[w] ^= 1 << v
            else:
                real[v] ^= 1 << w
                real[w] ^= 1 << v
                out[v] |= 1 << w
            v = w
    return tuple(out)


@dataclass(frozen=True)
class FlowNetwork:
    """Source -> X copy of each vertex (capacity d), X_u -> Y_w for each arc
    u -> w of the out-rows ``out`` (capacity 1), Y copy -> sink (capacity d)."""

    n: int
    d: int
    out: tuple[int, ...]


def build_flow_network(out, half_degree: int) -> FlowNetwork:
    """The network over the out-rows ``out`` on ``len(out)`` vertices;
    rejects a self-arc or an arc to a vertex >= n."""
    if half_degree < 1:
        raise InputError(f"half degree must be >= 1, got {half_degree}")
    n = len(out)
    for v, row in enumerate(out):
        if row >> v & 1:
            raise InputError(f"self-arc ({v}, {v}) not allowed")
        if row >> n:
            raise InputError(f"arc ({v}, {row.bit_length() - 1}) out of range for n={n}")
    return FlowNetwork(n, half_degree, tuple(out))


@dataclass(frozen=True)
class MaxFlowResult:
    """The flow value and ``kept``, the out-rows of the arcs carrying flow."""

    value: int
    kept: tuple[int, ...]


def max_flow(net: FlowNetwork) -> MaxFlowResult:
    """Exact integral maximum flow; validates conservation and capacities."""
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    n, d = net.n, net.d
    # middle arcs in (tail, head) order
    arcs = [(u, w) for u, row in enumerate(net.out) for w in iter_bits(row)]
    middle = np.array(arcs, dtype=np.int64).reshape(-1, 2)
    m = len(middle)
    # node ids: source 0, X copy of v 1 + v, Y copy of v 1 + n + v, sink 2n + 1
    verts = np.arange(n, dtype=np.int64)
    tails = np.concatenate([np.zeros(n, np.int64), 1 + middle[:, 0], 1 + n + verts])
    heads = np.concatenate([1 + verts, 1 + n + middle[:, 1], np.full(n, 2 * n + 1)])
    caps = np.concatenate([np.full(n, d), np.ones(m), np.full(n, d)]).astype(np.int32)
    size = 2 * n + 2
    matrix = csr_matrix((caps, (tails, heads)), shape=(size, size))
    result = maximum_flow(matrix, 0, size - 1)
    # one sparse lookup per arc: source arcs, middle arcs, sink arcs
    flow = np.asarray(result.flow[tails, heads]).ravel() if tails.size else tails
    x_flow, mid, y_flow = flow[:n], flow[n : n + m], flow[n + m :]

    bad = mid[(mid != 0) & (mid != 1)]
    if bad.size:
        raise AssertionError(f"non-integral or overfull middle arc flow {bad[0]}")
    if not ((0 <= x_flow) & (x_flow <= d) & (0 <= y_flow) & (y_flow <= d)).all():
        raise AssertionError("source/sink arc capacity violated")
    used = middle[mid == 1]
    out_by_x = np.bincount(used[:, 0], minlength=n)
    in_by_y = np.bincount(used[:, 1], minlength=n)
    broken = np.flatnonzero((out_by_x != x_flow) | (in_by_y != y_flow))
    if broken.size:
        raise AssertionError(f"flow conservation violated at vertex {broken[0]}")
    value = int(result.flow_value)
    if value != x_flow.sum():
        raise AssertionError("flow value inconsistent with source arcs")
    kept = [0] * n
    for u, w in used.tolist():
        kept[u] |= 1 << w
    return MaxFlowResult(value, tuple(kept))


def extract_regular_subgraph(g: Graph, d: int) -> Graph:
    """Spanning subgraph in which every vertex has degree exactly 2d.

    Keeps the middle arcs of one integral max flow over the balanced
    orientation when it saturates (value d*n).  A flow that falls short
    raises SearchFailedError: no budget ran out, and the shortfall proves
    nothing about the graph, so the caller retries (``tri_partition`` lowers
    the target).  The paper's degree band on the input is checked by
    ``tri_partition``, once per split, not here.
    """
    n = g.n
    if d < 1:
        raise InfeasibleError(f"target half-degree {d} is degenerate")
    low = min(g.degrees())
    if 2 * d > low:
        raise InfeasibleError(f"target degree {2 * d} exceeds minimum input degree {low}")

    result = max_flow(build_flow_network(balanced_orientation(g), d))
    if result.value != d * n:
        raise SearchFailedError(
            f"balanced orientation does not saturate the flow "
            f"(value {result.value} of {d * n})"
        )
    # each edge of g is one arc: the kept arcs and their mirror are the core
    rows = list(result.kept)
    for u, row in enumerate(result.kept):
        for w in iter_bits(row):
            rows[w] |= 1 << u
    sub = Graph._derived(n, tuple(rows))
    degs = set(sub.degrees())
    if degs != {2 * d}:
        raise AssertionError(f"extracted subgraph degrees {degs} != {2 * d}")
    return sub
