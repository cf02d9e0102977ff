"""Extract an exactly 2d-regular spanning subgraph from a dense near-regular
graph: orient the edges with in- and out-degree balanced at every vertex,
route one integral max flow through a bipartite one-arc-per-edge network,
and keep the saturated middle arcs.

A saturated flow plus the exact 2d-regularity check of the result is the
certificate; the paper's cross-density hypothesis, which guarantees
saturation at large n, is not audited.  The orientation walks bit rows, the
flow is read sparsely, and the extracted subgraph is derived from the
input's bit rows rather than validated again.

Digraphs here are internal machinery; the public surface consumes and
produces undirected Graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, InputError, SearchFailedError
from .graphs import Graph, norm_edge
from .util import EPS, ceil_frac


@dataclass(frozen=True)
class Digraph:
    """Simple directed graph: at most one arc per ordered pair, no self-arcs."""

    n: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.arcs:
            if u == v:
                raise InputError(f"self-arc ({u}, {v}) not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InputError(f"arc ({u}, {v}) out of range for n={self.n}")

    def out_degree(self, v: int) -> int:
        return sum(1 for a in self.arcs if a[0] == v)

    def in_degree(self, v: int) -> int:
        return sum(1 for a in self.arcs if a[1] == v)


@dataclass(frozen=True)
class RegularizeParams:
    """Density and slack fractions for the extraction.

    Requires 0 < eps0 <= c0 <= 1.  The target half-degree is
    d = ceil((c0 - eps0) * n / 2).
    """

    c0: float
    eps0: float

    def __post_init__(self) -> None:
        if not (0 < self.eps0 <= self.c0 <= 1):
            raise InputError(
                f"need 0 < eps0 <= c0 <= 1, got eps0={self.eps0}, c0={self.c0}"
            )

    def half_degree(self, n: int) -> int:
        return ceil_frac((self.c0 - self.eps0) * n / 2)


def random_orientation(g: Graph, seed: int) -> Digraph:
    """Each edge becomes one arc, direction by an independent fair coin."""
    rng = random.Random(seed)
    arcs = set()
    for u, v in sorted(g.edges):
        arcs.add((u, v) if rng.random() < 0.5 else (v, u))
    return Digraph(g.n, frozenset(arcs))


def balanced_orientation(g: Graph) -> Digraph:
    """Deterministic orientation with |out(v) - in(v)| <= 1 for every v.

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

    arcs = []
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
                arcs.append((v, w))
            v = w
    return Digraph(g.n, frozenset(arcs))


@dataclass(frozen=True)
class FlowNetwork:
    """Source/sink network whose middle layer mirrors a digraph.

    Node ids: source = 0, X-copy of v = 1 + v, Y-copy of v = 1 + n + v,
    sink = 1 + 2n.  Source->X and Y->sink arcs carry capacity d; each
    digraph arc (u, v) becomes X_u -> Y_v with capacity 1.
    """

    n: int
    d: int
    middle: tuple[tuple[int, int], ...]

    @property
    def node_count(self) -> int:
        return 2 * self.n + 2

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return 2 * self.n + 1

    def x_node(self, v: int) -> int:
        return 1 + v

    def y_node(self, v: int) -> int:
        return 1 + self.n + v

    def arcs(self) -> list[tuple[int, int, int]]:
        """All capacitated arcs as (tail, head, capacity)."""
        out = [(self.source, self.x_node(v), self.d) for v in range(self.n)]
        out.extend((self.x_node(u), self.y_node(v), 1) for u, v in self.middle)
        out.extend((self.y_node(v), self.sink, self.d) for v in range(self.n))
        return out


def build_flow_network(dg: Digraph, half_degree: int) -> FlowNetwork:
    if half_degree < 1:
        raise InputError(f"half degree must be >= 1, got {half_degree}")
    return FlowNetwork(dg.n, half_degree, tuple(sorted(dg.arcs)))


@dataclass(frozen=True)
class MaxFlowResult:
    value: int
    middle_flow: dict[tuple[int, int], int] = field(compare=False)
    x_flow: tuple[int, ...] = ()
    y_flow: tuple[int, ...] = ()


def max_flow(net: FlowNetwork) -> MaxFlowResult:
    """Exact integral maximum flow; validates conservation and capacities."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    n, size = net.n, net.node_count
    tails, heads, caps = np.array(net.arcs(), dtype=np.int64).reshape(-1, 3).T
    matrix = csr_matrix((caps.astype(np.int32), (tails, heads)), shape=(size, size))
    result = maximum_flow(matrix, net.source, net.sink)
    # one sparse lookup per arc, in the order of net.arcs()
    flow = np.asarray(result.flow[tails, heads]).ravel() if tails.size else tails
    m = len(net.middle)
    x_flow, middle, y_flow = flow[:n], flow[n : n + m], flow[n + m :]

    bad = middle[(middle != 0) & (middle != 1)]
    if bad.size:
        raise AssertionError(f"non-integral or overfull middle arc flow {bad[0]}")
    if not ((0 <= x_flow) & (x_flow <= net.d) & (0 <= y_flow) & (y_flow <= net.d)).all():
        raise AssertionError("source/sink arc capacity violated")
    used = np.array(net.middle, dtype=np.int64).reshape(-1, 2)[middle == 1]
    out_by_x = np.bincount(used[:, 0], minlength=n)
    in_by_y = np.bincount(used[:, 1], minlength=n)
    broken = np.flatnonzero((out_by_x != x_flow) | (in_by_y != y_flow))
    if broken.size:
        raise AssertionError(f"flow conservation violated at vertex {broken[0]}")
    value = int(result.flow_value)
    if value != x_flow.sum():
        raise AssertionError("flow value inconsistent with source arcs")
    return MaxFlowResult(
        value,
        dict(zip(net.middle, middle.tolist())),
        tuple(x_flow.tolist()),
        tuple(y_flow.tolist()),
    )


def extract_regular_subgraph(
    g: Graph, params: RegularizeParams, *, d_override: int | None = None
) -> Graph:
    """Spanning subgraph in which every vertex has degree exactly 2d.

    d defaults to ceil((c0 - eps0) * n / 2).  Keeps the middle arcs of one
    integral max flow over the balanced orientation when it saturates (value
    d*n).  A flow that falls short raises SearchFailedError: no budget ran
    out, and the shortfall proves nothing about the graph, so the caller
    retries (``tri_partition`` lowers the target).  ``d_override`` lets
    callers lower the target when the input cannot support the formula value.
    """
    n = g.n
    band = n ** (2 / 3)
    center = params.c0 * n
    for v in range(n):
        if abs(g.degree(v) - center) > band + EPS:
            raise InfeasibleError(
                f"degree hypothesis violated: deg({v})={g.degree(v)} is outside "
                f"{center:.2f} +- {band:.2f}"
            )
    d = params.half_degree(n) if d_override is None else d_override
    if d < 1:
        raise InfeasibleError(f"target half-degree {d} is degenerate")
    if 2 * d > min(g.degrees()):
        raise InfeasibleError(
            f"target degree {2 * d} exceeds minimum input degree {min(g.degrees())}"
        )

    result = max_flow(build_flow_network(balanced_orientation(g), d))
    if result.value != d * n:
        raise SearchFailedError(
            f"balanced orientation does not saturate the flow "
            f"(value {result.value} of {d * n})"
        )
    # one middle arc per edge of g: drop the edges whose arc carries no flow
    dropped = frozenset(
        norm_edge(u, v) for (u, v), f in result.middle_flow.items() if f == 0
    )
    sub = g._edited(dropped, frozenset())
    degs = set(sub.degrees())
    if degs != {2 * d}:
        raise AssertionError(f"extracted subgraph degrees {degs} != {2 * d}")
    return sub


@dataclass(frozen=True)
class CutAudit:
    capacity: int
    required: int
    satisfies: bool
    case: str
    middle_edges: int


def audit_cut_cases(net: FlowNetwork, params: RegularizeParams, s_side, t_side) -> CutAudit:
    """Capacity of the cut keeping X-copies ``s_side`` and Y-copies ``t_side``
    on the source side, with the case of the saturation argument that applies.

    Capacity = d*(n - |S|) + e(S, Y \\ T) + d*|T|.  Diagnostic for small n.
    """
    s = frozenset(s_side)
    t = frozenset(t_side)
    for v in s | t:
        if not (0 <= v < net.n):
            raise InputError(f"vertex {v} out of range")
    crossing = sum(1 for (u, v) in net.middle if u in s and v not in t)
    capacity = net.d * (net.n - len(s)) + crossing + net.d * len(t)
    n = net.n
    if len(s) <= len(t):
        case = "trivial"
    elif len(s) < net.d:
        case = "small-source-side"
    elif len(s) - len(t) >= 4 * n ** (2 / 3) / params.eps0:
        case = "degree-slack"
    elif len(s) <= (1 - params.c0 / 3) * n + EPS:
        case = "cross-density"
    else:
        case = "large-source-side"
    return CutAudit(
        capacity=capacity,
        required=net.d * n,
        satisfies=capacity >= net.d * n,
        case=case,
        middle_edges=crossing,
    )
