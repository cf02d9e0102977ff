"""Extract an exactly 2d-regular spanning subgraph from a dense near-regular
graph: orient the edges, route an integral max flow through a bipartite
one-arc-per-edge network, and keep the saturated middle arcs.

Digraphs here are internal machinery; the public surface consumes and
produces undirected Graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .errors import BudgetError, InfeasibleError, InputError
from .graphs import Edge, Graph, edges_between, norm_edge
from .util import EPS, ceil_frac, spawn_seed


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
    """Density/slack fractions for the extraction, plus budgets.

    Requires 0 < eps0 <= c0 <= 1 and gamma0 > 0.  The target half-degree is
    d = ceil((c0 - eps0) * n / 2).
    """

    c0: float
    eps0: float
    gamma0: float
    seed: int = 0
    retries: int = 32
    density_trials: int = 10_000

    def __post_init__(self) -> None:
        if not (0 < self.eps0 <= self.c0 <= 1):
            raise InputError(
                f"need 0 < eps0 <= c0 <= 1, got eps0={self.eps0}, c0={self.c0}"
            )
        if self.gamma0 <= 0:
            raise InputError(f"gamma0 must be positive, got {self.gamma0}")

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

    Pairs up odd-degree vertices with virtual edges, walks Euler circuits,
    and drops the virtual arcs.  Used as a last-resort rescue when random
    orientations keep failing to saturate the flow.
    """
    adj: list[dict[int, int]] = [dict() for _ in range(g.n)]

    def add(u: int, v: int, virtual: bool) -> None:
        adj[u][v] = adj[u].get(v, 0) + 1
        adj[v][u] = adj[v].get(u, 0) + 1
        if virtual:
            virtual_pairs.add(norm_edge(u, v))

    virtual_pairs: set[Edge] = set()
    for u, v in sorted(g.edges):
        add(u, v, False)
    odd = [v for v in range(g.n) if g.degree(v) % 2 == 1]
    for i in range(0, len(odd), 2):
        add(odd[i], odd[i + 1], True)

    arcs: set[tuple[int, int]] = set()
    for start in range(g.n):
        while adj[start]:
            # walk a closed trail from `start`, orienting as we go
            walk = [start]
            v = start
            while adj[v]:
                w = min(adj[v])
                adj[v][w] -= 1
                adj[w][v] -= 1
                if adj[v][w] == 0:
                    del adj[v][w]
                if adj[w][v] == 0:
                    del adj[w][v]
                walk.append(w)
                v = w
            for a, b in zip(walk, walk[1:]):
                if norm_edge(a, b) in virtual_pairs:
                    virtual_pairs.discard(norm_edge(a, b))
                    continue
                arcs.add((a, b))
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
    size = net.node_count
    rows, cols, caps = [], [], []
    for tail, head, cap in net.arcs():
        rows.append(tail)
        cols.append(head)
        caps.append(cap)
    matrix = csr_matrix(
        (np.asarray(caps, dtype=np.int32), (rows, cols)), shape=(size, size)
    )
    result = maximum_flow(matrix, net.source, net.sink)
    flow = result.flow.toarray()

    middle_flow = {}
    for u, v in net.middle:
        f = int(flow[net.x_node(u), net.y_node(v)])
        if f not in (0, 1):
            raise AssertionError(f"non-integral or overfull middle arc flow {f}")
        middle_flow[(u, v)] = f
    x_flow = tuple(int(flow[net.source, net.x_node(v)]) for v in range(net.n))
    y_flow = tuple(int(flow[net.y_node(v), net.sink]) for v in range(net.n))
    for v in range(net.n):
        if not (0 <= x_flow[v] <= net.d and 0 <= y_flow[v] <= net.d):
            raise AssertionError("source/sink arc capacity violated")
    out_by_x = {v: 0 for v in range(net.n)}
    in_by_y = {v: 0 for v in range(net.n)}
    for (u, v), f in middle_flow.items():
        out_by_x[u] += f
        in_by_y[v] += f
    for v in range(net.n):
        if out_by_x[v] != x_flow[v] or in_by_y[v] != y_flow[v]:
            raise AssertionError(f"flow conservation violated at vertex {v}")
    value = int(result.flow_value)
    if value != sum(x_flow):
        raise AssertionError("flow value inconsistent with source arcs")
    return MaxFlowResult(value, middle_flow, x_flow, y_flow)


def _sampled_cross_density_check(
    g: Graph, params: RegularizeParams, rng: random.Random
) -> None:
    """Sampled audit of the cross-density hypothesis: any pair of sets with
    |A| >= c0*n/3 and |B| >= n/2 should span at least gamma0*n^2 edges.
    A sampled violation is exact for that pair and raises."""
    n = g.n
    if params.density_trials <= 0 or n < 4:
        return
    size_a = max(1, ceil_frac(params.c0 * n / 3))
    size_b = max(1, ceil_frac(n / 2))
    adj = g.adjacency_matrix().astype(np.float32)
    threshold = params.gamma0 * n * n
    verts = list(range(n))
    chunk = 512
    done = 0
    while done < params.density_trials:
        batch = min(chunk, params.density_trials - done)
        done += batch
        a_masks = np.zeros((batch, n), dtype=np.float32)
        b_masks = np.zeros((batch, n), dtype=np.float32)
        picks = []
        for i in range(batch):
            rng.shuffle(verts)
            a = verts[:size_a]
            rng.shuffle(verts)
            b = verts[:size_b]
            a_masks[i, a] = 1.0
            b_masks[i, b] = 1.0
            picks.append((a, b))
        # ordered-pair counts overcount intersection edges; fine as a lower
        # bound check only when it FAILS, so failures are re-counted exactly
        approx = np.einsum("ij,jk,ik->i", a_masks, adj, b_masks)
        for i in np.nonzero(approx < threshold + 1.0)[0]:
            a, b = picks[i]
            exact = edges_between(g, a, b)
            if exact < threshold - EPS:
                raise InfeasibleError(
                    f"cross-density hypothesis fails: sets of sizes "
                    f"{len(a)}/{len(b)} span {exact} < {threshold:.2f} edges"
                )


def extract_regular_subgraph(
    g: Graph, params: RegularizeParams, *, d_override: int | None = None
) -> Graph:
    """Spanning subgraph in which every vertex has degree exactly 2d.

    d defaults to ceil((c0 - eps0) * n / 2).  Each attempt draws a fresh
    random orientation, builds the flow network, and keeps the middle arcs
    of a saturating integral max flow; the final attempt uses a balanced
    orientation as a deterministic rescue.  ``d_override`` lets callers
    lower the target when the input cannot support the formula value.
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
    _sampled_cross_density_check(
        g, params, random.Random(spawn_seed(params.seed, "density"))
    )

    target = d * n
    best = -1
    for attempt in range(params.retries):
        if attempt == params.retries - 1:
            orientation = balanced_orientation(g)
        else:
            orientation = random_orientation(g, spawn_seed(params.seed, "orient", attempt))
        net = build_flow_network(orientation, d)
        result = max_flow(net)
        best = max(best, result.value)
        if result.value == target:
            edges = frozenset(
                norm_edge(u, v) for (u, v), f in result.middle_flow.items() if f == 1
            )
            sub = Graph(n, edges)
            degs = set(sub.degrees())
            if degs != {2 * d}:
                raise AssertionError(f"extracted subgraph degrees {degs} != {2 * d}")
            return sub
    raise BudgetError(
        f"no saturating flow in {params.retries} orientations "
        f"(best value {best} of {target})"
    )


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
