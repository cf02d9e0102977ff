"""Exact counting oracles for tiny graphs and closed-form log-scale bounds.

The oracles (Hamilton-cycle counts, Hamiltonian-decomposition counts, a
connected-regular-graph corpus) are exhaustive searches meant for n <= ~16;
the bound formulas are permanent-based upper bounds and the constructive
lower bound, all in natural-log scale.

The three decomposition oracles wrap one recursion, ``_decompositions``.
Unordered, each level anchors on the edge from vertex 0 to its lowest
remaining neighbour; the ordered count stays unanchored on purpose, as an
independent cross-check.  Cycles come from ``_hamilton_cycles_from``, kept
apart from the completer's pruned DFS on purpose: it is the reference the
completer is checked against, and it is 5-6x faster on the oracle's inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .errors import InputError
from .graphs import Graph, connected_over, strip_cycle
from .util import check_deadline

HAMILTON_COUNT_CAP = 16
DECOMPOSITION_EDGE_CAP = 36  # K_9


# -- Hamilton cycle enumeration ---------------------------------------------


def _hamilton_cycles_from(adj_bits, n: int, deadline=None, second: int = -1):
    """Yield every Hamilton cycle as a vertex tuple starting at vertex 0.

    Each undirected cycle is produced exactly once: the traversal fixes the
    start at 0 and requires the second vertex (a bit of ``second``) to be
    smaller than the last.  Cycles come out in lexicographic order.  Checks
    the deadline on entry and every 1024 nodes.  The reference enumerator,
    not merged with ``decompose._hamilton_cycles_pruned`` (module docstring).
    """
    check_deadline(deadline, "hamilton cycle enumeration")
    if n < 3:
        return
    full = (1 << n) - 1
    path = [0]
    visited = 1
    stack = [adj_bits[0] & second & ~1]  # unexplored options per path vertex
    nodes = 0
    while stack:
        options = stack[-1]
        if not options:
            stack.pop()
            visited ^= 1 << path.pop()
            continue
        low = options & -options
        stack[-1] = options ^ low
        nodes += 1
        if not nodes & 1023:
            check_deadline(deadline, "hamilton cycle enumeration")
        w = low.bit_length() - 1
        if visited | low == full:
            if adj_bits[w] & 1 and path[1] < w:
                yield (*path, w)
            continue
        path.append(w)
        visited |= low
        stack.append(adj_bits[w] & ~visited)


def enumerate_hamilton_cycles(g: Graph, deadline=None) -> list[tuple[int, ...]]:
    if g.n > HAMILTON_COUNT_CAP:
        raise InputError(f"exact enumeration limited to n <= {HAMILTON_COUNT_CAP}")
    return list(_hamilton_cycles_from(g.adj_bits, g.n, deadline))


def count_hamilton_cycles_exact(g: Graph, deadline=None) -> int:
    """Number of distinct Hamilton cycles as undirected, unrooted subgraphs."""
    if g.n > HAMILTON_COUNT_CAP:
        raise InputError(f"exact count limited to n <= {HAMILTON_COUNT_CAP}")
    return sum(1 for _ in _hamilton_cycles_from(g.adj_bits, g.n, deadline))


# -- Hamiltonian decomposition counting --------------------------------------


def _check_decomposable_input(g: Graph) -> None:
    r = g.regular_degree()
    if r is None:
        raise InputError("decomposition counting needs a regular graph")
    if r % 2 != 0:
        raise InputError(f"degree {r} is odd; no Hamiltonian decomposition exists")
    if g.edge_count > DECOMPOSITION_EDGE_CAP:
        cap = DECOMPOSITION_EDGE_CAP
        raise InputError(f"graph has {g.edge_count} edges, above the cap of {cap}")


def _decompositions(g: Graph, deadline, *, ordered: bool = False):
    """Yield every Hamiltonian decomposition of g as a tuple of cycles.

    Unless ``ordered``, each level takes only the cycles whose second vertex
    is vertex 0's lowest remaining neighbour a.  Every decomposition has
    exactly one cycle through edge (0, a), so each unordered decomposition
    comes once, sorted, in lexicographic order.  ``ordered`` takes every
    cycle at every level, so its count cross-checks the anchor.
    """
    chosen: list[tuple[int, ...]] = []

    def rec(bits):
        check_deadline(deadline, "decomposition counting")
        if not any(bits):
            yield tuple(chosen)
            return
        second = -1 if ordered else bits[0] & -bits[0]
        for cyc in _hamilton_cycles_from(bits, g.n, deadline, second):
            chosen.append(cyc)
            yield from rec(strip_cycle(bits, cyc))
            chosen.pop()

    yield from rec(g.adj_bits)


def count_decompositions_exact(g: Graph, *, deadline=None) -> int:
    """Exact number of unordered Hamiltonian decompositions.

    Counts by canonical-order enumeration: cycles are chosen in strictly
    increasing canonical order, so each unordered decomposition is reached
    exactly once.  No symmetry division is ever applied.
    """
    _check_decomposable_input(g)
    return sum(1 for _ in _decompositions(g, deadline))


def count_decompositions_ordered(g: Graph, *, deadline=None) -> int:
    """Number of ordered sequences of edge-disjoint Hamilton cycles using
    all edges; equals the unordered count times (r/2)! for r-regular input."""
    _check_decomposable_input(g)
    return sum(1 for _ in _decompositions(g, deadline, ordered=True))


def enumerate_decompositions(
    g: Graph, *, deadline=None
) -> list[tuple[tuple[int, ...], ...]]:
    """All unordered decompositions, each as a sorted tuple of cycle tuples."""
    _check_decomposable_input(g)
    return list(_decompositions(g, deadline))


# -- log-scale bound formulas -------------------------------------------------


def bregman_log_bound(n: int, r: int) -> float:
    """Natural log of the permanent-based Hamilton-cycle bound (r!)^(n/r)."""
    if not (1 <= r < n):
        raise InputError(f"need 1 <= r < n, got r={r}, n={n}")
    return (n / r) * math.lgamma(r + 1)


def decomposition_log_upper(n: int, r: int) -> float:
    """Log of the telescoped per-level bound: sum over k = r, r-2, ..., 2
    of (n/k) * ln(k!)."""
    if r % 2 != 0:
        raise InputError(f"degree must be even, got {r}")
    if not (2 <= r < n):
        raise InputError(f"need 2 <= r < n, got r={r}, n={n}")
    return sum((n / k) * math.lgamma(k + 1) for k in range(r, 1, -2))


def decomposition_log_upper_asymptotic(n: int, r: int) -> float:
    """Closed asymptotic form (n*r/2) * ln(r / e^2), for comparison only."""
    if r <= 0:
        raise InputError(f"degree must be positive, got {r}")
    return (n * r / 2) * (math.log(r) - 2)


def decomposition_log_lower(n: int, r: int, eps: float) -> float:
    """Log of the constructive lower bound r^((1-5*eps)*r*n/2)."""
    if not (0 < eps < 0.1):
        raise InputError(f"eps must be in (0, 1/10), got {eps}")
    return (1 - 5 * eps) * (r * n / 2) * math.log(r)


@dataclass(frozen=True)
class CountReport:
    """Exact count (when computed) next to the log-scale bound formulas.

    The bounds are asymptotic and are recorded, not enforced, against the
    exact count: at desk-scale n they need not bracket it.
    """

    exact_count: int | None
    log_lower: float | None
    log_upper: float
    formula_inputs: dict = field(default_factory=dict)
    methods: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "exact_count": str(self.exact_count)
            if self.exact_count is not None
            else None,
            "log_lower": self.log_lower,
            "log_upper": self.log_upper,
            "formula_inputs": dict(self.formula_inputs),
            "methods": list(self.methods),
        }


def count_report(
    g: Graph, *, eps: float = 0.05, exact: bool = False, deadline=None
) -> CountReport:
    """Decomposition-count report for a regular even-degree graph."""
    r = g.regular_degree()
    if r is None:
        raise InputError("count report needs a regular graph")
    if r % 2 != 0:
        raise InputError(f"degree {r} is odd")
    methods = ["finite-product-upper"]
    exact_count = None
    if exact:
        exact_count = count_decompositions_exact(g, deadline=deadline)
        methods.append("canonical-order-enumeration")
    log_lower = None
    if r >= 2:
        log_lower = decomposition_log_lower(g.n, r, eps)
        methods.append("constructive-lower")
    return CountReport(
        exact_count=exact_count,
        log_lower=log_lower,
        log_upper=decomposition_log_upper(g.n, r) if r >= 2 else 0.0,
        formula_inputs={"n": g.n, "r": r, "eps": eps},
        methods=tuple(methods),
    )


# -- regular graph corpus ------------------------------------------------------


def _labeled_regular_graphs(n: int, degree: int):
    """Yield edge frozensets of all labeled r-regular graphs on n vertices."""
    if degree >= n or (n * degree) % 2 != 0:
        return
    deg = [0] * n
    edges: list[tuple[int, int]] = []

    def rec(v: int):
        if v == n:
            yield frozenset(edges)
            return
        need = degree - deg[v]
        if need < 0:
            return
        candidates = [w for w in range(v + 1, n) if deg[w] < degree]
        if need > len(candidates):
            return
        for combo in itertools.combinations(candidates, need):
            for w in combo:
                deg[w] += 1
                edges.append((v, w))
            deg[v] += need
            yield from rec(v + 1)
            deg[v] -= need
            for w in combo:
                deg[w] -= 1
                edges.pop()

    yield from rec(0)


def _isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test by backtracking (intended for n <= 10)."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    n = g1.n
    mapping = [-1] * n
    used = [False] * n

    def rec(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or g1.degree(v) != g2.degree(w):
                continue
            ok = True
            for u in range(v):
                if g1.has_edge(u, v) != g2.has_edge(mapping[u], w):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if rec(v + 1):
                    return True
                used[w] = False
        return False

    return rec(0)


def _spectrum_key(g: Graph) -> tuple:
    import numpy as np

    eig = np.linalg.eigvalsh(g.adjacency_matrix().astype(np.float64))
    return tuple(round(float(x), 6) for x in eig)


@functools.lru_cache(maxsize=None)
def connected_regular_graphs(n: int, degree: int) -> tuple[Graph, ...]:
    """All connected r-regular graphs on n vertices, one per isomorphism class.

    Generator: exhaustive labeled enumeration by degree-constrained
    backtracking; the labeled graphs are deduplicated to isomorphism
    representatives (adjacency-spectrum buckets refined by an
    exact backtracking isomorphism test).  Cached: the n = 8 classes take
    seconds to build.
    """
    if n > 10:
        raise InputError("regular-graph corpus limited to n <= 10")
    reps: list[Graph] = []
    buckets: dict[tuple, list[int]] = {}
    for edge_set in _labeled_regular_graphs(n, degree):
        g = Graph(n, edge_set)
        if not connected_over(g.adj_bits, (1 << n) - 1):
            continue
        key = _spectrum_key(g)
        bucket = buckets.setdefault(key, [])
        if any(_isomorphic(g, reps[i]) for i in bucket):
            continue
        bucket.append(len(reps))
        reps.append(g)
    return tuple(reps)
