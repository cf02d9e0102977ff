"""Exact counting oracles for tiny graphs and closed-form log-scale bounds.

The Hamilton-cycle count sweeps path states (visited mask, end vertex) and
merges the paths that reach each one, so it never lists a cycle; the cycle
enumerator and the connected-regular-graph corpus are exhaustive searches,
the corpus over the labeled graphs in which vertex 0's neighbours are
1, ..., r, kept one per isomorphism class by ``_class_entry``.  Both
cycle oracles stop at n = 16.  The bound formulas are permanent-based upper
bounds and the constructive lower bound, all in natural-log scale.

Every unordered decomposition has exactly one cycle through the edge from
vertex 0 to its lowest remaining neighbour a, so the decomposition count is
H(G) = sum of H(G - C) over the Hamilton cycles C through (0, a).  H is
invariant under relabeling, so ``count_decompositions_exact`` memoises it,
for one call, on the isomorphism class of each residual; K9 counts in well
under a second.  The two unmemoised oracles, ``enumerate_decompositions``
(anchored, every decomposition listed) and ``count_decompositions_ordered``
(unanchored on purpose), walk one recursion, ``_decompositions``, and are
the independent cross-checks of the memoised count.  Cycles come from
``_hamilton_cycles_from``, kept apart from the completer's pruned DFS on
purpose: it is the reference the completer is checked against, and it is
5-6x faster on the oracle's inputs.
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
    """Number of distinct Hamilton cycles as undirected, unrooted subgraphs.

    Sweeps path states without listing a cycle (Bellman 1962, Held-Karp
    1962): a state is (visited mask, end vertex) and holds the number of
    paths from vertex 0 that reach it, so paths reaching the same state are
    merged.  After n - 2 extensions every state is a Hamilton path; those
    ending next to 0 close into cycles, each counted once per direction.
    Independent of ``_hamilton_cycles_from``, so the two check each other.
    Checks the deadline on entry and every 1024 states.
    """
    if g.n > HAMILTON_COUNT_CAP:
        raise InputError(f"exact count limited to n <= {HAMILTON_COUNT_CAP}")
    check_deadline(deadline, "hamilton cycle count")
    n, adj_bits = g.n, g.adj_bits
    if n < 3:
        return 0
    layer = {(1 | 1 << v, v): 1 for v in range(1, n) if adj_bits[0] >> v & 1}
    states = 0
    for _ in range(n - 2):
        merged: dict[tuple[int, int], int] = {}
        for (visited, end), paths in layer.items():
            states += 1
            if not states & 1023:
                check_deadline(deadline, "hamilton cycle count")
            options = adj_bits[end] & ~visited
            while options:
                low = options & -options
                options ^= low
                key = (visited | low, low.bit_length() - 1)
                merged[key] = merged.get(key, 0) + paths
        layer = merged
    return sum(paths for (_, end), paths in layer.items() if adj_bits[end] & 1) // 2


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

    H(G) = sum of H(G - C) over the Hamilton cycles C through (0, a), a
    being vertex 0's lowest remaining neighbour: the anchor of
    ``_decompositions``, under which each decomposition is reached once.
    H(no edges) = 1 and H(disconnected) = 0.  H is memoised on the
    residual's isomorphism class (``_class_entry``), for this call only, so
    no decomposition is listed and nothing carries over to the next call.
    The deadline is checked at every residual.  No symmetry division is
    ever applied.
    """
    _check_decomposable_input(g)
    n = g.n
    full = (1 << n) - 1
    classes: dict[tuple, list[list]] = {}

    def count(bits) -> int:
        check_deadline(deadline, "decomposition counting")
        if not any(bits):
            return 1
        if not connected_over(bits, full):
            return 0
        entry, new = _class_entry(classes, bits)
        if new:
            cycles = _hamilton_cycles_from(bits, n, deadline, bits[0] & -bits[0])
            entry[2] = sum(count(strip_cycle(bits, cyc)) for cyc in cycles)
        return entry[2]

    return count(g.adj_bits)


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
        methods.append("anchored-recursion-class-memo")
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
    """Yield the bit rows of every labeled r-regular graph on n vertices
    with N(0) = {1, ..., r}.

    Each vertex v > 0 in turn takes its missing neighbours above v in
    ``itertools.combinations`` order.  Any vertex of an r-regular graph can
    be relabeled 0 and its neighbours 1, ..., r, so every isomorphism class
    has a member here.  (1, ..., r) is also vertex 0's first combination,
    so this stream is the prefix of the unrestricted labeled stream, and it
    is C(n - 1, r) times shorter.
    """
    if not 0 <= degree < n or (n * degree) % 2 != 0:
        return
    rows = [(1 << degree + 1) - 2] + [1] * degree + [0] * (n - 1 - degree)

    def rec(v: int):
        if v == n:
            yield tuple(rows)
            return
        candidates = [w for w in range(v + 1, n) if rows[w].bit_count() < degree]
        for combo in itertools.combinations(candidates, degree - rows[v].bit_count()):
            mask = 0
            for w in combo:
                rows[w] |= 1 << v
                mask |= 1 << w
            rows[v] |= mask
            yield from rec(v + 1)
            rows[v] ^= mask
            for w in combo:
                rows[w] ^= 1 << v

    yield from rec(1)


def _vertex_invariants(rows) -> list[tuple]:
    """Each vertex's codegree profile: the sorted numbers of neighbours it
    shares with each of its neighbours, then with each non-neighbour.

    A relabeling carries every vertex's profile to its image's.  The
    profile fixes the degree and the triangles and 4-cycles through v.
    """
    out = []
    for v, row in enumerate(rows):
        near, far = [], []
        for w, other in enumerate(rows):
            if w != v:
                (near if row >> w & 1 else far).append((row & other).bit_count())
        out.append((tuple(sorted(near)), tuple(sorted(far))))
    return out


def _maps_onto(rows1, inv1, rows2, inv2) -> bool:
    """Is there an isomorphism from graph 1 onto graph 2 (bit rows with
    their ``_vertex_invariants``)?

    Backtracks over vertices 0, 1, ... of graph 1.  A vertex v may map only
    to an unused vertex w of graph 2 with v's invariant, and only if w's
    row, restricted to the images so far, is the image of v's row: one
    mask compare per candidate.
    """
    n = len(rows1)
    where: dict[tuple, int] = {}
    for w, key in enumerate(inv2):
        where[key] = where.get(key, 0) | 1 << w
    candidates = [where.get(key, 0) for key in inv1]
    mapping = [0] * n

    def rec(v: int, image: int) -> bool:
        if v == n:
            return True
        want = 0
        earlier = rows1[v] & ((1 << v) - 1)
        while earlier:
            low = earlier & -earlier
            earlier ^= low
            want |= 1 << mapping[low.bit_length() - 1]
        options = candidates[v] & ~image
        while options:
            low = options & -options
            options ^= low
            w = low.bit_length() - 1
            if rows2[w] & image == want:
                mapping[v] = w
                if rec(v + 1, image | low):
                    return True
        return False

    return rec(0, 0)


def _class_entry(classes: dict, rows) -> tuple[list, bool]:
    """The entry [rows, invariants, value] of rows' isomorphism class in
    ``classes``, and whether the class is new.

    ``classes`` maps sorted ``_vertex_invariants`` to the entries of the
    classes seen so far; rows is tested with ``_maps_onto`` against each
    entry in its bucket.  A new class gets an entry holding rows and value
    None, for the caller to fill.
    """
    inv = _vertex_invariants(rows)
    bucket = classes.setdefault(tuple(sorted(inv)), [])
    for entry in bucket:
        if _maps_onto(rows, inv, entry[0], entry[1]):
            return entry, False
    entry = [rows, inv, None]
    bucket.append(entry)
    return entry, True


def _isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test by backtracking (intended for n <= 10)."""
    inv1, inv2 = _vertex_invariants(g1.adj_bits), _vertex_invariants(g2.adj_bits)
    if sorted(inv1) != sorted(inv2):
        return False
    return _maps_onto(g1.adj_bits, inv1, g2.adj_bits, inv2)


@functools.lru_cache(maxsize=None)
def connected_regular_graphs(n: int, degree: int) -> tuple[Graph, ...]:
    """All connected r-regular graphs on n vertices, one per isomorphism class.

    Generator: degree-constrained backtracking over the labeled graphs with
    N(0) = {1, ..., r} (``_labeled_regular_graphs``).  Each class keeps its
    first member in that stream, which is also its first member in the
    unrestricted labeled stream.  ``_class_entry`` buckets the graphs by
    their sorted ``_vertex_invariants`` and compares them within a bucket
    by an exact backtracking isomorphism test.  The n = 8 classes take well
    under a second and the 16 4-regular graphs on 9 vertices under two.
    """
    if n > 10:
        raise InputError("regular-graph corpus limited to n <= 10")
    reps: list[Graph] = []
    classes: dict[tuple, list[list]] = {}
    for rows in _labeled_regular_graphs(n, degree):
        if connected_over(rows, (1 << n) - 1) and _class_entry(classes, rows)[1]:
            reps.append(Graph._derived(n, rows))
    return tuple(reps)
