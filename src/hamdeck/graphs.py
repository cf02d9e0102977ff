"""Immutable simple graphs, edge-set algebra, and structural predicates.

Vertices are always the integers ``0..n-1``; edges are unordered pairs stored
as ``(u, v)`` tuples with ``u < v``.  Graphs are immutable values and safe to
share; all predicates are pure functions of their inputs (sampled modes take
an explicit seed).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .util import EPS, ceil_frac, floor_frac

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset[Edge]
    adj: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    adj_bits: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InputError(f"vertex count must be nonnegative, got {self.n}")
        neighbors: list[list[int]] = [[] for _ in range(self.n)]
        bits = [0] * self.n
        for u, v in self.edges:
            if u == v:
                raise InputError(f"loop edge ({u}, {v}) not allowed")
            if not (0 <= u < v < self.n):
                raise InputError(f"edge ({u}, {v}) out of range for n={self.n}")
            neighbors[u].append(v)
            neighbors[v].append(u)
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        object.__setattr__(self, "adj", tuple(tuple(sorted(a)) for a in neighbors))
        object.__setattr__(self, "adj_bits", tuple(bits))

    # -- basic accessors -------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def regular_degree(self) -> int | None:
        """The common degree if the graph is regular, else None."""
        degs = set(self.degrees())
        if len(degs) == 1:
            return degs.pop()
        return None

    def adjacency_matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n), dtype=np.uint8)
        for u, v in self.edges:
            m[u, v] = 1
            m[v, u] = 1
        return m

    # -- edge-set algebra -------------------------------------------------

    def subtract(self, removed: "frozenset[Edge] | set[Edge] | Graph") -> "Graph":
        """Graph with the given edges removed; they must all be present."""
        rem = _as_edge_set(removed)
        for e in rem:
            if e not in self.edges:
                raise InputError(f"cannot subtract edge {e}: not present")
        return Graph(self.n, self.edges - rem)

    def union(self, added: "frozenset[Edge] | set[Edge] | Graph") -> "Graph":
        """Graph with the given edges added; they must all be new."""
        add = _as_edge_set(added)
        for e in add:
            if e in self.edges:
                raise InputError(f"cannot add edge {e}: already present")
        return Graph(self.n, self.edges | add)


def _as_edge_set(obj) -> frozenset[Edge]:
    if isinstance(obj, Graph):
        return obj.edges
    return frozenset(norm_edge(u, v) for u, v in obj)


def build_graph(n: int, edge_list) -> Graph:
    """Validate and deduplicate an edge list into a canonical Graph.

    Raises InputError for out-of-range endpoints or loop edges.
    """
    edges = set()
    for u, v in edge_list:
        if u == v:
            raise InputError(f"loop edge ({u}, {v}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) out of range for n={n}")
        edges.add(norm_edge(u, v))
    return Graph(n, frozenset(edges))


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset(itertools.combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("a cycle needs at least 3 vertices")
    return Graph(n, frozenset(norm_edge(i, (i + 1) % n) for i in range(n)))


def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


# -- set-pair edge counting ------------------------------------------------


def edges_between(g: Graph, a, b) -> int:
    """Number of edges with one endpoint in ``a`` and the other in ``b``.

    An edge lying inside the intersection of the two sets is counted once.
    """
    sa, sb = _vertex_set(g, a), _vertex_set(g, b)
    count = 0
    for u, v in g.edges:
        if (u in sa and v in sb) or (u in sb and v in sa):
            count += 1
    return count


def _vertex_set(g: Graph, members) -> frozenset[int]:
    s = frozenset(members)
    for v in s:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} out of range for n={g.n}")
    return s


def _mask_of(members) -> int:
    m = 0
    for v in members:
        m |= 1 << v
    return m


# -- bitset helpers over adj_bits (bit w of entry v set iff v ~ w) -----------


def iter_bits(mask: int):
    """Yield the set bit positions of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def connected_over(adj_bits, mask: int) -> bool:
    """Is the subgraph induced on the vertex bitmask connected?"""
    if mask == 0:
        return True
    seen = frontier = mask & -mask
    while frontier:
        # inlined bit loop: a generator per BFS round costs ~35% on paths
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            m ^= low
            nxt |= adj_bits[low.bit_length() - 1] & mask
        frontier = nxt & ~seen
        seen |= nxt
    return seen == mask


def strip_cycle(adj_bits, cyc) -> tuple[int, ...]:
    """Adjacency bits with the edges of the closed vertex sequence removed."""
    bits = list(adj_bits)
    k = len(cyc)
    for i in range(k):
        u, v = cyc[i], cyc[(i + 1) % k]
        bits[u] &= ~(1 << v)
        bits[v] &= ~(1 << u)
    return tuple(bits)


# -- robust expansion -------------------------------------------------------


def robust_neighborhood(g: Graph, members, nu: float) -> frozenset[int]:
    """Vertices with at least ``nu * n`` neighbors inside the given set."""
    if not (0 < nu <= 1):
        raise InputError(f"nu must be in (0, 1], got {nu}")
    s = _vertex_set(g, members)
    threshold = ceil_frac(nu * g.n)
    mask = _mask_of(s)
    return frozenset(
        v for v in range(g.n) if (g.adj_bits[v] & mask).bit_count() >= threshold
    )


@dataclass(frozen=True)
class ExpanderVerdict:
    holds: bool
    witness: frozenset[int] | None
    mode: str

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.holds


EXACT_SET_PREDICATE_CAP = 24  # 2^n subset enumerations beyond this are refused


def _expander_violated(g: Graph, mask: int, size: int, threshold: int) -> bool:
    rn = sum(1 for v in range(g.n) if (g.adj_bits[v] & mask).bit_count() >= threshold)
    return rn < size + threshold


def is_robust_expander(
    g: Graph,
    nu: float,
    tau: float,
    mode: str = "exact",
    *,
    trials: int = 100_000,
    seed: int = 0,
) -> ExpanderVerdict:
    """Check the robust-expansion inequality over admissible vertex sets S.

    Every S with ``tau*n <= |S| <= (1-tau)*n`` must have a robust
    nu-neighborhood of size at least ``|S| + nu*n``.  Exact mode enumerates
    all such S (allowed only for n <= 24); sampled mode checks ``trials``
    uniformly random admissible sets and can only certify (holds=True) or
    produce a concrete counterexample.
    """
    if not (0 < nu <= tau < 1):
        raise InputError(f"need 0 < nu <= tau < 1, got nu={nu}, tau={tau}")
    n = g.n
    lo = ceil_frac(tau * n)
    hi = floor_frac((1 - tau) * n)
    threshold = ceil_frac(nu * n)
    if lo > hi:
        # no admissible S: the condition is vacuous
        return ExpanderVerdict(True, None, f"{mode}(vacuous)")

    if mode == "exact":
        if n > EXACT_SET_PREDICATE_CAP:
            raise InputError(
                f"exact expander check limited to n <= {EXACT_SET_PREDICATE_CAP}"
            )
        for size in range(lo, hi + 1):
            for combo in itertools.combinations(range(n), size):
                mask = _mask_of(combo)
                if _expander_violated(g, mask, size, threshold):
                    return ExpanderVerdict(False, frozenset(combo), "exact")
        return ExpanderVerdict(True, None, "exact")

    if mode != "sampled":
        raise InputError(f"unknown mode {mode!r}")

    rng = np.random.default_rng(seed)
    adj = g.adjacency_matrix().astype(np.float32)
    remaining = trials
    chunk_size = 4096
    while remaining > 0:
        chunk = min(chunk_size, remaining)
        remaining -= chunk
        sizes = rng.integers(lo, hi + 1, size=chunk)
        keys = rng.random((chunk, n))
        kth = np.sort(keys, axis=1)[np.arange(chunk), sizes - 1]
        masks = keys <= kth[:, None]
        counts = masks.astype(np.float32) @ adj
        rn_sizes = (counts >= threshold - 0.5).sum(axis=1)
        bad = np.nonzero(rn_sizes < sizes + threshold)[0]
        for idx in bad:
            witness = frozenset(int(v) for v in np.nonzero(masks[idx])[0])
            # re-check exactly to rule out float artifacts
            if _expander_violated(g, _mask_of(witness), len(witness), threshold):
                return ExpanderVerdict(False, witness, f"sampled({trials})")
    return ExpanderVerdict(True, None, f"sampled({trials})")


# -- density regularity ------------------------------------------------------


@dataclass(frozen=True)
class RegularityVerdict:
    holds: bool
    witness: tuple[frozenset[int], frozenset[int]] | None
    reason: str
    mode: str

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.holds


def check_alpha_beta_regular(
    g: Graph,
    alpha: float,
    beta: float,
    mode: str = "exact",
    *,
    trials: int = 20_000,
    seed: int = 0,
) -> RegularityVerdict:
    """Quasirandomness check: min degree and pairwise set densities near alpha.

    Requires min degree >= alpha*n - 1 and, for every pair of disjoint sets
    S, T with |S|, |T| >= beta*n, a density ``e(S,T)/(|S||T|)`` within beta
    of alpha.  Exact only for n <= 24.
    """
    if not (0 < beta < 0.5):
        raise InputError(f"beta must be in (0, 1/2), got {beta}")
    n = g.n
    if min(g.degrees(), default=0) + 1 < alpha * n - EPS:
        return RegularityVerdict(False, None, "minimum degree too small", mode)
    lo = max(1, ceil_frac(beta * n))

    def density_ok(s_mask: int, t_members, s_size: int, t_size: int) -> bool:
        e = sum((g.adj_bits[v] & s_mask).bit_count() for v in t_members)
        return abs(e / (s_size * t_size) - alpha) <= beta + EPS

    if mode == "exact":
        if n > EXACT_SET_PREDICATE_CAP:
            raise InputError(
                f"exact regularity check limited to n <= {EXACT_SET_PREDICATE_CAP}"
            )
        verts = range(n)
        for s_size in range(lo, n - lo + 1):
            for s_combo in itertools.combinations(verts, s_size):
                s_set = set(s_combo)
                s_mask = _mask_of(s_combo)
                rest = [v for v in verts if v not in s_set]
                for t_size in range(lo, len(rest) + 1):
                    for t_combo in itertools.combinations(rest, t_size):
                        if not density_ok(s_mask, t_combo, s_size, t_size):
                            return RegularityVerdict(
                                False,
                                (frozenset(s_combo), frozenset(t_combo)),
                                "set-pair density out of band",
                                "exact",
                            )
        return RegularityVerdict(True, None, "", "exact")

    if mode != "sampled":
        raise InputError(f"unknown mode {mode!r}")

    rng = random.Random(seed)
    verts = list(range(n))
    for _ in range(trials):
        s_size = rng.randint(lo, max(lo, n - lo))
        t_cap = n - s_size
        if t_cap < lo:
            continue
        t_size = rng.randint(lo, t_cap)
        rng.shuffle(verts)
        s_combo = verts[:s_size]
        t_combo = verts[s_size : s_size + t_size]
        if not density_ok(_mask_of(s_combo), t_combo, s_size, t_size):
            return RegularityVerdict(
                False,
                (frozenset(s_combo), frozenset(t_combo)),
                "set-pair density out of band",
                f"sampled({trials})",
            )
    return RegularityVerdict(True, None, "", f"sampled({trials})")


# -- edge-list text format ---------------------------------------------------
#
# Line 1: "n m"; then m lines "u v" with 0 <= u < v < n, ASCII decimal,
# LF-terminated.  Duplicate edges and loops are rejected.


def parse_edge_list(text: str) -> Graph:
    lines = text.splitlines()
    if not lines:
        raise InputError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise InputError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise InputError(f"non-integer header {lines[0]!r}") from exc
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise InputError(f"expected {m} edge lines, found {len(body)}")
    edges = set()
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise InputError(f"edge line must be 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InputError(f"non-integer edge line {ln!r}") from exc
        if u == v:
            raise InputError(f"loop edge {u} {v}")
        if not (0 <= u < v < n):
            raise InputError(f"edge line {ln!r} violates 0 <= u < v < n={n}")
        if (u, v) in edges:
            raise InputError(f"duplicate edge {u} {v}")
        edges.add((u, v))
    return Graph(n, frozenset(edges))


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def load_edge_list(path) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_edge_list(fh.read())


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_edge_list(g))
