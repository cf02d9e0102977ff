"""Immutable simple graphs, edge-set algebra, and structural predicates.

Vertices are always the integers ``0..n-1``; edges are unordered pairs stored
as ``(u, v)`` tuples with ``u < v``.  Graphs are immutable values and safe to
share; all predicates are pure functions of their inputs (sampled modes take
an explicit seed).

A graph is ``n`` plus its bit rows ``adj_bits``; nothing else is built.
Edge lists are validated once, where they enter: ``Graph(n, edges)`` and
everything built on it (``build_graph``, ``parse_edge_list``, the
generators) checks every edge and sets the bit rows in O(m).  Graphs derived
from a valid graph are trusted: ``subtract`` and ``union`` bit-test only the
edges they move, then edit the parent's bit rows (``Graph._derived``).
Degrees, edge tests, equality and the package's self-checks read the bit
rows; the neighbour lists ``adj``, and a derived graph's edge set, are views
decoded on first use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError
from .util import EPS, ceil_frac, check_deadline, floor_frac

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on vertices 0..n-1, held as its bit
    rows: ``adj_bits[v]`` has bit w set iff v ~ w.

    ``adj[v]`` (v's neighbours in increasing order) and a derived graph's
    ``edges`` are decoded from the rows on first use.  Equality and hashing
    compare n and the bit rows.
    """

    n: int
    edges: frozenset[Edge] = field(compare=False)
    adj_bits: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InputError(f"vertex count must be nonnegative, got {self.n}")
        # a frozenset input is kept as is; a list loses its repeats
        object.__setattr__(self, "edges", frozenset(self.edges))
        bits = [0] * self.n
        for u, v in self.edges:
            if u == v:
                raise InputError(f"loop edge ({u}, {v}) not allowed")
            if not (0 <= u < v < self.n):
                raise InputError(f"edge ({u}, {v}) out of range for n={self.n}")
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        object.__setattr__(self, "adj_bits", tuple(bits))

    @classmethod
    def _derived(cls, n: int, adj_bits: tuple[int, ...]) -> "Graph":
        """Trusted constructor: ``adj_bits`` must encode a simple graph on n
        vertices; its edge set is decoded on first use."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj_bits", adj_bits)
        return g

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        return _decode_adj(self)

    # -- basic accessors -------------------------------------------------

    @property
    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    @property
    def is_sparse(self) -> bool:
        """Whether O(m) bit walks beat one O(n^2) numpy unpack, which is 9x
        faster on K201, 8x slower on C_3000(1,2) and too big at n = 10^5."""
        return self.n * self.n >= 32 * sum(self.degrees())

    def degree(self, v: int) -> int:
        return self.adj_bits[v].bit_count()

    def degrees(self) -> list[int]:
        return [b.bit_count() for b in self.adj_bits]

    def has_edge(self, u: int, v: int) -> bool:
        # a row has no bits at n or above, so only v < 0 needs a test of its own
        return 0 <= u < self.n and v >= 0 and self.adj_bits[u] >> v & 1 == 1

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def regular_degree(self) -> int | None:
        """The common degree if the graph is regular, else None."""
        degs = set(self.degrees())
        if len(degs) == 1:
            return degs.pop()
        return None

    def adjacency_matrix(self) -> np.ndarray:
        """The n x n 0/1 uint8 matrix, unpacked from the bit rows."""
        nbytes = (self.n + 7) // 8
        raw = b"".join(b.to_bytes(nbytes, "little") for b in self.adj_bits)
        packed = np.frombuffer(raw, np.uint8).reshape(self.n, nbytes)
        return np.unpackbits(packed, axis=1, count=self.n, bitorder="little")

    # -- edge-set algebra -------------------------------------------------

    def subtract(self, removed: "frozenset[Edge] | set[Edge] | Graph") -> "Graph":
        """Graph with the given edges removed; they must all be present."""
        rem = _as_edge_set(removed)
        absent = [e for e in rem if not self.has_edge(*e)]
        if absent:
            raise InputError(f"cannot subtract edge {min(absent)}: not present")
        return self._edited(rem, frozenset())

    def union(self, added: "frozenset[Edge] | set[Edge] | Graph") -> "Graph":
        """Graph with the given edges added; they must all be new."""
        if isinstance(added, Graph) and added.n == self.n:
            rows = tuple(zip(self.adj_bits, added.adj_bits))
            if not any(a & b for a, b in rows):  # valid edges: OR the rows in
                return Graph._derived(self.n, tuple(a | b for a, b in rows))
        add = _as_edge_set(added)
        present = [e for e in add if self.has_edge(*e)]
        if present:
            raise InputError(f"cannot add edge {min(present)}: already present")
        for u, v in add:
            if u == v:
                raise InputError(f"loop edge ({u}, {v}) not allowed")
            if not (0 <= u < v < self.n):
                raise InputError(f"edge ({u}, {v}) out of range for n={self.n}")
        return self._edited(frozenset(), add)

    def _edited(self, removed: frozenset[Edge], added: frozenset[Edge]) -> "Graph":
        """Trusted delta: ``removed`` must be edges of this graph and ``added``
        valid non-edges.  Each moved edge flips one bit in two rows."""
        bits = list(self.adj_bits)
        for u, v in itertools.chain(removed, added):
            bits[u] ^= 1 << v
            bits[v] ^= 1 << u
        return Graph._derived(self.n, tuple(bits))


def _decode_edges(g: Graph) -> frozenset[Edge]:
    """A derived graph's edge set, decoded and cached on first use by a
    non-data descriptor that a validated graph's own ``edges`` shadows (a
    ``__getattr__`` would slow every attribute access on Graph)."""
    adj = _decode_adj(g)
    return frozenset((u, v) for u in range(g.n) for v in adj[u] if u < v)


Graph.edges = cached_property(_decode_edges)  # type: ignore[assignment]
Graph.edges.__set_name__(Graph, "edges")


def _decode_adj(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour tuples, one bit walk per row: the only decoder of
    the bit rows, behind both ``adj`` and a derived graph's ``edges``."""
    return tuple(tuple(iter_bits(b)) for b in g.adj_bits)


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
    mb, both = _mask_of(sb), sa & sb
    mboth = _mask_of(both)
    # arcs from A into B reach an edge inside A & B from both of its ends
    arcs = sum((g.adj_bits[v] & mb).bit_count() for v in sa)
    inside = sum((g.adj_bits[v] & mboth).bit_count() for v in both)
    return arcs - inside // 2


def _vertex_set(g: Graph, members) -> frozenset[int]:
    s = frozenset(members)
    for v in s:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} out of range for n={g.n}")
    return s


def random_ranks(
    rng: np.random.Generator, trials: int, n: int, lo: int, hi: int, chunk: int = 4096
):
    """Yield ``(sizes, ranks)`` in blocks of at most ``chunk`` of ``trials``
    rows: per row a size drawn uniformly from [lo, hi] and an independent
    uniformly random ranking of the vertices 0..n-1.

    ``ranks < sizes[:, None]`` is a uniform random subset of each size, and
    disjoint rank ranges give disjoint subsets.  Every sampled set predicate
    and audit in the package draws its vertex sets here.
    """
    for start in range(0, trials, chunk):
        rows = min(chunk, trials - start)
        sizes = rng.integers(lo, hi + 1, size=rows)
        order = rng.random((rows, n)).argsort(axis=1)
        ranks = np.empty_like(order)
        np.put_along_axis(ranks, order, np.arange(n), axis=1)
        yield sizes, ranks


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
    deadline: float | None = None,
) -> ExpanderVerdict:
    """Check the robust-expansion inequality over admissible vertex sets S.

    Every S with ``tau*n <= |S| <= (1-tau)*n`` must have a robust
    nu-neighborhood of size at least ``|S| + nu*n``.  Exact mode enumerates
    all such S (allowed only for n <= 24); sampled mode checks ``trials``
    uniformly random admissible sets and can only certify (holds=True) or
    produce a concrete counterexample.  Exact mode checks ``deadline`` on
    entry and every 1024 sets, sampled mode before each block of sets.
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
        check_deadline(deadline, "exact expander check")
        checked = 0
        for size in range(lo, hi + 1):
            for combo in itertools.combinations(range(n), size):
                checked += 1
                if not checked & 1023:
                    check_deadline(deadline, "exact expander check")
                mask = _mask_of(combo)
                if _expander_violated(g, mask, size, threshold):
                    return ExpanderVerdict(False, frozenset(combo), "exact")
        return ExpanderVerdict(True, None, "exact")

    if mode != "sampled":
        raise InputError(f"unknown mode {mode!r}")

    adj = g.adjacency_matrix().astype(np.float32)
    rng = np.random.default_rng(seed)
    for sizes, ranks in random_ranks(rng, trials, n, lo, hi):
        check_deadline(deadline, "sampled expander check")
        masks = ranks < sizes[:, None]
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
    deadline: float | None = None,
) -> RegularityVerdict:
    """Quasirandomness check: min degree and pairwise set densities near alpha.

    Requires min degree >= alpha*n - 1 and, for every pair of disjoint sets
    S, T with |S|, |T| >= beta*n, a density ``e(S,T)/(|S||T|)`` within beta
    of alpha.  Exact only for n <= 24; exact mode checks ``deadline`` on
    entry and every 1024 set pairs, sampled mode before each block of pairs.
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
        check_deadline(deadline, "exact regularity check")
        checked = 0
        verts = range(n)
        for s_size in range(lo, n - lo + 1):
            for s_combo in itertools.combinations(verts, s_size):
                s_set = set(s_combo)
                s_mask = _mask_of(s_combo)
                rest = [v for v in verts if v not in s_set]
                for t_size in range(lo, len(rest) + 1):
                    for t_combo in itertools.combinations(rest, t_size):
                        checked += 1
                        if not checked & 1023:
                            check_deadline(deadline, "exact regularity check")
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

    if 2 * lo > n:
        # no two disjoint admissible sets fit: the condition is vacuous
        return RegularityVerdict(True, None, "", f"sampled({trials})")
    adj = g.adjacency_matrix().astype(np.float32)
    rng = np.random.default_rng(seed)
    for s_sizes, ranks in random_ranks(rng, trials, n, lo, n - lo, chunk=1024):
        check_deadline(deadline, "sampled regularity check")
        t_ends = s_sizes + rng.integers(lo, n - s_sizes + 1)
        s_masks = ranks < s_sizes[:, None]
        t_masks = ~s_masks & (ranks < t_ends[:, None])
        # S and T are disjoint, so each sum is the exact edge count e(S, T)
        e = ((s_masks.astype(np.float32) @ adj) * t_masks).sum(axis=1)
        density = e / (s_sizes * (t_ends - s_sizes))
        for idx in np.nonzero(np.abs(density - alpha) > beta + EPS)[0]:
            s_combo = np.flatnonzero(s_masks[idx]).tolist()
            t_combo = np.flatnonzero(t_masks[idx]).tolist()
            if not density_ok(_mask_of(s_combo), t_combo, len(s_combo), len(t_combo)):
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

# Largest header vertex count accepted: Graph builds a bit row for each of
# the n vertices, so an unchecked header could exhaust memory before any edge.
MAX_EDGE_LIST_VERTICES = 100_000


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
    if n > MAX_EDGE_LIST_VERTICES:
        raise InputError(f"header n={n} exceeds the limit {MAX_EDGE_LIST_VERTICES}")
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
