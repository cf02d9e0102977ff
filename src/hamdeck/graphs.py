"""Immutable simple graphs, edge-set algebra, and structural predicates.

Vertices are always the integers ``0..n-1``; edges are unordered pairs stored
as ``(u, v)`` tuples with ``u < v``.  Graphs are immutable values and safe to
share; all predicates are pure functions of their inputs (the sampled
expander check takes an explicit seed).

Every graph is ``n`` plus its bit rows ``adj_bits``; nothing else is kept.
Edges are checked once, where they enter: ``_edge_rows`` checks the pairs
given to ``Graph(n, edges)`` (and so to ``build_graph``, ``parse_edge_list``
and the generators) and to ``subtract`` and ``union``.  Graphs derived from
a valid graph are trusted: ``subtract`` and ``union`` bit-test the other
side's rows against this graph's, then XOR or OR them in
(``Graph._derived``).  Degrees, edge tests, equality and the package's
self-checks read the bit rows; the neighbour lists ``adj`` and the edge set
``edges`` are views decoded on first use.  Hot bit-row loops index
``single_bits(n)`` in place of ``1 << v``: every index is a vertex already
range-checked or read off a bit row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

from .errors import InputError
from .util import ceil_frac, check_deadline, floor_frac

if TYPE_CHECKING:
    import numpy as np

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


def _edge_rows(n: int, pairs) -> tuple[int, ...]:
    """The one edge check: bit rows of pairs 0 <= u < v < n, repeats once."""
    if n < 0:
        raise InputError(f"vertex count must be nonnegative, got {n}")
    bits = [0] * n
    for u, v in pairs:
        if u == v:
            raise InputError(f"loop edge ({u}, {v}) not allowed")
        if not (0 <= u < v < n):
            raise InputError(f"edge ({u}, {v}) out of range for n={n}")
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    return tuple(bits)


def _first_edge(rows) -> Edge | None:
    """The least edge of symmetric, loop-free bit rows: the first nonempty
    row's lowest bit (a bit below the row would fill an earlier row)."""
    for u, row in enumerate(rows):
        if row:
            return (u, (row & -row).bit_length() - 1)
    return None


@dataclass(frozen=True, init=False)
class Graph:
    """Immutable undirected simple graph on vertices 0..n-1, held as its bit
    rows: ``adj_bits[v]`` has bit w set iff v ~ w.

    ``adj[v]`` (v's neighbours in increasing order) and ``edges`` are decoded
    from the rows on first use.  Equality and hashing compare n and the bit
    rows.
    """

    n: int
    adj_bits: tuple[int, ...]

    def __init__(self, n: int, edges) -> None:
        object.__setattr__(self, "adj_bits", _edge_rows(n, edges))
        object.__setattr__(self, "n", n)

    @classmethod
    def _derived(cls, n: int, adj_bits: tuple[int, ...]) -> "Graph":
        """Trusted: ``adj_bits`` must encode a simple graph on n vertices."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj_bits", adj_bits)
        return g

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        return _decode_adj(self)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        adj = _decode_adj(self)
        return frozenset((u, v) for u in range(self.n) for v in adj[u] if u < v)

    # -- basic accessors -------------------------------------------------

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        return tuple(b.bit_count() for b in self.adj_bits)

    @property
    def edge_count(self) -> int:
        return sum(self._degrees) // 2

    def degree(self, v: int) -> int:
        return self.adj_bits[v].bit_count()

    def degrees(self) -> list[int]:
        return list(self._degrees)

    def has_edge(self, u: int, v: int) -> bool:
        # a row has no bits at n or above, so only v < 0 needs a test of its own
        return 0 <= u < self.n and v >= 0 and self.adj_bits[u] >> v & 1 == 1

    def regular_degree(self) -> int | None:
        """The common degree if the graph is regular, else None."""
        degs = set(self._degrees)
        if len(degs) == 1:
            return degs.pop()
        return None

    def adjacency_matrix(self) -> np.ndarray:
        """The n x n 0/1 uint8 matrix, unpacked from the bit rows."""
        return unpack_rows(self.adj_bits, self.n)

    # -- edge-set algebra -------------------------------------------------

    def subtract(self, removed) -> Graph:
        """Graph minus ``removed``, a Graph or pairs; all must be present."""
        rows = tuple(zip(self.adj_bits, self._rows_of(removed)))
        absent = _first_edge(r & ~a for a, r in rows)
        if absent is not None:
            raise InputError(f"cannot subtract edge {absent}: not present")
        return Graph._derived(self.n, tuple(a ^ r for a, r in rows))

    def union(self, added) -> Graph:
        """Graph plus ``added``, a Graph or pairs; all must be new."""
        rows = tuple(zip(self.adj_bits, self._rows_of(added)))
        present = _first_edge(r & a for a, r in rows)
        if present is not None:
            raise InputError(f"cannot add edge {present}: already present")
        return Graph._derived(self.n, tuple(a | r for a, r in rows))

    def _rows_of(self, other) -> tuple[int, ...]:
        """Rows of ``other`` on this graph's n: a same-n Graph's own, or else
        the checked rows of its pairs, taken in either order."""
        if isinstance(other, Graph) and other.n == self.n:
            return other.adj_bits
        pairs = other.edges if isinstance(other, Graph) else other
        return _edge_rows(self.n, (norm_edge(u, v) for u, v in pairs))


def _decode_adj(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour tuples, one bit walk per row: the only decoder of
    the bit rows, behind both ``adj`` and ``edges``."""
    return tuple(tuple(iter_bits(b)) for b in g.adj_bits)


def build_graph(n: int, edge_list) -> Graph:
    """A Graph from pairs in either order, repeats counting once.

    Raises InputError for out-of-range endpoints or loop edges.
    """
    return Graph(n, (norm_edge(u, v) for u, v in edge_list))


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("a cycle needs at least 3 vertices")
    return Graph(n, (norm_edge(i, (i + 1) % n) for i in range(n)))


def empty_graph(n: int) -> Graph:
    return Graph(n, ())


def _mask_of(members) -> int:
    m = 0
    for v in members:
        m |= 1 << v
    return m


# -- bitset helpers over adj_bits (bit w of entry v set iff v ~ w) -----------


@lru_cache(maxsize=1)
def single_bits(n: int) -> tuple[int, ...]:
    """``(1 << 0, ..., 1 << (n - 1))`` for the last n only.  Each index must be
    a vertex already range-checked or read off a bit row: -1 wraps round."""
    return tuple(1 << v for v in range(n))


def iter_bits(mask: int):
    """Yield the set bit positions of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def unpack_rows(rows, n: int) -> np.ndarray:
    """The len(rows) x n 0/1 uint8 matrix of bit rows below bit n."""
    import numpy as np

    nbytes = (n + 7) // 8
    raw = b"".join(b.to_bytes(nbytes, "little") for b in rows)
    packed = np.frombuffer(raw, np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def pack_rows(matrix: np.ndarray) -> tuple[int, ...]:
    """Bit rows of a 0/1 (or bool) matrix: the inverse of ``unpack_rows``."""
    import numpy as np

    packed = np.packbits(matrix, axis=1, bitorder="little")
    return tuple(map(int.from_bytes, packed, itertools.repeat("little")))


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


def augment(out, in_rows, matched, matched_in, spare: int, root: int) -> int:
    """Grow the b-matching ``matched`` by one edge along a shortest
    alternating path from the tail ``root``: out along an unmatched edge of
    ``out``, back along a matched one, ending at a head in the mask
    ``spare``.  Returns that head, or -1 when no path exists.  Both
    ``matched`` and its in-rows ``matched_in`` are updated.  ``max_flow``
    drops arcs with it; ``_random_perfect_matching`` finishes the factor
    draw's matching with it (b = 1, both rows the graph's bit rows).

    Each finished layer is a pair of vertex masks, (tails, heads), and the
    path is walked back through them, so no vertex records its parent.  The
    tails with an unmatched edge to a spare head are found once, as no
    layer changes them, and the next layer's lowest of them is looked for
    before that layer is built: the search stops at the first tail that
    reaches a spare head."""
    ready = 0
    for w in iter_bits(spare):
        ready |= in_rows[w] & ~matched_in[w]
    tails = seen_tails = 1 << root
    hits = tails & ready
    seen_heads = 0
    layers: list[tuple[int, int]] = []
    while not hits:
        heads = 0
        for t in iter_bits(tails):
            heads |= out[t] & ~matched[t]
        heads &= ~seen_heads
        if not heads:
            return -1
        layers.append((tails, heads))
        seen_heads |= heads
        for t in iter_bits(ready & ~seen_tails):
            if matched[t] & heads:  # the next layer's lowest hit
                hits = 1 << t
                break
        else:
            tails = 0
            for w in iter_bits(heads):
                tails |= matched_in[w]
            tails &= ~seen_tails
            seen_tails |= tails
    t = (hits & -hits).bit_length() - 1
    hit = out[t] & ~matched[t] & spare
    end = w = (hit & -hit).bit_length() - 1
    while True:
        matched[t] |= 1 << w  # a forward edge joins the matching
        matched_in[w] |= 1 << t
        if not layers:
            return end
        prev_tails, prev_heads = layers.pop()
        back = matched[t] & prev_heads  # the edge that reached t
        w = (back & -back).bit_length() - 1
        matched[t] ^= 1 << w
        matched_in[w] ^= 1 << t
        back = in_rows[w] & ~matched_in[w] & prev_tails
        t = (back & -back).bit_length() - 1


def strip_cycle(adj_bits, cyc) -> tuple[int, ...]:
    """Adjacency bits with the edges of the closed vertex sequence removed."""
    bits = list(adj_bits)
    u = cyc[-1]
    for v in cyc:  # the edges (last, first), (first, second), ...
        bits[u] &= ~(1 << v)
        bits[v] &= ~(1 << u)
        u = v
    return tuple(bits)


def _only_cycle(bits, n: int) -> tuple[int, ...] | None:
    """The Hamilton cycle of 2-regular bit rows, or None when they are
    not connected.

    Walks from vertex 0 towards its lower neighbour a until the walk is
    back at 0, so a connected residual gives (0, a, ..., b) with a < b: the
    one tuple ``counting._hamilton_cycles_from`` yields on it, with or
    without the anchor, and already in canonical form.
    """
    cyc = [0]
    prev, v = 0, (bits[0] & -bits[0]).bit_length() - 1
    while v:
        cyc.append(v)
        prev, v = v, (bits[v] ^ 1 << prev).bit_length() - 1
    return tuple(cyc) if len(cyc) == n else None


def decompositions(bits, n: int, cycles_of):
    """Yield the Hamiltonian decompositions of regular bit rows, each a
    tuple of cycles in level order, peeling at each level the cycles that
    ``cycles_of(rows)`` lists: the one decomposition recursion, under the
    completer and the unmemoised counting oracles.

    Each residual (``strip_cycle``) stays regular, so a branch ends at a
    2-regular level, whose one Hamilton cycle is ``_only_cycle``'s walk
    when it is connected.  Any other level is tested for connectivity before
    ``cycles_of`` is called.  Every decomposition has exactly one cycle
    through vertex 0's lowest edge (0, a), so listing every cycle through
    it keeps the recursion exhaustive and reaches each decomposition once.
    """
    if not any(bits):
        yield ()
        return
    if bits[0].bit_count() == 2:  # every row, since the rows are regular
        if cyc := _only_cycle(bits, n):
            yield (cyc,)
        return
    if not connected_over(bits, (1 << n) - 1):
        return
    for cyc in cycles_of(bits):
        for rest in decompositions(strip_cycle(bits, cyc), n, cycles_of):
            yield (cyc, *rest)


# -- robust expansion -------------------------------------------------------


@dataclass(frozen=True)
class ExpanderVerdict:
    holds: bool
    witness: frozenset[int] | None
    mode: str


EXACT_SET_PREDICATE_CAP = 24  # 2^n subset enumerations beyond this are refused
SAMPLE_BLOCK = 4096  # sampled sets drawn and checked per matrix product


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
    all such S (allowed only for n <= 24), so its verdict is a proof either
    way.  Sampled mode checks ``trials`` random admissible sets, each of a
    size drawn uniformly from the admissible range: holds=False comes with a
    counterexample, re-checked exactly, but holds=True means only that none
    of the ``trials`` sets drawn was a counterexample.  Exact mode checks
    ``deadline`` on entry and every 1024 sets, sampled mode before each block
    of ``SAMPLE_BLOCK`` sets.
    """
    if not (0 < nu <= tau < 1):
        raise InputError(f"need 0 < nu <= tau < 1, got nu={nu}, tau={tau}")
    if mode == "sampled" and trials < 1:
        raise InputError(f"sampled mode needs trials >= 1, got {trials}")
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

    import numpy as np

    adj = g.adjacency_matrix().astype(np.float32)
    rng = np.random.default_rng(seed)
    for start in range(0, trials, SAMPLE_BLOCK):
        check_deadline(deadline, "sampled expander check")
        rows = min(SAMPLE_BLOCK, trials - start)
        sizes = rng.integers(lo, hi + 1, size=rows)
        order = rng.random((rows, n)).argsort(axis=1)
        # row i holds the first sizes[i] vertices of a random order
        masks = np.empty((rows, n), bool)
        np.put_along_axis(masks, order, np.arange(n) < sizes[:, None], axis=1)
        counts = masks.astype(np.float32) @ adj
        rn_sizes = (counts >= threshold - 0.5).sum(axis=1)
        bad = np.nonzero(rn_sizes < sizes + threshold)[0]
        for idx in bad:
            witness = frozenset(int(v) for v in np.nonzero(masks[idx])[0])
            # re-check exactly to rule out float artifacts
            if _expander_violated(g, _mask_of(witness), len(witness), threshold):
                return ExpanderVerdict(False, witness, f"sampled({trials})")
    return ExpanderVerdict(True, None, f"sampled({trials})")


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
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def load_edge_list(path) -> Graph:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_edge_list(text)


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_edge_list(g))
