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
The flow is found as its complement, the fewest arcs to drop so that no
vertex keeps more than d out-arcs or d in-arcs: a greedy pass over bit-mask
buckets, then augmenting paths (``max_flow``, by ``graphs.augment``).  Only
the in-rows come from numpy, by one unpack, transpose and pack; the balanced
orientation is one Python step per edge, on bits indexed, not shifted.  The
stage trusts its one caller, ``tri_partition``, to pass 1 <= d <= min deg // 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice

from .errors import SearchFailedError
from .graphs import Graph, augment, iter_bits, pack_rows, single_bits, unpack_rows


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
    bit = single_bits(g.n)
    # a virtual pair may double a real edge (K4), so it keeps a row of its own
    virtual = [0] * g.n
    odd = [v for v, row in enumerate(real) if row.bit_count() % 2]
    for u, v in zip(odd[::2], odd[1::2]):
        virtual[u] |= bit[v]
        virtual[v] |= bit[u]

    out = [0] * g.n
    for start in range(g.n):
        # every degree is even, so each trail closes where it started
        v = start
        while row := real[v] | virtual[v]:
            low = row & -row
            w = low.bit_length() - 1
            if virtual[v] & low:
                virtual[v] ^= low
                virtual[w] ^= bit[v]
            else:
                real[v] ^= low
                real[w] ^= bit[v]
                out[v] |= low
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
    """The network over the out-rows ``out`` of an orientation on
    ``len(out)`` vertices, which holds no self-arc and no arc past n."""
    return FlowNetwork(len(out), half_degree, tuple(out))


@dataclass(frozen=True)
class MaxFlowResult:
    """The flow value and ``kept``, the out-rows of the arcs carrying flow."""

    value: int
    kept: tuple[int, ...]


def max_flow(net: FlowNetwork) -> MaxFlowResult:
    """Exact integral maximum flow, found as the fewest arcs to leave empty;
    validates the capacities and the flow value.

    An integral flow is a set of kept arcs with at most d out-arcs and d
    in-arcs at each vertex, so vertex u must drop a(u) = out(u) - d of its
    out-arcs and w must drop b(w) = in(w) - d in-arcs, where positive.  One
    dropped arc serves a tail and a head at once: with M the largest set of
    arcs that gives no tail more than a(u) and no head more than b(w), the
    fewest drops number sum a + sum b - |M| (Gallai's identity for bipartite
    b-matchings and b-edge covers), so the value is m - sum a - sum b + |M|.
    """
    n, d = net.n, net.d
    in_rows = _transpose(net.out, n)
    out_need = [max(row.bit_count() - d, 0) for row in net.out]
    in_need = [max(row.bit_count() - d, 0) for row in in_rows]
    drop, matched = _drop_arcs(net.out, in_rows, out_need, in_need)

    for v, (row, x) in enumerate(zip(net.out, drop)):
        if x & ~row:
            raise AssertionError(f"vertex {v} drops an arc it does not have")
    kept = tuple(row & ~x for row, x in zip(net.out, drop))
    for v, (row, col) in enumerate(zip(kept, _transpose(kept, n))):
        if row.bit_count() > d or col.bit_count() > d:
            raise AssertionError(f"source/sink arc capacity violated at vertex {v}")
    arcs = sum(row.bit_count() for row in net.out)
    value = arcs - sum(out_need) - sum(in_need) + matched
    if value != sum(row.bit_count() for row in kept):
        raise AssertionError(f"flow conservation violated: value {value} != kept arcs")
    return MaxFlowResult(value, kept)


def _transpose(rows, n: int) -> list[int]:
    """The in-rows of out-rows on n vertices: one numpy unpack, transpose
    and pack (packbits is slow on a strided view, so the transpose is
    copied first)."""
    return list(pack_rows(unpack_rows(rows, n).T.copy()))


def _drop_arcs(out, in_rows, out_need, in_need) -> tuple[list[int], int]:
    """Out-rows of a fewest set of arcs that gives each tail u at least
    ``out_need[u]`` and each head w at least ``in_need[w]``, and the size of
    the maximum b-matching M inside it.

    M is grown greedily, most needed first: tails in order of need, each
    taking heads with the most drops still needed, from bit-mask buckets
    indexed by that need.  A tail still short then searches breadth first
    for augmenting paths, until none is left; each tail and head still short
    after that drops arbitrary further arcs.
    """
    n = len(out)
    drop = [0] * n
    out_left = list(out_need)
    buckets = [0] * (max(in_need, default=0) + 1)  # heads by need left
    for w, k in enumerate(in_need):
        buckets[k] |= 1 << w
    for u in sorted(range(n), key=out_need.__getitem__, reverse=True):
        r = out_need[u]
        if not r:
            break
        avail = out[u]
        for k in range(len(buckets) - 1, 0, -1):
            take = avail & buckets[k]
            if not take:
                continue
            if take.bit_count() > r:
                rest = take
                for _ in range(r):
                    rest &= rest - 1
                take ^= rest  # its lowest r heads
            buckets[k] ^= take
            buckets[k - 1] |= take
            avail ^= take
            drop[u] |= take
            r -= take.bit_count()
            if not r:
                break
        out_left[u] = r
    drop_in = _transpose(drop, n)
    in_left = [k - row.bit_count() for k, row in zip(in_need, drop_in)]
    spare = sum(buckets[1:])  # heads that may take one more drop

    for u in range(n):
        while out_left[u]:
            w = augment(out, in_rows, drop, drop_in, spare, u)
            if w < 0:
                break  # no path from u now, so none after later augmentations
            out_left[u] -= 1
            in_left[w] -= 1
            if not in_left[w]:
                spare ^= 1 << w
    matched = sum(out_need) - sum(out_left)

    for u, r in enumerate(out_left):
        for w in islice(iter_bits(out[u] & ~drop[u]), r):
            drop[u] |= 1 << w
            drop_in[w] |= 1 << u
    for w, r in enumerate(in_left):
        for u in islice(iter_bits(in_rows[w] & ~drop_in[w]), r):
            drop[u] |= 1 << w
    return drop, matched


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
    result = max_flow(build_flow_network(balanced_orientation(g), d))
    if result.value != d * n:
        raise SearchFailedError(
            f"balanced orientation does not saturate the flow "
            f"(value {result.value} of {d * n})"
        )
    # each edge of g is one arc: the kept arcs and their mirror are the core
    kept = unpack_rows(result.kept, n)
    sub = Graph._derived(n, pack_rows(kept | kept.T))
    degs = set(sub.degrees())
    if degs != {2 * d}:
        raise AssertionError(f"extracted subgraph degrees {degs} != {2 * d}")
    return sub
