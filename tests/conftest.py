import itertools
import random

import pytest
from hypothesis import strategies as st

from hamdeck.errors import InputError
from hamdeck.factor import PartialHC
from hamdeck.graphs import Graph, build_graph, complete_graph, norm_edge
from hamdeck.walecki import canonical_cycle


@st.composite
def small_graphs(draw, min_n: int = 2, max_n: int = 8):
    """Arbitrary simple graphs on up to max_n vertices."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [p for p, k in zip(pairs, keep) if k])


@st.composite
def dense_graphs(draw, min_n: int = 4, max_n: int = 10):
    """Graphs biased dense enough for expansion properties to hold."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    drop = draw(st.sets(st.integers(0, len(pairs) - 1), max_size=len(pairs) // 4))
    return build_graph(n, [p for i, p in enumerate(pairs) if i not in drop])


def random_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each pair u < v, in order, is an edge with probability p."""
    rng = random.Random(seed)
    return build_graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def two_disjoint_k4() -> Graph:
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
    return build_graph(8, edges)


def circulant(n: int, jumps) -> Graph:
    return build_graph(n, [(i, (i + j) % n) for i in range(n) for j in jumps])


def paley(q: int) -> Graph:
    """Paley graph on Z_q (q prime, q = 1 mod 4): u ~ v iff u - v is a
    nonzero square; (q-1)/2-regular with edge density about 1/2."""
    squares = {x * x % q for x in range(1, q)}
    pairs = itertools.combinations(range(q), 2)
    return build_graph(q, [(u, v) for u, v in pairs if (v - u) % q in squares])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def build_partial(host: Graph, path, cycles, pairs) -> PartialHC:
    """A partial cover made outside the rotation engine, whose moves derive
    theirs: the cycles and pairs canonicalised (the path keeps its order),
    then validated against host."""
    partial = PartialHC(
        host.n,
        tuple(path),
        tuple(sorted(canonical_cycle(c) for c in cycles)),
        tuple(sorted(norm_edge(u, v) for u, v in pairs)),
    )
    if len(partial.path) < 2:
        raise InputError("path component needs at least 2 vertices")
    if host.n != partial.host_n:
        raise InputError(f"host size {host.n} != partial host {partial.host_n}")
    for cyc in partial.cycles:
        if len(cyc) < 3:
            raise InputError(f"cycle too short: {cyc}")
    parts = (partial.path, *partial.cycles, *partial.pairs)
    covered = [v for part in parts for v in part]
    if len(covered) != host.n or set(covered) != set(range(host.n)):
        raise InputError("partial components are not a disjoint spanning cover")
    walks = (partial.path, *(c + c[:1] for c in partial.cycles), *partial.pairs)
    for walk in walks:
        for a, b in zip(walk, walk[1:]):
            if not host.has_edge(a, b):
                raise InputError(f"partial uses non-edge {norm_edge(a, b)}")
    return partial


def cycle_edges(cycle) -> frozenset:
    """The edges of a cyclic vertex sequence, each as (min, max)."""
    cyc = list(cycle)
    return frozenset(norm_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))


def cover_edges(cover) -> frozenset:
    """The edge set of a TwoFactor, or of a PartialHC with its path."""
    edges = set(cover.pairs)
    path = getattr(cover, "path", ())
    edges.update(norm_edge(a, b) for a, b in zip(path, path[1:]))
    for cyc in cover.cycles:
        edges.update(cycle_edges(cyc))
    return frozenset(edges)


@pytest.fixture
def k5_file(tmp_path):
    from hamdeck.graphs import save_edge_list

    path = tmp_path / "k5.edges"
    save_edge_list(complete_graph(5), path)
    return str(path)
