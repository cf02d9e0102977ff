import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamdeck.errors import InfeasibleError, InputError, SearchFailedError
from hamdeck.graphs import (
    Graph,
    build_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    iter_bits,
)
from hamdeck.partition import default_params, tri_partition
from hamdeck.regularize import (
    MaxFlowResult,
    balanced_orientation,
    build_flow_network,
    extract_regular_subgraph,
    max_flow,
    random_orientation,
)
from hamdeck.util import spawn_seed

from conftest import paley, random_graph, small_graphs


def _arcs(out):
    """The arcs (u, w) of out-rows, in (tail, head) order."""
    return [(u, w) for u, row in enumerate(out) for w in iter_bits(row)]


def _rows(n, arcs):
    out = [0] * n
    for u, w in arcs:
        out[u] |= 1 << w
    return tuple(out)


def _in_degree(out, v):
    return sum(row >> v & 1 for row in out)


def _k5_rows():
    # each vertex of K5 has arcs to the next two: 2-in/2-out
    return _rows(5, [(i, (i + k) % 5) for i in range(5) for k in (1, 2)])


def _k201_raw_core():
    """K201 minus the patch and raw residual rolls of tri_partition's first
    split at seed 0: each edge stays with probability 1 - 1/ln(201) - 0.05."""
    rng = random.Random(spawn_seed(0, "split", 0))
    cut = 1 / math.log(201) + 0.05
    kept = (e for e in sorted(complete_graph(201).edges) if rng.random() >= cut)
    return Graph(201, frozenset(kept))


class TestOrientation:
    def test_triangle_preserves_degrees(self):
        out = random_orientation(cycle_graph(3), 0)
        assert len(_arcs(out)) == 3
        for v in range(3):
            assert _in_degree(out, v) + out[v].bit_count() == 2

    def test_empty_graph(self):
        assert random_orientation(empty_graph(4), 0) == (0, 0, 0, 0)

    def test_deterministic_per_seed(self):
        g = complete_graph(5)
        assert random_orientation(g, 17) == random_orientation(g, 17)

    def test_seeds_differ(self):
        g = complete_graph(8)
        assert any(
            random_orientation(g, a) != random_orientation(g, 0) for a in range(1, 6)
        )

    def test_coins_follow_sorted_edges(self):
        # one coin per edge, drawn in sorted edge order: heads keeps (u, v)
        g = random_graph(12, 0.5, 3)
        rng = random.Random(5)
        arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in sorted(g.edges)]
        assert random_orientation(g, 5) == _rows(12, arcs)

    @given(small_graphs(min_n=2), st.integers(0, 5))
    def test_degree_preservation(self, g, seed):
        out = random_orientation(g, seed)
        assert len(_arcs(out)) == g.edge_count
        for v in range(g.n):
            assert _in_degree(out, v) + out[v].bit_count() == g.degree(v)
            assert out[v] & ~g.adj_bits[v] == 0

    @given(small_graphs(min_n=2))
    def test_balanced_orientation_is_balanced(self, g):
        out = balanced_orientation(g)
        assert len(_arcs(out)) == g.edge_count
        for v in range(g.n):
            assert abs(_in_degree(out, v) - out[v].bit_count()) <= 1
            assert out[v] & ~g.adj_bits[v] == 0

    @pytest.mark.parametrize(
        "make, digest",
        [
            pytest.param(
                lambda: complete_graph(4),
                "4510d6591273884dc63a15b46e69dd641f1f726157409336bfa88827495f94e4",
                id="k4",
            ),
            pytest.param(
                lambda: build_graph(2, [(0, 1)]),
                "fcbd8f2ee97e86ea25ede7fbf892fa8f8d0846fb35e5e9c91a20c7996fe7f963",
                id="one-edge",
            ),
            pytest.param(
                lambda: random_graph(30, 0.3, 7),
                "833872bdf0a90172a4d5937c6b494bd8c5c247bbe7fead107fb0d9fabfee43b3",
                id="odd-degrees",
            ),
            pytest.param(
                _k201_raw_core,
                "9e463205638da6ddd07d098dbad1db8955f3b73033b9b16e2e692bbcf7aba12b",
                id="k201-raw-core",
            ),
        ],
    )
    def test_balanced_orientation_is_pinned(self, make, digest):
        # K4's virtual pairs double real edges; the random graph has 14
        # odd-degree vertices
        arcs = _arcs(balanced_orientation(make()))
        assert hashlib.sha256(repr(arcs).encode()).hexdigest() == digest


class TestFlowNetwork:
    def test_empty_middle_layer(self):
        net = build_flow_network((0, 0), 1)
        assert max_flow(net).value == 0

    def test_single_path(self):
        result = max_flow(build_flow_network((0b10, 0), 1))
        assert result.value == 1
        assert result.kept == (0b10, 0)

    def test_balanced_k5_saturates(self):
        # 2-in/2-out orientation of K5 exists; flow must reach d*n = 10
        result = max_flow(build_flow_network(_k5_rows(), 2))
        assert result.value == 10
        assert result.kept == _k5_rows()

    def test_regular_digraph_saturates(self):
        net = build_flow_network(balanced_orientation(complete_graph(9)), 4)
        assert max_flow(net).value == 36

    def test_half_degree_must_be_positive(self):
        with pytest.raises(InputError):
            build_flow_network((0, 0), 0)

    def test_self_arc_rejected(self):
        with pytest.raises(InputError, match="self-arc"):
            build_flow_network((0, 0b10, 0), 1)

    def test_arc_out_of_range_rejected(self):
        with pytest.raises(InputError, match="out of range"):
            build_flow_network((0b100, 0), 1)

    @given(st.integers(0, 50), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_flow_internal_checks_never_fire(self, seed, d):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.5
        ]
        net = build_flow_network(_rows(n, arcs), d)
        result = max_flow(net)  # raises AssertionError on any inconsistency
        assert 0 <= result.value <= d * n
        assert sum(row.bit_count() for row in result.kept) == result.value
        for v in range(n):
            assert result.kept[v] & ~net.out[v] == 0
            assert result.kept[v].bit_count() <= d
            assert _in_degree(result.kept, v) <= d

    @pytest.mark.parametrize(
        "doctor, message",
        [
            # vertex 0 keeps the arc it dropped
            (
                lambda drop, matched: ([drop[0] & drop[0] - 1] + drop[1:], matched),
                "capacity violated at vertex 0",
            ),
            (lambda drop, matched: (drop, matched + 1), "conservation violated"),
            # vertex 0 also drops the self-arc (0, 0), which is no arc
            (
                lambda drop, matched: ([drop[0] | 1] + drop[1:], matched),
                "vertex 0 drops an arc it does not have",
            ),
        ],
        ids=["capacity-exceeded", "conservation-broken", "non-arc-dropped"],
    )
    def test_doctored_flow_fails_self_checks(self, monkeypatch, doctor, message):
        # with d = 1 each vertex of the 2-in/2-out K5 drops one out-arc and
        # one in-arc; doctor the drops and leave the network alone
        import hamdeck.regularize as regularize

        real = regularize._drop_arcs
        monkeypatch.setattr(
            regularize, "_drop_arcs", lambda *args: doctor(*real(*args))
        )
        with pytest.raises(AssertionError, match=message):
            max_flow(build_flow_network(_k5_rows(), 1))


class TestExtract:
    def test_k9_gives_six_regular(self):
        sub = extract_regular_subgraph(complete_graph(9), 3)
        assert set(sub.degrees()) == {6}
        assert sub.edges <= complete_graph(9).edges

    def test_already_regular_graph_is_its_own_output(self):
        # K5 is 4-regular; target degree 2d = 4 forces the graph itself
        sub = extract_regular_subgraph(complete_graph(5), 2)
        assert sub == complete_graph(5)

    def test_star_rejected(self):
        star = build_graph(6, [(0, i) for i in range(1, 6)])
        with pytest.raises(InfeasibleError):
            extract_regular_subgraph(star, 2)

    def test_d_override(self):
        sub = extract_regular_subgraph(complete_graph(9), 2)
        assert set(sub.degrees()) == {4}

    def test_target_above_min_degree_is_infeasible(self):
        # a 4-regular graph cannot contain a 6-regular spanning subgraph
        with pytest.raises(InfeasibleError):
            extract_regular_subgraph(complete_graph(5), 3)

    def test_unsaturated_flow_costs_one_max_flow(self, monkeypatch):
        # bowtie: triangles 0-1-2 and 0-3-4 share vertex 0, so no cycle
        # cover (a 1-in/1-out spanning subgraph) exists in any orientation
        import hamdeck.regularize as regularize

        calls = []
        real = regularize.max_flow
        monkeypatch.setattr(
            regularize, "max_flow", lambda net: calls.append(net) or real(net)
        )
        bowtie = build_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
        with pytest.raises(SearchFailedError, match="does not saturate"):
            extract_regular_subgraph(bowtie, 1)
        assert len(calls) == 1


def _scipy_flow_value(net):
    """The reference: scipy's maximum flow value over the same network, its
    middle arcs listed by a bit walk of the out-rows."""
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    n, d = net.n, net.d
    arcs = _arcs(net.out)
    middle = np.array(arcs, dtype=np.int64).reshape(-1, 2)
    verts = np.arange(n, dtype=np.int64)
    tails = np.concatenate([np.zeros(n, np.int64), 1 + middle[:, 0], 1 + n + verts])
    heads = np.concatenate([1 + verts, 1 + n + middle[:, 1], np.full(n, 2 * n + 1)])
    caps = np.concatenate([np.full(n, d), np.ones(len(arcs)), np.full(n, d)])
    size = 2 * n + 2
    matrix = csr_matrix((caps.astype(np.int32), (tails, heads)), shape=(size, size))
    return int(maximum_flow(matrix, 0, size - 1).flow_value)


def _check_against_reference(net):
    """max_flow reaches scipy's value, and its kept arcs are arcs of the
    network that give each vertex at most d out-arcs and d in-arcs, exactly
    d when the flow saturates."""
    result = max_flow(net)
    assert result.value == _scipy_flow_value(net)
    assert sum(row.bit_count() for row in result.kept) == result.value
    saturated = result.value == net.d * net.n
    for v in range(net.n):
        assert result.kept[v] & ~net.out[v] == 0
        for degree in (result.kept[v].bit_count(), _in_degree(result.kept, v)):
            assert degree == net.d if saturated else degree <= net.d
    return result


def _mirrored(kept):
    rows = list(kept)
    for u, row in enumerate(kept):
        for w in iter_bits(row):
            rows[w] |= 1 << u
    return tuple(rows)


class TestFlowAgainstReference:
    @pytest.mark.parametrize("n", [5, 13, 27, 50])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graphs_keep_the_same_arcs(self, n, seed):
        # the same number of arcs as scipy's flow, not the same set: the
        # drop search picks its own maximum flow
        g = random_graph(n, 0.6, seed)
        for out in (balanced_orientation(g), random_orientation(g, seed)):
            for d in (1, 2, 3):
                _check_against_reference(build_flow_network(out, d))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 14), st.floats(0.05, 0.95))
    @settings(max_examples=200, deadline=None)
    def test_random_networks_reach_scipys_value(self, seed, n, p):
        # arbitrary arc sets, so in- and out-degrees are unbalanced and many
        # networks do not saturate
        rng = random.Random(seed)
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
        for d in (1, 2, 4):
            _check_against_reference(build_flow_network(_rows(n, arcs), d))

    def test_network_without_arcs(self):
        net = build_flow_network((0,) * 9, 2)
        assert _scipy_flow_value(net) == 0
        assert max_flow(net) == MaxFlowResult(0, (0,) * 9)

    def test_paley53_extraction(self):
        g = paley(53)
        for d in (13, 10):
            net = build_flow_network(balanced_orientation(g), d)
            result = _check_against_reference(net)
            assert result.value == 53 * d
            assert extract_regular_subgraph(g, d).adj_bits == _mirrored(result.kept)

    @pytest.mark.parametrize(
        "make", [lambda: complete_graph(201), lambda: paley(197)], ids=["k201", "paley197"]
    )
    def test_tri_partition_networks(self, make, monkeypatch):
        # the networks of a seed-0 split of each large-n benchmark input
        import hamdeck.regularize as regularize

        nets = []
        real = regularize.build_flow_network
        monkeypatch.setattr(
            regularize, "build_flow_network", lambda *a: nets.append(real(*a)) or nets[-1]
        )
        g = make()
        tri_partition(g, default_params(g, seed=0))
        assert nets
        for net in nets:
            _check_against_reference(net)


def _cut_capacity(net, s, t):
    """Capacity of the cut that keeps the source, the X-copies of ``s`` and
    the Y-copies of ``t`` on the source side: d*(n - |S|) + e(S, Y \\ T) + d*|T|."""
    t_mask = sum(1 << v for v in t)
    crossing = sum((net.out[u] & ~t_mask).bit_count() for u in s)
    return net.d * (net.n - len(s)) + crossing + net.d * len(t)


class TestCutAudit:
    def test_empty_cut_is_trivial_dn(self):
        net = build_flow_network(_k5_rows(), 2)
        assert _cut_capacity(net, set(), set()) == 10 == max_flow(net).value

    def test_full_cut_is_dn(self):
        net = build_flow_network(_k5_rows(), 2)
        assert _cut_capacity(net, range(5), range(5)) == 10

    def test_concrete_cut_recounted(self):
        # the formula against the network's arcs listed one by one
        net = build_flow_network(_k5_rows(), 2)
        n, d = net.n, net.d
        source, sink = "s", "t"
        arcs = [(source, ("x", v), d) for v in range(n)]
        arcs += [(("x", u), ("y", w), 1) for u, w in _arcs(net.out)]
        arcs += [(("y", v), sink, d) for v in range(n)]
        s, t = {0, 1, 2}, {0}
        side = {source} | {("x", v) for v in s} | {("y", v) for v in t}
        capacity = sum(c for a, b, c in arcs if a in side and b not in side)
        assert _cut_capacity(net, s, t) == capacity

    def test_min_cut_consistency_on_saturating_network(self):
        # weak duality: when max flow reaches d*n every cut has capacity >= d*n
        net = build_flow_network(_k5_rows(), 2)
        assert max_flow(net).value == 10
        rng = random.Random(0)
        for _ in range(200):
            s = {v for v in range(5) if rng.random() < 0.5}
            t = {v for v in range(5) if rng.random() < 0.5}
            assert _cut_capacity(net, s, t) >= 10
