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
)
from hamdeck.regularize import (
    CutAudit,
    Digraph,
    RegularizeParams,
    audit_cut_cases,
    balanced_orientation,
    build_flow_network,
    extract_regular_subgraph,
    max_flow,
    random_orientation,
)
from hamdeck.util import spawn_seed

from conftest import small_graphs


def _random_graph(n, p, seed):
    rng = random.Random(seed)
    return build_graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def _k201_raw_core():
    """K201 minus the patch and raw residual rolls of tri_partition's first
    split at seed 0: each edge stays with probability 1 - 1/ln(201) - 0.05."""
    rng = random.Random(spawn_seed(0, "split", 0))
    cut = 1 / math.log(201) + 0.05
    kept = (e for e in sorted(complete_graph(201).edges) if rng.random() >= cut)
    return Graph(201, frozenset(kept))


class TestOrientation:
    def test_triangle_preserves_degrees(self):
        dg = random_orientation(cycle_graph(3), 0)
        assert len(dg.arcs) == 3
        for v in range(3):
            assert dg.in_degree(v) + dg.out_degree(v) == 2

    def test_empty_graph(self):
        assert random_orientation(empty_graph(4), 0).arcs == frozenset()

    def test_deterministic_per_seed(self):
        g = complete_graph(5)
        assert random_orientation(g, 17) == random_orientation(g, 17)

    def test_seeds_differ(self):
        g = complete_graph(8)
        assert any(
            random_orientation(g, a) != random_orientation(g, 0) for a in range(1, 6)
        )

    @given(small_graphs(min_n=2), st.integers(0, 5))
    def test_degree_preservation(self, g, seed):
        dg = random_orientation(g, seed)
        assert len(dg.arcs) == g.edge_count
        for v in range(g.n):
            assert dg.in_degree(v) + dg.out_degree(v) == g.degree(v)

    @given(small_graphs(min_n=2))
    def test_balanced_orientation_is_balanced(self, g):
        dg = balanced_orientation(g)
        assert len(dg.arcs) == g.edge_count
        for v in range(g.n):
            assert abs(dg.in_degree(v) - dg.out_degree(v)) <= 1

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
                lambda: _random_graph(30, 0.3, 7),
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
        arcs = sorted(balanced_orientation(make()).arcs)
        assert hashlib.sha256(repr(arcs).encode()).hexdigest() == digest

    def test_self_arc_rejected(self):
        with pytest.raises(InputError):
            Digraph(3, frozenset({(1, 1)}))


class TestFlowNetwork:
    def test_triangle_network_shape(self):
        dg = random_orientation(cycle_graph(3), 0)
        net = build_flow_network(dg, 1)
        assert net.node_count == 8
        assert len(net.arcs()) == 9

    def test_empty_middle_layer(self):
        net = build_flow_network(Digraph(2, frozenset()), 1)
        assert max_flow(net).value == 0

    def test_single_path(self):
        net = build_flow_network(Digraph(2, frozenset({(0, 1)})), 1)
        result = max_flow(net)
        assert result.value == 1
        assert result.middle_flow[(0, 1)] == 1

    def test_balanced_k5_saturates(self):
        # 2-in/2-out orientation of K5 exists; flow must reach d*n = 10
        arcs = frozenset(
            [(i, (i + 1) % 5) for i in range(5)] + [(i, (i + 2) % 5) for i in range(5)]
        )
        net = build_flow_network(Digraph(5, arcs), 2)
        assert max_flow(net).value == 10

    def test_regular_digraph_saturates(self):
        dg = balanced_orientation(complete_graph(9))
        net = build_flow_network(dg, 4)
        assert max_flow(net).value == 36

    def test_half_degree_must_be_positive(self):
        with pytest.raises(InputError):
            build_flow_network(Digraph(2, frozenset()), 0)

    @given(st.integers(0, 50), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_flow_internal_checks_never_fire(self, seed, d):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        arcs = frozenset(
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.5
        )
        net = build_flow_network(Digraph(n, arcs), d)
        result = max_flow(net)  # raises AssertionError on any inconsistency
        assert 0 <= result.value <= d * n


class TestExtract:
    def test_k9_gives_six_regular(self):
        params = RegularizeParams(c0=8 / 9, eps0=2 / 9)
        sub = extract_regular_subgraph(complete_graph(9), params)
        assert set(sub.degrees()) == {6}
        assert sub.edges <= complete_graph(9).edges

    def test_already_regular_graph_is_its_own_output(self):
        # K5 is 4-regular; target degree 2d = 4 forces the graph itself
        params = RegularizeParams(c0=0.8, eps0=0.0005)
        sub = extract_regular_subgraph(complete_graph(5), params)
        assert sub == complete_graph(5)

    def test_star_rejected(self):
        star = build_graph(6, [(0, i) for i in range(1, 6)])
        params = RegularizeParams(c0=0.5, eps0=0.1)
        with pytest.raises(InfeasibleError):
            extract_regular_subgraph(star, params)

    def test_d_override(self):
        params = RegularizeParams(c0=8 / 9, eps0=2 / 9)
        sub = extract_regular_subgraph(complete_graph(9), params, d_override=2)
        assert set(sub.degrees()) == {4}

    def test_target_above_min_degree_is_infeasible(self):
        # a 4-regular graph cannot contain a 6-regular spanning subgraph
        params = RegularizeParams(c0=0.9, eps0=0.1)
        with pytest.raises(InfeasibleError):
            extract_regular_subgraph(complete_graph(5), params, d_override=3)

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
        params = RegularizeParams(c0=0.6, eps0=0.1)
        with pytest.raises(SearchFailedError, match="does not saturate"):
            extract_regular_subgraph(bowtie, params, d_override=1)
        assert len(calls) == 1

    def test_params_validation(self):
        with pytest.raises(InputError):
            RegularizeParams(c0=0.5, eps0=0.6)


class TestCutAudit:
    def _k5_net(self):
        arcs = frozenset(
            [(i, (i + 1) % 5) for i in range(5)] + [(i, (i + 2) % 5) for i in range(5)]
        )
        return build_flow_network(Digraph(5, arcs), 2)

    def test_empty_cut_is_trivial_dn(self):
        net = self._k5_net()
        params = RegularizeParams(c0=0.8, eps0=0.2)
        audit = audit_cut_cases(net, params, [], [])
        assert audit == CutAudit(10, 10, True, "trivial", 0)

    def test_full_cut_is_dn(self):
        net = self._k5_net()
        params = RegularizeParams(c0=0.8, eps0=0.2)
        audit = audit_cut_cases(net, params, range(5), range(5))
        assert audit.capacity == 10
        assert audit.satisfies

    def test_concrete_cut_recounted(self):
        net = self._k5_net()
        params = RegularizeParams(c0=0.8, eps0=0.2)
        s, t = {0, 1, 2}, {0}
        audit = audit_cut_cases(net, params, s, t)
        crossing = sum(1 for (u, v) in net.middle if u in s and v not in t)
        assert audit.middle_edges == crossing
        assert audit.capacity == 2 * (5 - 3) + crossing + 2 * 1
        assert audit.satisfies == (audit.capacity >= 10)

    def test_case_labels(self):
        net = self._k5_net()
        params = RegularizeParams(c0=0.8, eps0=0.2)
        assert audit_cut_cases(net, params, {0}, set()).case == "small-source-side"
        assert audit_cut_cases(net, params, {0, 1}, {4}).case == "cross-density"
        assert (
            audit_cut_cases(net, params, {0, 1, 2, 3, 4}, {0}).case
            == "large-source-side"
        )
        assert audit_cut_cases(net, params, {0}, {1, 2}).case == "trivial"

    def test_min_cut_consistency_on_saturating_network(self):
        # when max flow reaches d*n every cut must have capacity >= d*n
        net = self._k5_net()
        params = RegularizeParams(c0=0.8, eps0=0.2)
        assert max_flow(net).value == 10
        rng = random.Random(0)
        for _ in range(200):
            s = {v for v in range(5) if rng.random() < 0.5}
            t = {v for v in range(5) if rng.random() < 0.5}
            assert audit_cut_cases(net, params, s, t).capacity >= 10
