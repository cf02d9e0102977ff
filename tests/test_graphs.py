import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamdeck.errors import InputError
from hamdeck.graphs import (
    build_graph,
    check_alpha_beta_regular,
    complete_graph,
    connected_over,
    cycle_graph,
    edges_between,
    empty_graph,
    format_edge_list,
    is_robust_expander,
    iter_bits,
    parse_edge_list,
    robust_neighborhood,
    strip_cycle,
)
from hamdeck.util import ceil_frac

from conftest import small_graphs, two_disjoint_k4


def brute_edges_between(g, a, b):
    # independent recount straight from the definition
    count = 0
    for u, v in itertools.combinations(range(g.n), 2):
        if g.has_edge(u, v) and ((u in a and v in b) or (v in a and u in b)):
            count += 1
    return count


class TestBuildGraph:
    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.degrees() == [2, 2, 2]

    def test_loop_rejected(self):
        with pytest.raises(InputError):
            build_graph(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            build_graph(3, [(0, 3)])

    def test_k5(self):
        g = complete_graph(5)
        assert g.regular_degree() == 4
        assert g.edge_count == 10

    def test_deduplicates(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1


class TestEdgeAlgebra:
    def test_k5_minus_hamilton_cycle(self):
        g = complete_graph(5)
        cyc = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
        assert g.subtract(cyc).regular_degree() == 2

    def test_union_duplicate_rejected(self):
        g = cycle_graph(3)
        with pytest.raises(InputError, match=r"\(0, 1\)"):
            g.union({(0, 1)})

    def test_subtract_missing_rejected(self):
        g = cycle_graph(5)
        with pytest.raises(InputError):
            g.subtract({(0, 2)})

    def test_subtract_all(self):
        g = cycle_graph(5)
        assert g.subtract(g.edges).edge_count == 0

    @given(small_graphs(min_n=3))
    def test_subtract_then_union_is_identity(self, g):
        if not g.edges:
            return
        some = frozenset(sorted(g.edges)[: len(g.edges) // 2 + 1])
        assert g.subtract(some).union(some) == g


class TestEdgesBetween:
    def test_k5_disjoint_sets(self):
        assert edges_between(complete_graph(5), {0, 1}, {2, 3, 4}) == 6

    def test_k5_overlapping_sets(self):
        # brute-force count over the 10 edges of K5: the inside edge {1,2}
        # counts once, giving 6
        g = complete_graph(5)
        a, b = {0, 1, 2}, {1, 2, 3}
        assert brute_edges_between(g, a, b) == 6
        assert edges_between(g, a, b) == 6

    def test_no_loops_means_no_self_pair_edges(self):
        assert edges_between(cycle_graph(3), {0}, {0}) == 0

    @given(small_graphs(), st.data())
    def test_symmetry(self, g, data):
        a = data.draw(st.sets(st.integers(0, g.n - 1)))
        b = data.draw(st.sets(st.integers(0, g.n - 1)))
        assert edges_between(g, a, b) == edges_between(g, b, a)
        assert edges_between(g, a, b) == brute_edges_between(g, a, b)

    @given(small_graphs(min_n=4), st.data())
    def test_disjoint_sum_of_neighbor_counts(self, g, data):
        verts = list(range(g.n))
        a = data.draw(st.sets(st.sampled_from(verts), max_size=g.n // 2))
        b = data.draw(
            st.sets(st.sampled_from([v for v in verts if v not in a]))
        )
        expected = sum(len(set(g.neighbors(v)) & b) for v in a)
        assert edges_between(g, a, b) == expected


class TestRobustNeighborhood:
    def test_c4_single_source(self):
        assert robust_neighborhood(cycle_graph(4), {0}, 0.25) == {1, 3}

    def test_k5_two_sources(self):
        assert robust_neighborhood(complete_graph(5), {0, 1}, 0.2) == set(range(5))

    def test_k5_threshold_too_high(self):
        assert robust_neighborhood(complete_graph(5), {0}, 0.5) == frozenset()

    @given(small_graphs(min_n=3), st.data())
    def test_monotone_in_source_set(self, g, data):
        small = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n - 1))
        extra = data.draw(st.sets(st.integers(0, g.n - 1)))
        nu = data.draw(st.sampled_from([0.1, 0.2, 0.3]))
        rn_small = robust_neighborhood(g, small, nu)
        rn_big = robust_neighborhood(g, small | extra, nu)
        assert rn_small <= rn_big


class TestRobustExpander:
    def test_k8_holds_exact(self):
        verdict = is_robust_expander(complete_graph(8), 0.1, 0.25, "exact")
        assert verdict.holds and verdict.mode == "exact"

    def test_empty_graph_fails_with_witness(self):
        verdict = is_robust_expander(empty_graph(8), 0.1, 0.25, "exact")
        assert not verdict.holds
        assert len(verdict.witness) == 2

    def test_two_k4_fails_and_witness_rechecks(self):
        g = two_disjoint_k4()
        verdict = is_robust_expander(g, 0.2, 0.25, "exact")
        assert not verdict.holds
        rn = robust_neighborhood(g, verdict.witness, 0.2)
        assert len(rn) < len(verdict.witness) + ceil_frac(0.2 * g.n)

    def test_one_k4_side_is_a_violation(self):
        g = two_disjoint_k4()
        side = frozenset(range(4))
        rn = robust_neighborhood(g, side, 0.2)
        assert rn == side
        assert len(rn) < len(side) + ceil_frac(0.2 * 8)

    def test_sampled_counterexample(self):
        verdict = is_robust_expander(
            two_disjoint_k4(), 0.2, 0.25, "sampled", trials=5000, seed=3
        )
        assert not verdict.holds
        rn = robust_neighborhood(two_disjoint_k4(), verdict.witness, 0.2)
        assert len(rn) < len(verdict.witness) + ceil_frac(0.2 * 8)

    def test_sampled_certification(self):
        verdict = is_robust_expander(
            complete_graph(8), 0.1, 0.25, "sampled", trials=2000, seed=3
        )
        assert verdict.holds

    def test_exact_cap(self):
        with pytest.raises(InputError):
            is_robust_expander(empty_graph(30), 0.1, 0.25, "exact")

    def test_parameter_ranges(self):
        with pytest.raises(InputError):
            is_robust_expander(complete_graph(6), 0.3, 0.2, "exact")
        with pytest.raises(InputError):
            robust_neighborhood(complete_graph(6), {0}, 0.0)
        with pytest.raises(InputError):
            is_robust_expander(complete_graph(6), 0.1, 0.2, "guess")

    def test_vacuous_range_certifies(self):
        # tau*n > (1-tau)*n leaves no admissible set
        verdict = is_robust_expander(complete_graph(3), 0.4, 0.6, "exact")
        assert verdict.holds and "vacuous" in verdict.mode

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_monotone_under_edge_addition(self, data):
        n = data.draw(st.integers(5, 10))
        pairs = list(itertools.combinations(range(n), 2))
        drop = data.draw(st.sets(st.integers(0, len(pairs) - 1), max_size=n))
        g = build_graph(n, [p for i, p in enumerate(pairs) if i not in drop])
        if not is_robust_expander(g, 0.1, 0.3, "exact").holds:
            return
        extra = data.draw(st.sets(st.sampled_from(range(len(pairs))), max_size=3))
        bigger = build_graph(
            n, list(g.edges) + [pairs[i] for i in extra if pairs[i] not in g.edges]
        )
        assert is_robust_expander(bigger, 0.1, 0.3, "exact").holds


class TestAlphaBetaRegular:
    def test_complete_graph_is_one_beta_regular(self):
        assert check_alpha_beta_regular(complete_graph(10), 1.0, 0.3, "exact").holds

    def test_empty_graph_fails_degree(self):
        verdict = check_alpha_beta_regular(empty_graph(10), 0.5, 0.3, "exact")
        assert not verdict.holds
        assert "degree" in verdict.reason

    def test_c10_fails(self):
        assert not check_alpha_beta_regular(cycle_graph(10), 0.5, 0.2, "exact").holds

    def test_sampled_mode(self):
        assert check_alpha_beta_regular(
            complete_graph(12), 1.0, 0.3, "sampled", trials=500, seed=0
        ).holds


class TestEdgeListFormat:
    def test_round_trip(self):
        g = complete_graph(5)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_parse_example(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g.edges == frozenset({(0, 1), (1, 2)})

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3\n",
            "3 1\n0 0\n",
            "3 1\n1 0\n",
            "3 2\n0 1\n0 1\n",
            "3 1\n0 3\n",
            "3 2\n0 1\n",
            "3 1\n0 x\n",
        ],
    )
    def test_rejects_bad_input(self, text):
        with pytest.raises(InputError):
            parse_edge_list(text)

    @given(small_graphs())
    def test_round_trip_property(self, g):
        assert parse_edge_list(format_edge_list(g)) == g


class TestBitsetHelpers:
    def test_iter_bits_in_increasing_order(self):
        assert list(iter_bits(0b101001)) == [0, 3, 5]
        assert list(iter_bits(0)) == []

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_connected_over_matches_list_search(self, g):
        seen, stack = {0}, [0]
        while stack:
            for w in g.adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert connected_over(g.adj_bits, (1 << g.n) - 1) == (len(seen) == g.n)

    def test_connected_over_uses_only_the_mask(self):
        # 0-1-2 is a path, but without vertex 1 its ends are apart
        g = build_graph(3, [(0, 1), (1, 2)])
        assert connected_over(g.adj_bits, 0b111)
        assert not connected_over(g.adj_bits, 0b101)
        assert connected_over(g.adj_bits, 0)

    def test_strip_cycle_removes_exactly_its_edges(self):
        rest = strip_cycle(complete_graph(5).adj_bits, (0, 1, 2, 3, 4))
        pentagram = build_graph(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
        assert rest == pentagram.adj_bits
