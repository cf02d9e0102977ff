import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamdeck.errors import BudgetError, InputError
from hamdeck.graphs import (
    SAMPLE_BLOCK,
    Graph,
    build_graph,
    complete_graph,
    connected_over,
    cycle_graph,
    decompositions,
    empty_graph,
    format_edge_list,
    is_robust_expander,
    iter_bits,
    parse_edge_list,
    strip_cycle,
)
from hamdeck.util import ceil_frac

from conftest import small_graphs, two_disjoint_k4


def robust_neighborhood(g, members, nu):
    """Vertices with at least ``nu * n`` neighbors inside the given set: the
    plain reading of the expander property that witnesses are checked by."""
    if not (0 < nu <= 1):
        raise InputError(f"nu must be in (0, 1], got {nu}")
    threshold = ceil_frac(nu * g.n)
    mask = sum(1 << v for v in set(members))
    return frozenset(
        v for v in range(g.n) if (g.adj_bits[v] & mask).bit_count() >= threshold
    )


def assert_same_graph(derived, full):
    """Equal as values, and in every view the boundary constructor builds."""
    assert derived == full
    assert derived.edges == full.edges
    assert derived.adj_bits == full.adj_bits
    assert derived.adj == full.adj
    assert derived.degrees() == [len(a) for a in full.adj]


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

    @pytest.mark.parametrize(
        "g",
        [complete_graph(5), complete_graph(5).subtract({(0, 1), (2, 4)})],
        ids=["K5", "derived"],
    )
    def test_has_edge_is_false_off_the_edge_set(self, g):
        # loops and out-of-range vertices are non-edges; a negative vertex
        # must not wrap around to the last bit row (K5's row 4 has bit 0)
        for u, v in itertools.product(range(-7, 8), repeat=2):
            assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in g.edges)
        assert not g.has_edge(-1, 0)

    @settings(max_examples=60)
    @given(
        small_graphs(min_n=3, max_n=10),
        st.lists(st.sampled_from(["subtract", "union", "union-graph"])),
        st.randoms(use_true_random=False),
    )
    def test_derived_chains_match_a_fresh_build(self, g, ops, rnd):
        pairs = list(itertools.combinations(range(g.n), 2))
        expected = set(g.edges)
        for op in ops:
            drop = {e for e in sorted(expected) if rnd.random() < 0.3}
            add = {e for e in pairs if e not in expected and rnd.random() < 0.3}
            if op == "subtract":
                g, expected = g.subtract(drop), expected - drop
            else:
                g = g.union(Graph(g.n, frozenset(add)) if op == "union-graph" else add)
                expected |= add
            assert "edges" not in g.__dict__  # decoded on first use only
        fresh = Graph(g.n, frozenset(expected))
        assert g.edges == fresh.edges
        assert g == fresh
        assert hash(g) == hash(fresh)
        assert g != Graph(g.n + 1, fresh.edges)

    @given(small_graphs(min_n=3))
    def test_subtract_then_union_is_identity(self, g):
        if not g.edges:
            return
        some = frozenset(sorted(g.edges)[: len(g.edges) // 2 + 1])
        assert g.subtract(some).union(some) == g

    def test_a_built_graph_keeps_only_its_rows(self):
        g = complete_graph(201)
        assert set(g.__dict__) == {"n", "adj_bits"}
        assert len(g.edges) == 201 * 100 and "edges" in g.__dict__

    def test_edge_sets_in_either_order_and_the_least_offender(self):
        c5 = cycle_graph(5)
        assert c5.subtract([(1, 0), (4, 3)]) == build_graph(5, [(1, 2), (2, 3), (0, 4)])
        with pytest.raises(InputError, match=r"edge \(1, 3\): not present"):
            c5.subtract([(4, 2), (0, 1), (3, 1)])
        with pytest.raises(InputError, match=r"edge \(1, 2\): already present"):
            c5.union(complete_graph(5).subtract([(0, 1), (4, 0)]))
        assert empty_graph(5).union(complete_graph(3)).edges == complete_graph(3).edges
        with pytest.raises(InputError, match="out of range"):
            empty_graph(3).union(complete_graph(5))

    def test_union_out_of_range_rejected(self):
        with pytest.raises(InputError, match="out of range"):
            cycle_graph(3).union({(1, 3)})
        with pytest.raises(InputError, match="loop"):
            empty_graph(3).union({(2, 2)})

    def test_union_of_graphs_ors_the_bit_rows(self):
        pentagram = build_graph(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
        assert_same_graph(cycle_graph(5).union(pentagram), complete_graph(5))

    @given(small_graphs(min_n=3))
    def test_derived_graphs_match_a_full_build(self, g):
        half = frozenset(sorted(g.edges)[::2])
        complement = frozenset(itertools.combinations(range(g.n), 2)) - g.edges
        assert_same_graph(g.subtract(half), Graph(g.n, g.edges - half))
        assert_same_graph(g.union(complement), complete_graph(g.n))

    @pytest.mark.parametrize(
        "g, removed",
        [
            (complete_graph(40), {(i, i + 1) for i in range(39)}),
            (cycle_graph(300), {(0, 1), (7, 8), (0, 299)}),
        ],
    )
    def test_neighbour_lists_decoded_from_bits(self, g, removed):
        derived = g.subtract(removed)
        assert "adj" not in derived.__dict__  # decoded on first use only
        assert_same_graph(derived, Graph(g.n, derived.edges))


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

    def test_sampled_draws_are_pinned(self):
        # two disjoint K10: no set of the first block is a counterexample,
        # and the first one drawn after it is this set.  A block draws all
        # its sizes before its orders, so the sets depend on the block size.
        halves = [range(10), range(10, 20)]
        g = build_graph(20, [p for h in halves for p in itertools.combinations(h, 2)])
        assert SAMPLE_BLOCK == 4096
        first = is_robust_expander(g, 0.1, 0.2, "sampled", trials=4096, seed=0)
        assert first.holds
        later = is_robust_expander(g, 0.1, 0.2, "sampled", trials=30_000, seed=0)
        assert later.witness == frozenset({5, 10, 11, 13, 14, 15, 16, 17, 19})

    @pytest.mark.parametrize("n", [30, 3], ids=["admissible-sets", "vacuous"])
    def test_sampled_mode_needs_a_trial(self, n):
        # zero trials would certify without checking a single set; on the
        # 30-vertex graph 100 trials find a witness
        g = build_graph(n, [(0, 1), (1, 2)])
        with pytest.raises(InputError, match="trials >= 1"):
            is_robust_expander(g, 0.1, 0.45, "sampled", trials=0)

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

    def test_exact_mode_honours_the_deadline(self):
        with pytest.raises(BudgetError):
            is_robust_expander(
                complete_graph(8), 0.1, 0.25, "exact", deadline=time.monotonic() - 1
            )

    def test_sampled_mode_honours_the_deadline(self):
        with pytest.raises(BudgetError, match="sampled expander"):
            is_robust_expander(
                complete_graph(12), 0.1, 0.25, "sampled", deadline=time.monotonic() - 1
            )

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

    def test_repeated_edges_in_a_list_count_once(self):
        g = Graph(3, [(0, 1), (0, 1), (1, 2)])
        assert g.edge_count == sum(g.degrees()) // 2 == 2
        assert parse_edge_list(format_edge_list(g)) == g

    def test_rejects_huge_header_before_building(self):
        with pytest.raises(InputError, match="exceeds the limit"):
            parse_edge_list("1000000000000 0\n")

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


class TestDecompositions:
    @staticmethod
    def spy():
        calls = []

        def cycles_of(bits):
            calls.append(bits)
            return iter(())

        return calls, cycles_of

    def test_disconnected_level_is_rejected_before_any_search(self):
        k5 = complete_graph(5).adj_bits
        rows = k5 + tuple(row << 5 for row in k5)  # two disjoint K5
        calls, cycles_of = self.spy()
        assert list(decompositions(rows, 10, cycles_of)) == []
        assert calls == []

    def test_two_regular_level_yields_its_walk_unsearched(self):
        g = build_graph(6, [(0, 3), (3, 1), (1, 5), (5, 2), (2, 4), (4, 0)])
        calls, cycles_of = self.spy()
        assert list(decompositions(g.adj_bits, 6, cycles_of)) == [
            ((0, 3, 1, 5, 2, 4),)
        ]
        assert calls == []
