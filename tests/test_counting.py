import math

import pytest

from hamdeck.counting import (
    bregman_log_bound,
    connected_regular_graphs,
    count_decompositions_exact,
    count_decompositions_ordered,
    count_hamilton_cycles_exact,
    count_report,
    decomposition_log_lower,
    decomposition_log_upper,
    decomposition_log_upper_asymptotic,
    enumerate_decompositions,
    enumerate_hamilton_cycles,
)
from hamdeck.errors import InputError
from hamdeck.graphs import build_graph, complete_graph, cycle_graph
from hamdeck.walecki import Decomposition, cycle_edges, verify_decomposition


class TestHamiltonCounts:
    def test_k5(self):
        assert count_hamilton_cycles_exact(complete_graph(5)) == 12

    def test_k7(self):
        assert count_hamilton_cycles_exact(complete_graph(7)) == 360

    @pytest.mark.parametrize("n", [4, 5, 6, 8])
    def test_complete_graph_formula(self, n):
        assert count_hamilton_cycles_exact(complete_graph(n)) == math.factorial(
            n - 1
        ) // 2

    def test_cycle_graph(self):
        assert count_hamilton_cycles_exact(cycle_graph(6)) == 1

    def test_disconnected(self):
        g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert count_hamilton_cycles_exact(g) == 0

    def test_enumeration_is_deduplicated(self):
        cycles = enumerate_hamilton_cycles(complete_graph(5))
        assert len(cycles) == 12
        assert len({frozenset(cycle_edges(c)) for c in cycles}) == 12

    def test_cap(self):
        with pytest.raises(InputError):
            count_hamilton_cycles_exact(complete_graph(17))


class TestDecompositionCounts:
    def test_k5_is_six(self):
        assert count_decompositions_exact(complete_graph(5)) == 6

    def test_k5_by_complement_pairing(self):
        # second method: every Hamilton cycle of K5 pairs with its
        # complementary cycle, giving 12 / 2 = 6 unordered decompositions
        g = complete_graph(5)
        cycles = enumerate_hamilton_cycles(g)
        pairs = set()
        for cyc in cycles:
            rest = g.edges - cycle_edges(cyc)
            complement = build_graph(5, rest)
            assert count_hamilton_cycles_exact(complement) == 1
            pairs.add(frozenset({frozenset(cycle_edges(cyc)), frozenset(rest)}))
        assert len(pairs) == 6

    def test_c7_single(self):
        assert count_decompositions_exact(cycle_graph(7)) == 1

    def test_k7_two_methods_agree(self):
        unordered = count_decompositions_exact(complete_graph(7))
        ordered = count_decompositions_ordered(complete_graph(7))
        assert ordered == unordered * math.factorial(3)
        assert ordered % 6 == 0

    def test_odd_degree_rejected(self):
        with pytest.raises(InputError):
            count_decompositions_exact(complete_graph(4))

    def test_edge_cap(self):
        with pytest.raises(InputError):
            count_decompositions_exact(complete_graph(11), max_edges=36)

    def test_enumeration_matches_count(self):
        g = complete_graph(5)
        decos = enumerate_decompositions(g)
        assert len(decos) == count_decompositions_exact(g)
        assert len({tuple(sorted(d)) for d in decos}) == len(decos)
        for d in decos:
            assert verify_decomposition(g, Decomposition.from_parts(5, d)).ok

    @pytest.mark.parametrize("n,r", [(5, 2), (6, 4), (7, 4)])
    def test_ordered_unordered_consistency(self, n, r):
        for g in connected_regular_graphs(n, r):
            unordered = count_decompositions_exact(g)
            ordered = count_decompositions_ordered(g)
            assert ordered == unordered * math.factorial(r // 2)


class TestBounds:
    def test_bregman_examples(self):
        assert bregman_log_bound(5, 4) == pytest.approx(1.25 * math.log(24))
        assert bregman_log_bound(6, 2) == pytest.approx(3 * math.log(2))
        assert bregman_log_bound(7, 6) == pytest.approx((7 / 6) * math.log(720))

    def test_bregman_dominates_actual_counts(self):
        assert math.exp(bregman_log_bound(5, 4)) >= 12
        assert math.exp(bregman_log_bound(7, 6)) >= 360
        assert math.exp(bregman_log_bound(6, 2)) >= 1

    def test_upper_finite_product(self):
        expected = 1.25 * math.log(24) + 2.5 * math.log(2)
        assert decomposition_log_upper(5, 4) == pytest.approx(expected)
        assert math.exp(decomposition_log_upper(5, 4)) >= 6

    def test_upper_two_regular(self):
        assert decomposition_log_upper(8, 2) == pytest.approx(4 * math.log(2))

    def test_upper_asymptotic(self):
        assert decomposition_log_upper_asymptotic(100, 50) == pytest.approx(
            2500 * (math.log(50) - 2)
        )

    def test_lower_formula(self):
        assert decomposition_log_lower(100, 60, 0.05) == pytest.approx(
            0.75 * 3000 * math.log(60)
        )
        assert decomposition_log_lower(5, 4, 0.05) == pytest.approx(
            0.75 * 10 * math.log(4)
        )

    def test_lower_eps_to_zero_limit(self):
        # as eps -> 0 the exponent approaches (r*n/2) * ln r
        value = decomposition_log_lower(100, 60, 1e-9)
        assert value == pytest.approx(3000 * math.log(60), rel=1e-6)

    def test_k5_bound_brackets_exact_count(self):
        assert math.log(6) <= decomposition_log_upper(5, 4)

    def test_validation(self):
        with pytest.raises(InputError):
            bregman_log_bound(5, 5)
        with pytest.raises(InputError):
            decomposition_log_upper(5, 3)
        with pytest.raises(InputError):
            decomposition_log_lower(5, 4, 0.2)


class TestCorpus:
    def test_known_class_counts(self):
        assert len(connected_regular_graphs(6, 3)) == 2
        assert len(connected_regular_graphs(7, 4)) == 2
        assert len(connected_regular_graphs(4, 2)) == 1

    def test_representatives_are_connected_regular_distinct(self):
        from hamdeck.counting import _isomorphic
        from hamdeck.graphs import connected_over

        reps = connected_regular_graphs(6, 3)
        for g in reps:
            assert g.regular_degree() == 3
            assert connected_over(g.adj_bits, (1 << g.n) - 1)
        assert not _isomorphic(reps[0], reps[1])

    def test_bregman_holds_on_small_corpus(self):
        for n in range(3, 8):
            for r in range(2, n):
                for g in connected_regular_graphs(n, r):
                    count = count_hamilton_cycles_exact(g)
                    assert count <= math.exp(bregman_log_bound(n, r)) + 1e-9


class TestCountReport:
    def test_exact_report_serializes_big_ints_as_strings(self):
        report = count_report(complete_graph(5), exact=True)
        data = report.to_json_dict()
        assert data["exact_count"] == "6"
        assert data["log_upper"] == pytest.approx(5.7054, abs=1e-3)

    def test_without_exact(self):
        report = count_report(complete_graph(9))
        assert report.exact_count is None
        assert report.log_lower is not None

    def test_irregular_rejected(self):
        g = build_graph(4, [(0, 1), (1, 2)])
        with pytest.raises(InputError):
            count_report(g)
