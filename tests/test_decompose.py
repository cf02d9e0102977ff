import itertools
import random

import pytest

from hamdeck.counting import (
    connected_regular_graphs,
    count_decompositions_exact,
    enumerate_hamilton_cycles,
)
from hamdeck.decompose import (
    _Budget,
    _hamilton_cycles_pruned,
    _plan_steps,
    complete_residual,
    decompose_odd,
    decompose_pipeline,
    find_perfect_matching,
    run_pipeline,
)
from hamdeck.errors import BudgetError, InfeasibleError, InputError
from hamdeck.graphs import build_graph, complete_graph, cycle_graph
from hamdeck.walecki import canonical_cycle, cycle_edges, verify_decomposition

from conftest import petersen


def two_cycle_union(n: int, seed: int):
    """Union of two edge-disjoint random Hamilton cycles: 4-regular and
    decomposable by construction, like the pipeline's last residual levels."""
    rng = random.Random(seed)
    first = list(range(n))
    rng.shuffle(first)
    edges = cycle_edges(first)
    while True:
        second = list(range(n))
        rng.shuffle(second)
        if not edges & cycle_edges(second):
            return build_graph(n, edges | cycle_edges(second))


def pruned_cycles(g):
    """Canonical Hamilton cycles from the completer's pruned DFS."""
    budget = _Budget(10**9, None)
    cycles = _hamilton_cycles_pruned(g.adj_bits, g.n, budget, random.Random(0))
    return {canonical_cycle(c) for c in cycles}


def even_corpus():
    """Connected even-regular corpus graphs with n <= 8 and <= 16 edges."""
    return [
        g
        for n in range(3, 9)
        for r in range(2, n, 2)
        if n * r // 2 <= 16
        for g in connected_regular_graphs(n, r)
    ]


def odd_corpus():
    """Connected odd-regular corpus graphs with n <= 7 (so n is even)."""
    return [
        g for n in range(2, 8, 2) for r in range(1, n, 2)
        for g in connected_regular_graphs(n, r)
    ]


class TestCompleteResidual:
    def test_k5_decomposes_into_two_cycles(self):
        deco = complete_residual(complete_graph(5))
        assert deco.cycle_count == 2
        assert verify_decomposition(complete_graph(5), deco).ok

    def test_c7_is_its_own_decomposition(self):
        deco = complete_residual(cycle_graph(7))
        assert deco.cycles == ((0, 1, 2, 3, 4, 5, 6),)

    def test_two_disjoint_triangles_infeasible(self):
        g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(InfeasibleError):
            complete_residual(g)

    def test_odd_degree_rejected(self):
        with pytest.raises(InputError):
            complete_residual(complete_graph(4))

    def test_irregular_rejected(self):
        with pytest.raises(InputError):
            complete_residual(build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]))

    def test_empty_graph_gives_empty_decomposition(self):
        deco = complete_residual(build_graph(4, []))
        assert deco.cycle_count == 0

    def test_budget_error_is_distinct(self):
        with pytest.raises(BudgetError):
            complete_residual(complete_graph(9), node_budget=5)

    @pytest.mark.parametrize("seed", range(8))
    def test_degree_four_union_completes_within_small_budget(self, seed):
        # degree 4 is the completer's tail: most Hamilton cycles leave a
        # disconnected complement, so the heuristic tries several per level
        g = two_cycle_union(101, seed)
        deco = complete_residual(g, node_budget=20_000)
        assert deco.cycle_count == 2
        assert verify_decomposition(g, deco).ok

    def test_same_seed_same_decomposition(self):
        g = two_cycle_union(101, 0)
        assert complete_residual(g, seed=3) == complete_residual(g, seed=3)

    def test_enumeration_survives_long_cycles(self):
        # the DFS depth is n; a recursive search overflows Python's stack
        assert len(pruned_cycles(cycle_graph(1500))) == 1

    def test_pruned_cycles_match_reference_across_corpus(self):
        # the pruned, rng-ordered DFS must list exactly the cycles of the
        # plain reference DFS, on every small graph and on every graph left
        # after peeling one Hamilton cycle off it
        for g in even_corpus():
            reference = enumerate_hamilton_cycles(g)
            assert pruned_cycles(g) == set(reference), sorted(g.edges)
            for cyc in reference:
                rest = g.subtract(cycle_edges(cyc))
                assert pruned_cycles(rest) == set(enumerate_hamilton_cycles(rest))

    def test_verdicts_match_counts_across_corpus(self):
        # a decomposition exactly when one exists, InfeasibleError otherwise
        for g in even_corpus():
            if count_decompositions_exact(g) > 0:
                assert verify_decomposition(g, complete_residual(g)).ok
            else:
                with pytest.raises(InfeasibleError):
                    complete_residual(g)


class TestPerfectMatching:
    def test_k6_matching(self):
        m = find_perfect_matching(complete_graph(6))
        assert len(m) == 3
        assert len({v for e in m for v in e}) == 6

    def test_odd_n_infeasible(self):
        with pytest.raises(InfeasibleError):
            find_perfect_matching(complete_graph(5))

    def test_star_infeasible(self):
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(InfeasibleError):
            find_perfect_matching(star)

    def test_deep_search_on_c2000(self):
        # one search level per matched pair; a recursive search overflows
        m = find_perfect_matching(cycle_graph(2000))
        assert m == tuple((2 * i, 2 * i + 1) for i in range(1000))


class TestPlanSteps:
    def test_default_step_count_rounded(self):
        # core degree 12, eps*r = 1: (12-1)/2 = 5.5 rounds to 4 to keep the
        # working core at degree >= 4
        assert _plan_steps(12, 0.05, 20, None) == 4

    def test_zero_when_core_is_thin(self):
        assert _plan_steps(4, 0.05, 8, None) == 0

    def test_override_caps(self):
        assert _plan_steps(26, 0.05, 50, 3) == 3


class TestPipeline:
    def test_k9_full_decomposition(self):
        g = complete_graph(9)
        deco = decompose_pipeline(g, seed=0)
        assert deco.cycle_count == 4
        assert verify_decomposition(g, deco).ok

    def test_k21_run_reports_stages(self):
        g = complete_graph(21)
        run = run_pipeline(g, seed=0)
        assert run.rotation_cycles + run.completed_cycles == 10
        assert verify_decomposition(g, run.decomposition).ok
        assert run.partition_stats["core_degree"] % 2 == 0

    def test_odd_degree_rejected(self):
        with pytest.raises(InputError):
            decompose_pipeline(petersen(), seed=0)

    def test_small_n_rejected(self):
        with pytest.raises(InputError):
            decompose_pipeline(cycle_graph(4), seed=0)

    def test_max_steps_override(self):
        from hamdeck.partition import default_params

        g = complete_graph(21)
        run = run_pipeline(g, default_params(g, seed=0, max_steps=1))
        assert run.rotation_cycles <= 1
        assert verify_decomposition(g, run.decomposition).ok

    def test_deterministic(self):
        g = complete_graph(9)
        assert decompose_pipeline(g, seed=5) == decompose_pipeline(g, seed=5)

    def test_cocktail_party_graph(self):
        # K20 minus a perfect matching: 18-regular, decomposable
        g = complete_graph(20).subtract({(2 * i, 2 * i + 1) for i in range(10)})
        run = run_pipeline(g, seed=0)
        assert run.decomposition.cycle_count == 9
        assert verify_decomposition(g, run.decomposition).ok

    def test_complete_graph_minus_hamilton_cycles(self):
        # peeling two known cycles off K21 leaves a 16-regular graph that
        # still decomposes (the remaining construction cycles certify it)
        from hamdeck.walecki import cycle_edges, walecki_decomposition

        deco = walecki_decomposition(21)
        removed = cycle_edges(deco.cycles[0]) | cycle_edges(deco.cycles[1])
        g = complete_graph(21).subtract(removed)
        run = run_pipeline(g, seed=1)
        assert run.decomposition.cycle_count == 8
        assert verify_decomposition(g, run.decomposition).ok


class TestDecomposeOdd:
    def test_k6(self):
        g = complete_graph(6)
        deco = decompose_odd(g, seed=0)
        assert deco.cycle_count == 2
        assert deco.matching is not None and len(deco.matching) == 3
        assert verify_decomposition(g, deco).ok

    def test_k12(self):
        g = complete_graph(12)
        deco = decompose_odd(g, seed=0)
        assert deco.cycle_count == 5
        assert verify_decomposition(g, deco).ok

    def test_k12_with_params_from_the_odd_graph(self):
        # params derived from the 11-regular input must still fit the
        # 10-regular remainder
        from hamdeck.partition import default_params

        g = complete_graph(12)
        deco = decompose_odd(g, default_params(g, seed=0), seed=0)
        assert deco.cycle_count == 5
        assert verify_decomposition(g, deco).ok

    def test_even_degree_rejected(self):
        with pytest.raises(InputError):
            decompose_odd(complete_graph(7), seed=0)

    def test_k2_degenerate(self):
        g = complete_graph(2)
        deco = decompose_odd(g, seed=0)
        assert deco.cycle_count == 0
        assert deco.matching == ((0, 1),)
        assert verify_decomposition(g, deco).ok

    def test_prism_tries_every_matching(self):
        # the first matching found is the three rungs, whose remainder is two
        # triangles; each other matching leaves a Hamilton cycle
        g = build_graph(
            6, [(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5), (0, 1), (2, 3), (4, 5)]
        )
        assert find_perfect_matching(g) == ((0, 1), (2, 3), (4, 5))
        deco = decompose_odd(g, seed=0)
        assert deco.cycle_count == 1
        assert verify_decomposition(g, deco).ok

    def test_verdicts_match_matching_oracle_across_corpus(self):
        # exhaustive oracle: some perfect matching, found here by brute force
        # over edge subsets, leaves a remainder with a decomposition
        for g in odd_corpus():
            matchings = [
                m
                for m in itertools.combinations(sorted(g.edges), g.n // 2)
                if len({v for e in m for v in e}) == g.n
            ]
            if any(count_decompositions_exact(g.subtract(m)) > 0 for m in matchings):
                assert verify_decomposition(g, decompose_odd(g, seed=0)).ok
            else:
                with pytest.raises(InfeasibleError):
                    decompose_odd(g, seed=0)

    def test_petersen_infeasible_by_budget_or_proof(self):
        # 3-regular with a perfect matching, but the 2-factor left over is
        # two 5-cycles, never a Hamilton cycle
        with pytest.raises((InfeasibleError, BudgetError)):
            decompose_odd(petersen(), seed=0)
