import itertools
import random
import time

import pytest

from hamdeck import decompose, graphs
from hamdeck.counting import (
    connected_regular_graphs,
    count_decompositions_exact,
    enumerate_hamilton_cycles,
)
from hamdeck.decompose import (
    _Budget,
    _hamilton_cycles_pruned,
    _plan_steps,
    _rotation_first_cycle,
    complete_residual,
    decompose_odd,
    decompose_pipeline,
    find_perfect_matching,
    run_pipeline,
)
from hamdeck.errors import BudgetError, InfeasibleError, InputError
from hamdeck.graphs import Graph, build_graph, complete_graph, cycle_graph, iter_bits
from hamdeck.walecki import canonical_cycle, cycle_edges, verify_decomposition

from conftest import paley, petersen


def two_disjoint_cliques(k: int):
    return complete_graph(2 * k).subtract(
        {(u, v) for u in range(k) for v in range(k, 2 * k)}
    )


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


def scan_rotation_first_cycle(adj_bits, n, rng):
    """The rotation heuristic with its pivots found by scanning the whole
    path, as a reference for the position-array lookup."""
    start = rng.randrange(n)
    path, visited, full = [start], 1 << start, (1 << n) - 1
    for _ in range(8 * n * n):
        tip = path[-1]
        free = adj_bits[tip] & ~visited
        if free:
            choices = list(iter_bits(free))
            w = choices[rng.randrange(len(choices))]
            path.append(w)
            visited |= 1 << w
            continue
        if visited == full and adj_bits[tip] & (1 << path[0]):
            return tuple(path)
        pivots = [i for i in range(len(path) - 2) if adj_bits[tip] >> path[i] & 1]
        if not pivots:
            return None
        i = pivots[rng.randrange(len(pivots))]
        path[i + 1 :] = path[i + 1 :][::-1]
    return None


def pruned_cycles(g):
    """Canonical Hamilton cycles from the completer's pruned DFS."""
    budget = _Budget(10**9, None)
    cycles = _hamilton_cycles_pruned(g.adj_bits, g.n, budget, random.Random(0))
    return {canonical_cycle(c) for c in cycles}


def even_corpus():
    """Connected even-regular corpus graphs with n <= 8 and <= 16 edges, the
    4-regular graphs on 9 vertices and the 6-regular graphs on 8 and 9."""
    return [
        g
        for n in range(3, 9)
        for r in range(2, n, 2)
        if n * r // 2 <= 16
        for g in connected_regular_graphs(n, r)
    ] + [g for n, r in ((9, 4), (8, 6), (9, 6)) for g in connected_regular_graphs(n, r)]


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

    def test_expired_deadline_starts_no_slice(self):
        # a deadline that has passed is not a node quota: no slice may start,
        # and the error names the wall-clock budget
        with pytest.raises(BudgetError, match="wall-clock budget"):
            complete_residual(complete_graph(101), deadline=time.monotonic() - 1)

    def test_disconnected_rejected_before_search(self):
        # a zero node budget stops any search at once, so only the
        # connectivity check can give this verdict
        with pytest.raises(InfeasibleError):
            complete_residual(two_disjoint_cliques(5), node_budget=0)

    @pytest.mark.parametrize("seed", range(48))
    def test_degree_four_union_completes_within_small_budget(self, seed):
        # degree 4 is the completer's tail: most Hamilton cycles leave a
        # disconnected complement, so the heuristic tries several per level
        g = two_cycle_union(101, seed)
        deco = complete_residual(g, node_budget=20_000)
        assert deco.cycle_count == 2
        assert verify_decomposition(g, deco).ok

    def test_degree_four_levels_take_few_rotation_steps(self, monkeypatch):
        # the pipeline's last heuristic level: most of its cycles leave a
        # disconnected complement, so it tries several; rebuilding each try
        # from one vertex took 41,958 steps here, walking on from the last
        # cycle takes about 10,000
        real, steps = decompose._rotation_first_cycle, []

        def counting(adj_bits, n, budget, *rest):
            before = budget.nodes
            cyc = real(adj_bits, n, budget, *rest)
            if adj_bits[0].bit_count() == 4:
                steps.append(budget.nodes - before)
            return cyc

        monkeypatch.setattr(decompose, "_rotation_first_cycle", counting)
        for g in (complete_graph(201), paley(197)):
            for seed in range(5):
                run_pipeline(g, seed=seed)
        assert sum(steps) <= 16_000, (len(steps), sum(steps))

    @pytest.mark.parametrize("seed", range(3))
    def test_walk_never_closes_into_a_tried_cycle(self, seed):
        # with every Hamilton cycle tried, a walk from one of them can only
        # stall, start afresh and stall again, well inside its step cap;
        # with one cycle left untried, it returns that cycle or nothing
        rng = random.Random(seed)
        for g in connected_regular_graphs(9, 4):
            cycles = set(enumerate_hamilton_cycles(g))
            if len(cycles) < 2:
                continue
            budget = _Budget(10**9, None)
            last = min(cycles)
            assert _rotation_first_cycle(g.adj_bits, 9, budget, rng, last, cycles) is None
            assert budget.nodes < 8 * 9 * 9
            for keep in rng.sample(sorted(cycles), 3):
                got = _rotation_first_cycle(
                    g.adj_bits, 9, budget, rng, last, cycles - {keep}
                )
                assert got is None or canonical_cycle(got) == keep

    @pytest.mark.parametrize("seed", range(4))
    def test_rotation_heuristic_picks_the_scanned_pivots(self, seed):
        # same pivots in the same order, so the same rng draws and cycles
        g = two_cycle_union(60, seed)
        for draw in range(5):
            got = _rotation_first_cycle(
                g.adj_bits, g.n, _Budget(10**9, None), random.Random(draw)
            )
            want = scan_rotation_first_cycle(g.adj_bits, g.n, random.Random(draw))
            assert got == want

    def test_same_seed_same_decomposition(self):
        g = two_cycle_union(101, 0)
        assert complete_residual(g, seed=3) == complete_residual(g, seed=3)

    def test_enumeration_survives_long_cycles(self):
        # the DFS depth is n; a recursive search overflows Python's stack
        assert len(pruned_cycles(cycle_graph(1500))) == 1

    def test_pruned_cycles_match_reference_across_corpus(self):
        # the pruned, rng-ordered DFS must list exactly the cycles of the
        # plain reference DFS, on every small graph and on every graph left
        # after peeling one Hamilton cycle off it; a 6-regular graph has
        # about 1,500 cycles to peel, which would take some 20 s, so only
        # the graphs of degree <= 4 are peeled
        for g in even_corpus():
            reference = enumerate_hamilton_cycles(g)
            assert pruned_cycles(g) == set(reference), sorted(g.edges)
            if g.regular_degree() > 4:
                continue
            for cyc in reference:
                rest = g.subtract(cycle_edges(cyc))
                assert pruned_cycles(rest) == set(enumerate_hamilton_cycles(rest))

    def test_cut_vertex_graph_is_proven_infeasible(self):
        # two copies of K5 minus an edge, each missing edge's ends joined to
        # one cut vertex: 4-regular and connected, but a Hamilton cycle would
        # pass the cut vertex twice, so the search tree runs out
        halves = [range(5), range(5, 10)]
        pairs = [p for h in halves for p in itertools.combinations(h, 2)]
        pairs = [p for p in pairs if p not in {(0, 1), (5, 6)}]
        g = build_graph(11, pairs + [(10, v) for v in (0, 1, 5, 6)])
        assert g.regular_degree() == 4 and count_decompositions_exact(g) == 0
        with pytest.raises(InfeasibleError, match="no Hamiltonian decomposition"):
            complete_residual(g)

    def test_exhaustive_search_alone_decomposes(self, monkeypatch):
        # with no heuristic tries every level's cycles come from the DFS
        monkeypatch.setattr(decompose, "HEURISTIC_TRIES", 0)
        graphs_ = [complete_graph(n) for n in (7, 9, 11)] + even_corpus()
        for g in graphs_:
            deco = complete_residual(g)
            assert verify_decomposition(g, deco).ok, sorted(g.edges)

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

    def test_disconnected_input_rejected_before_partition(self, monkeypatch):
        def no_partition(*args):
            raise AssertionError("tri_partition ran on a disconnected input")

        monkeypatch.setattr(decompose, "tri_partition", no_partition)
        with pytest.raises(InfeasibleError, match="disconnected"):
            run_pipeline(two_disjoint_cliques(11), seed=0)

    def test_k201_builds_few_validated_graphs(self, monkeypatch):
        # the rotation steps derive their working graphs from bit deltas;
        # only the edges of the rotation cycles are checked, in one subtract
        g = complete_graph(201)
        builds = []
        check = graphs._edge_rows

        def counting_check(n, pairs):
            builds.append(n)
            return check(n, pairs)

        monkeypatch.setattr(graphs, "_edge_rows", counting_check)
        run = run_pipeline(g, seed=0)
        assert run.rotation_cycles > 50
        assert len(builds) <= 10

    @pytest.mark.parametrize(
        "g, min_cycles",
        [(complete_graph(201), 50), (paley(197), 20)],
        ids=["K201", "P197"],
    )
    def test_pipeline_decodes_nothing(self, g, min_cycles, monkeypatch):
        # every stage and self-check reads bit rows: no neighbour list or
        # edge set is decoded
        decodes = []
        real = graphs._decode_adj
        monkeypatch.setattr(
            graphs, "_decode_adj", lambda *args: decodes.append(1) or real(*args)
        )
        run = run_pipeline(g, seed=0)
        assert run.rotation_cycles > min_cycles
        assert decodes == []

    def test_infeasible_completion_after_rotation_retries(self, monkeypatch):
        # with rotation cycles removed, an infeasible residual proves nothing
        # about the input: the next attempt starts over with a fresh seed
        real, calls = decompose.complete_residual, []

        def infeasible_once(g, **kwargs):
            calls.append(g.n)
            if len(calls) == 1:
                raise InfeasibleError("no Hamiltonian decomposition exists")
            return real(g, **kwargs)

        monkeypatch.setattr(decompose, "complete_residual", infeasible_once)
        g = complete_graph(51)
        run = run_pipeline(g, seed=0)
        assert run.attempts == 2 and run.rotation_cycles > 0
        assert verify_decomposition(g, run.decomposition).ok

    def test_failure_on_every_attempt_is_a_budget_error(self, monkeypatch):
        def out_of_budget(g, **kwargs):
            raise BudgetError("completion search spent 0 nodes without a decision")

        monkeypatch.setattr(decompose, "complete_residual", out_of_budget)
        with pytest.raises(BudgetError, match="pipeline failed after 3 attempts"):
            run_pipeline(complete_graph(51), seed=0)

    def test_failed_step_leaves_a_larger_residual(self, monkeypatch):
        g = complete_graph(51)
        full = run_pipeline(g, seed=0)
        real, steps = decompose.extract_hamilton_step, []

        def fail_second_step(*args):
            steps.append(1)
            if len(steps) == 2:
                raise BudgetError("hamilton step failed after 16 restarts")
            return real(*args)

        monkeypatch.setattr(decompose, "extract_hamilton_step", fail_second_step)
        run = run_pipeline(g, seed=0)
        assert run.rotation_cycles == 1 < full.rotation_cycles
        assert run.completed_cycles == 25 - 1 > full.completed_cycles
        assert run.attempts == 1
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

    def test_k2_logs_no_warning(self, caplog):
        # the oracle workload decomposes K2 hundreds of times per run
        with caplog.at_level("DEBUG", logger="hamdeck"):
            decompose_odd(complete_graph(2), seed=0)
        assert [r for r in caplog.records if r.levelname == "WARNING"] == []
        assert any("degenerate n=2" in r.getMessage() for r in caplog.records)

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

    def test_all_connected_cubic_graphs_on_eight_vertices(self):
        # n = 8 reaches the pipeline, where tri-partition fails and the first
        # matching's remainder can be infeasible; another matching must be tried
        graphs = connected_regular_graphs(8, 3)
        assert len(graphs) == 5
        for g in graphs:
            assert verify_decomposition(g, decompose_odd(g, seed=0)).ok

    def test_two_disjoint_k10_rejected_at_once(self):
        # 9-regular on 20 vertices: each of the ~893k perfect matchings would
        # otherwise cost a failed pipeline run
        start = time.perf_counter()
        with pytest.raises(InfeasibleError):
            decompose_odd(two_disjoint_cliques(10), seed=0)
        assert time.perf_counter() - start < 1.0

    def test_disjoint_edges_decompose_as_a_matching(self):
        g = build_graph(6, [(0, 1), (2, 3), (4, 5)])
        deco = decompose_odd(g, seed=0)
        assert deco.cycle_count == 0
        assert deco.matching == ((0, 1), (2, 3), (4, 5))
        assert verify_decomposition(g, deco).ok

    @pytest.mark.parametrize("n", [6, 22], ids=["exact", "pipeline"])
    def test_a_matching_that_repeats_an_edge_is_an_internal_fault(self, n, monkeypatch):
        # the remainder is subtracted once per edge, so it still decomposes;
        # only the final check sees that the matching is not perfect
        real = decompose._perfect_matchings
        monkeypatch.setattr(
            decompose, "_perfect_matchings", lambda g: (m + m[:1] for m in real(g))
        )
        with pytest.raises(AssertionError, match="odd-degree output invalid"):
            decompose_odd(complete_graph(n), seed=0)

    def test_petersen_infeasible_by_budget_or_proof(self):
        # 3-regular with a perfect matching, but the 2-factor left over is
        # two 5-cycles, never a Hamilton cycle
        with pytest.raises((InfeasibleError, BudgetError)):
            decompose_odd(petersen(), seed=0)
