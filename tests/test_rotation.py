import hashlib
import json
import re
from types import SimpleNamespace

import pytest

from hamdeck import decompose, factor as factor_mod, rotation
from hamdeck.errors import BudgetError, InputError, SearchFailedError
from hamdeck.factor import PartialHC, TwoFactor
from hamdeck.graphs import (
    Graph,
    build_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    norm_edge,
)
from hamdeck.partition import default_params, tri_partition
from hamdeck.rotation import (
    Move,
    extract_hamilton_step,
    merge_step,
    replay_moves,
    rotate_or_close,
    substitution_gadget,
)
from hamdeck.walecki import canonical_cycle

from conftest import paley


def params_for(g, **overrides):
    return default_params(g, **overrides)


def non_core_gadget(core, patch, x, y, excluded, *, avoid_edges=frozenset()):
    """A gadget that is valid except that x2-y2 is not a core edge."""
    banned = set(excluded) | {x, y}

    def fresh(*vs):
        return len(banned.union(vs)) == len(banned) + len(vs)

    for x1 in core.adj[x]:
        for x2 in patch.adj[x1]:
            for y1 in core.adj[y]:
                for y2 in patch.adj[y1]:
                    used = {
                        norm_edge(x, x1),
                        norm_edge(x1, x2),
                        norm_edge(y, y1),
                        norm_edge(y1, y2),
                    }
                    if (
                        fresh(x1, x2, y1, y2)
                        and used.isdisjoint(avoid_edges)
                        and not core.has_edge(x2, y2)
                    ):
                        return x1, x2, y1, y2
    raise AssertionError("no such gadget in the test input")


def two_triangles_plus_bridge():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    return build_graph(6, edges)


class TestMerge:
    def test_two_triangles_merge_into_path(self):
        host = two_triangles_plus_bridge()
        factor = TwoFactor.build(host, [[0, 1, 2], [3, 4, 5]], [])
        partial, move = merge_step(factor, host, empty_graph(6))
        assert partial.component_count == 1
        assert len(partial.path) == 6
        assert len(partial.edge_set()) == 5
        added, removed = move.net_effect()
        assert added == {(2, 3)}
        assert len(removed) == 2

    def test_pair_components_absorbed_without_removal(self):
        host = build_graph(4, [(0, 1), (2, 3), (1, 2)])
        factor = TwoFactor.build(host, [], [(0, 1), (2, 3)])
        partial, move = merge_step(factor, host, empty_graph(4))
        assert partial.component_count == 1
        assert list(partial.path) in ([0, 1, 2, 3], [3, 2, 1, 0])
        added, removed = move.net_effect()
        assert added == {(1, 2)} and not removed

    def test_single_component_rejected(self):
        g = complete_graph(5)
        factor = TwoFactor.build(g, [[0, 1, 2, 3, 4]], [])
        with pytest.raises(InputError):
            merge_step(factor, g, empty_graph(5))

    def test_disconnected_components_fail(self):
        host = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        factor = TwoFactor.build(host, [[0, 1, 2], [3, 4, 5]], [])
        with pytest.raises(SearchFailedError):
            merge_step(factor, host, empty_graph(6))


# (cover, core, patch) vertex counts that disagree
SIZE_MISMATCHES = [(6, 7, 7), (6, 6, 7), (6, 7, 6)]


@pytest.mark.parametrize("sizes", SIZE_MISMATCHES, ids=["6-7-7", "6-6-7", "6-7-6"])
def test_merge_rejects_mismatched_sizes(sizes):
    n, core_n, patch_n = sizes
    factor = TwoFactor.build(complete_graph(n), [[0, 1, 2], [3, 4, 5]], [])
    with pytest.raises(InputError, match="vertices"):
        merge_step(factor, complete_graph(core_n), empty_graph(patch_n))


@pytest.mark.parametrize("sizes", SIZE_MISMATCHES, ids=["6-7-7", "6-6-7", "6-7-6"])
def test_rotate_or_close_rejects_mismatched_sizes(sizes):
    n, core_n, patch_n = sizes
    partial = PartialHC.build(complete_graph(n), [0, 1, 2], [[3, 4, 5]], [])
    with pytest.raises(InputError, match="vertices"):
        core, patch = complete_graph(core_n), empty_graph(patch_n)
        rotate_or_close(partial, core, patch, params_for(complete_graph(8)))


class TestRotateOrClose:
    def test_endpoint_extension_into_cycle(self):
        host = build_graph(
            6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        )
        partial = PartialHC.build(host, [0, 1, 2], [[3, 4, 5]], [])
        result, move = rotate_or_close(partial, host, empty_graph(6), params_for(complete_graph(8)))
        assert isinstance(result, PartialHC)
        assert result.component_count == 1
        assert len(result.path) == 6

    def test_spanning_path_in_k6_closes(self):
        g = complete_graph(6)
        partial = PartialHC.build(g, [0, 1, 2, 3, 4, 5], [], [])
        result, move = rotate_or_close(partial, g, empty_graph(6), params_for(complete_graph(8)))
        assert isinstance(result, TwoFactor)
        assert result.is_hamilton_cycle
        assert move.kind == "rotate-close"

    def test_rotation_then_close_finds_unique_cycle(self):
        # path 0-1-2-3-4 with chords (1,4) and (0,2): the only Hamilton
        # cycle is 0-1-4-3-2-0, reachable by one rotation plus closure
        core = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (0, 2)])
        partial = PartialHC.build(core, [0, 1, 2, 3, 4], [], [])
        result, move = rotate_or_close(partial, core, empty_graph(5), params_for(complete_graph(8)))
        assert isinstance(result, TwoFactor)
        assert result.edge_set() == frozenset(
            {(0, 1), (1, 4), (3, 4), (2, 3), (0, 2)}
        )

    def test_closure_via_patch_edge(self):
        core = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        patch = build_graph(4, [(0, 3)])
        partial = PartialHC.build(
            Graph(4, core.edges | patch.edges), [0, 1, 2, 3], [], []
        )
        result, move = rotate_or_close(partial, core, patch, params_for(complete_graph(8)))
        assert isinstance(result, TwoFactor)
        assert (0, 3) in result.edge_set()

    def test_rotation_then_patch_closure(self):
        # the core chord (1,3) rotates the path; the patch edge (0,2) closes
        core = build_graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        patch = build_graph(4, [(0, 2)])
        partial = PartialHC.build(
            Graph(4, core.edges | patch.edges), [0, 1, 2, 3], [], []
        )
        result, move = rotate_or_close(partial, core, patch, params_for(complete_graph(8)))
        assert isinstance(result, TwoFactor)
        assert result.edge_set() == frozenset({(0, 1), (1, 3), (2, 3), (0, 2)})

    def test_apparatus_splits_a_segment_both_endpoints_prefer(self):
        # delta = 0.5 cuts the 30-vertex path 0..29 into the segments 0-7,
        # 8-15, 16-22 and 23-29.  The endpoints' only core chords, (0, 10)
        # and (29, 13), both lie in 8-15, so the apparatus splits it into a
        # start window 8-11 and an end window 12-15: rotating 29 at 13 and
        # then 0 at 10 leaves the endpoints 9 and 14, which the patch closes.
        core = build_graph(30, [(v, v + 1) for v in range(29)] + [(0, 10), (13, 29)])
        patch = build_graph(30, [(9, 14)])
        host = core.union(patch)
        partial = PartialHC.build(host, range(30), [], [])
        found = rotation._apparatus(partial, {}, core, patch, SimpleNamespace(delta=0.5))
        assert found is not None
        cover, move = found
        assert move.kind == "rotate-close"
        assert TwoFactor.build(host, cover.cycles, cover.pairs) == cover
        assert cover.is_hamilton_cycle
        assert cover.edge_set() == replay_moves(partial.edge_set(), [move])
        assert {(0, 10), (13, 29), (9, 14)} <= cover.edge_set()

    def test_dead_end_raises(self):
        core = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        partial = PartialHC.build(core, [0, 1, 2, 3], [], [])
        with pytest.raises(SearchFailedError):
            rotate_or_close(partial, core, empty_graph(4), params_for(complete_graph(8)))

    def test_requires_partial(self):
        g = complete_graph(5)
        factor = TwoFactor.build(g, [[0, 1, 2, 3, 4]], [])
        with pytest.raises(InputError):
            rotate_or_close(factor, g, empty_graph(5), params_for(complete_graph(8)))


class TestGadget:
    def test_all_edges_present_gives_first_tuple(self):
        k20 = complete_graph(20)
        assert substitution_gadget(k20, k20, 0, 1, set()) == (2, 3, 4, 5)

    def test_exclusion_set_respected(self):
        k20 = complete_graph(20)
        x1, x2, y1, y2 = substitution_gadget(k20, k20, 0, 1, {2, 3, 4, 5})
        assert {x1, x2, y1, y2}.isdisjoint({0, 1, 2, 3, 4, 5})

    def test_avoid_edges_respected(self):
        k20 = complete_graph(20)
        tup = substitution_gadget(k20, k20, 0, 1, set(), avoid_edges=frozenset({(0, 2)}))
        assert tup[0] != 2

    def test_blocked_neighborhood_fails(self):
        # the exclusion set swallows every core neighbor of x
        core = build_graph(20, [(0, 2), (0, 3), (1, 4), (1, 5), (4, 5)])
        patch = complete_graph(20).subtract(core.edges)
        with pytest.raises(SearchFailedError):
            substitution_gadget(core, patch, 0, 1, {2, 3})

    def test_oversized_exclusion_set_rejected(self):
        g = complete_graph(6)
        with pytest.raises(InputError):
            substitution_gadget(g, g, 0, 1, {2, 3, 4, 5})

    def test_same_endpoints_rejected(self):
        g = complete_graph(6)
        with pytest.raises(InputError):
            substitution_gadget(g, g, 2, 2, set())


class TestExtract:
    def test_k9_without_patch(self):
        g = complete_graph(9)
        step = extract_hamilton_step(g, empty_graph(9), params_for(g), seed=0)
        assert len(step.cycle) == 9
        assert step.dropped_core == frozenset()
        assert step.promoted_patch == frozenset()
        assert step.new_core.regular_degree() == 6

    def test_low_degree_rejected(self):
        g = cycle_graph(8)
        with pytest.raises(InputError):
            extract_hamilton_step(g, empty_graph(8), params_for(complete_graph(8)), 0)

    def test_irregular_core_rejected(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
        with pytest.raises(InputError):
            extract_hamilton_step(g, empty_graph(5), params_for(complete_graph(8)), 0)

    def test_overlapping_patch_rejected(self):
        # K5 is 4-regular, so the degree checks pass and the overlap fires
        g = complete_graph(5)
        with pytest.raises(InputError, match="already present"):
            extract_hamilton_step(g, g, params_for(g), 0)

    def test_patch_sharing_a_core_edge_rejected(self):
        # an even-regular core, so only the overlap can be at fault
        core, patch = complete_graph(9), build_graph(9, [(3, 5), (7, 2)])
        with pytest.raises(InputError, match=r"\(2, 7\): already present"):
            extract_hamilton_step(core, patch, params_for(core), 0)

    def test_partitioned_k21_accounting(self):
        g = complete_graph(21)
        params = params_for(g, seed=0)
        tp = tri_partition(g, params)
        for seed in (0, 7, 42):
            step = extract_hamilton_step(tp.core, tp.patch, params, seed)
            union = (
                step.new_core.edges
                | step.new_patch.edges
                | step.cycle_edges()
                | step.dropped_core
            )
            assert union == tp.core.edges | tp.patch.edges
            total = (
                len(step.new_core.edges)
                + len(step.new_patch.edges)
                + len(step.cycle_edges())
                + len(step.dropped_core)
            )
            assert total == len(union)
            assert step.new_core.regular_degree() == tp.core_degree - 2
            # bookkeeping sets stay clear of the extracted cycle
            assert not step.dropped_core & step.cycle_edges()
            assert not step.promoted_patch & step.cycle_edges()
            assert step.dropped_core <= tp.core.edges
            assert step.promoted_patch <= tp.patch.edges
            assert len(step.dropped_core) == 3 * len(step.patch_edges_in_cycle)
            assert len(step.promoted_patch) == 2 * len(step.patch_edges_in_cycle)

    @pytest.mark.parametrize("g", [complete_graph(51), paley(53)], ids=["K51", "P53"])
    def test_derived_working_graphs_match_full_builds(self, g, monkeypatch):
        steps = []

        def recording_step(*args):
            steps.append(extract_hamilton_step(*args))
            return steps[-1]

        monkeypatch.setattr(decompose, "extract_hamilton_step", recording_step)
        decompose.run_pipeline(g, seed=0)
        assert len(steps) >= 5
        for step in steps:
            for derived in (step.new_core, step.new_patch):
                full = Graph(g.n, derived.edges)
                assert derived.edges == full.edges
                assert derived.adj == full.adj
                assert derived.adj_bits == full.adj_bits

    def test_non_core_gadget_edge_fails_the_accounting_check(self, monkeypatch):
        g = complete_graph(51)
        params = params_for(g, seed=0)
        tp = tri_partition(g, params)
        monkeypatch.setattr(rotation, "substitution_gadget", non_core_gadget)
        with pytest.raises(AssertionError, match="accounting"):
            # the first step whose cycle uses a patch edge calls the gadget
            for seed in range(20):
                extract_hamilton_step(tp.core, tp.patch, params, seed)

    def test_replay_reproduces_cycle(self):
        g = complete_graph(21)
        params = params_for(g, seed=0)
        tp = tri_partition(g, params)
        step = extract_hamilton_step(tp.core, tp.patch, params, seed=3)
        final = replay_moves(step.start_factor.edge_set(), step.moves)
        assert final == step.cycle_edges()

    def test_replay_survives_json_round_trip(self):
        # the moves that ``decompose --trace`` writes carry all a replay needs
        g = complete_graph(21)
        params = params_for(g, seed=0)
        tp = tri_partition(g, params)
        step = extract_hamilton_step(tp.core, tp.patch, params, seed=5)
        revived = [
            Move(data["kind"], tuple((op, tuple(e)) for op, e in data["steps"]))
            for data in json.loads(json.dumps([m.to_json_dict() for m in step.moves]))
        ]
        assert replay_moves(step.start_factor.edge_set(), revived) == step.cycle_edges()

    def test_move_cap_respected(self):
        from hamdeck.factor import component_budget

        g = complete_graph(21)
        params = params_for(g, seed=0)
        tp = tri_partition(g, params)
        cap = 2 * component_budget(21) + 1
        for seed in range(10):
            step = extract_hamilton_step(tp.core, tp.patch, params, seed)
            assert len(step.moves) <= cap

    def test_merge_and_close_deltas(self):
        # component count drops by one per merge; closure adds one edge
        g = complete_graph(21)
        params = params_for(g, seed=0)
        tp = tri_partition(g, params)
        step = extract_hamilton_step(tp.core, tp.patch, params, seed=11)
        edges = set(step.start_factor.edge_set())
        comps = step.start_factor.component_count
        for move in step.moves:
            added, removed = move.net_effect()
            before = len(edges)
            edges -= removed
            edges |= added
            if move.kind == "merge":
                comps -= 1
            elif move.kind == "rotate-extend" or move.kind == "extend":
                comps -= 1
            elif move.kind == "rotate-close":
                assert len(edges) == before + 1
        assert comps == 1

    def test_factors_over_the_component_cap_are_redrawn(self, monkeypatch):
        # with a cap of 0 every draw is over it: each is discarded before
        # any move, and the restart loop ends in BudgetError
        g = complete_graph(21)
        params = params_for(g, seed=0)
        tp = tri_partition(g, params)
        merges = []
        monkeypatch.setattr(rotation, "component_budget", lambda n: 0)
        monkeypatch.setattr(rotation, "merge_step", lambda *a: merges.append(a))
        with pytest.raises(BudgetError, match="above the cap"):
            extract_hamilton_step(tp.core, tp.patch, params, seed=0)
        assert merges == []


class TestDerivedCovers:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "make",
        [lambda: complete_graph(51), lambda: paley(53), lambda: complete_graph(101)],
        ids=["K51", "P53", "K101"],
    )
    def test_moves_return_what_build_would(self, make, seed, monkeypatch):
        # each derived cover is valid in core ∪ patch and already canonical
        seen = []

        def recording(move):
            def wrapper(cover, core, patch, *rest):
                out = move(cover, core, patch, *rest)
                seen.append((out[0], core.union(patch)))
                return out

            return wrapper

        monkeypatch.setattr(rotation, "merge_step", recording(merge_step))
        monkeypatch.setattr(rotation, "rotate_or_close", recording(rotate_or_close))
        decompose.run_pipeline(make(), seed=seed)
        assert seen
        for cover, host in seen:
            if isinstance(cover, PartialHC):
                rebuilt = PartialHC.build(host, cover.path, cover.cycles, cover.pairs)
            else:
                rebuilt = TwoFactor.build(host, cover.cycles, cover.pairs)
            assert rebuilt == cover

    def test_k201_validates_each_draw_and_each_cycle_once(self, monkeypatch):
        calls = []
        validate = factor_mod._validate_cover

        def counting(*args):
            calls.append(args[0])
            return validate(*args)

        monkeypatch.setattr(factor_mod, "_validate_cover", counting)
        decompose.run_pipeline(complete_graph(201), seed=0)
        assert len(calls) <= 128

    def test_a_cycle_on_a_non_edge_is_an_internal_fault(self, monkeypatch):
        g = complete_graph(21)
        params = params_for(g, seed=0)
        tp = tri_partition(g, params)
        a, b = min(tp.residual.edges)
        # a Hamilton cycle of K21 through the residual edge (a, b)
        cycle = [a, b] + [v for v in range(21) if v not in (a, b)]
        bad = TwoFactor(21, (canonical_cycle(cycle),), ())
        monkeypatch.setattr(
            rotation, "rotate_or_close", lambda *args: (bad, Move("rotate-close", ()))
        )
        with pytest.raises(AssertionError, match="non-edge") as info:
            extract_hamilton_step(tp.core, tp.patch, params, seed=0)
        named = re.search(r"non-edge \((\d+), (\d+)\)", str(info.value)).groups()
        assert tuple(map(int, named)) in tp.residual.edges


# sha256 of [decomposition JSON, step_stats] for pipeline runs whose moves
# include every kind, each rotation kind both from the windowed apparatus
# and from the breadth-first fallback.  Any change to the search order, a
# round's pivot scan or a move's step order changes these digests.
PINNED_RUNS = {
    ("K21", 0): "cb0074c48a2ef12c2abd7444cde8cf17dbb43dbae758a03159b8734d61b88157",
    ("K51", 1): "bd36236b8e530abe2f7e534c1a8b8cec96a779644eee885d5cb11e7c5535a114",
    ("P53", 1): "30b700446ba7683f2fd32675bee907d25def3dee2282eb9b9608ad87b3e60e03",
    ("P53", 2): "33ae219e85813fa1622c63c089239da91b27f540f9a2125f80bda11233f66c66",
}


def test_pipeline_outputs_are_pinned():
    graphs = {"K21": complete_graph(21), "K51": complete_graph(51), "P53": paley(53)}
    kinds = set()
    for (name, seed), digest in PINNED_RUNS.items():
        run = decompose.run_pipeline(graphs[name], seed=seed)
        blob = json.dumps(
            [run.decomposition.to_json_dict(), run.step_stats], sort_keys=True
        )
        assert hashlib.sha256(blob.encode()).hexdigest() == digest, (name, seed)
        kinds |= {
            (m["kind"], m.get("note", ""))
            for stats in run.step_stats
            for m in stats["moves"]
        }
    assert kinds == {
        ("merge", ""),
        ("extend", ""),
        ("rotate-extend", ""),
        ("rotate-close", ""),
        ("rotate-extend", "fallback"),
        ("rotate-close", "fallback"),
    }
