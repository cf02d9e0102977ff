import hashlib
import json
import random
import re
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamdeck import decompose, factor as factor_mod, rotation
from hamdeck.errors import BudgetError, InputError, SearchFailedError
from hamdeck.factor import PartialHC, TwoFactor
from hamdeck.graphs import (
    Graph,
    build_graph,
    complete_graph,
    cycle_graph,
    _mask_of,
    empty_graph,
    norm_edge,
)
from hamdeck.partition import default_params, tri_partition
from hamdeck.rotation import (
    Move,
    extract_hamilton_step,
    merge_step,
    rotate_or_close,
    substitution_gadget,
)
from hamdeck.walecki import canonical_cycle

from conftest import circulant, paley
from replay import net_effect, replay_moves


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
        added, removed = net_effect(move)
        assert added == {(2, 3)}
        assert len(removed) == 2

    def test_pair_components_absorbed_without_removal(self):
        host = build_graph(4, [(0, 1), (2, 3), (1, 2)])
        factor = TwoFactor.build(host, [], [(0, 1), (2, 3)])
        partial, move = merge_step(factor, host, empty_graph(4))
        assert partial.component_count == 1
        assert list(partial.path) in ([0, 1, 2, 3], [3, 2, 1, 0])
        added, removed = net_effect(move)
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
        rotate_or_close(partial, core, patch)


class TestRotateOrClose:
    def test_endpoint_extension_into_cycle(self):
        host = build_graph(
            6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        )
        partial = PartialHC.build(host, [0, 1, 2], [[3, 4, 5]], [])
        result, move = rotate_or_close(partial, host, empty_graph(6))
        assert isinstance(result, PartialHC)
        assert result.component_count == 1
        assert len(result.path) == 6

    def test_spanning_path_in_k6_closes(self):
        g = complete_graph(6)
        partial = PartialHC.build(g, [0, 1, 2, 3, 4, 5], [], [])
        result, move = rotate_or_close(partial, g, empty_graph(6))
        assert isinstance(result, TwoFactor)
        assert result.is_hamilton_cycle
        assert move.kind == "rotate-close"

    def test_rotation_then_close_finds_unique_cycle(self):
        # path 0-1-2-3-4 with chords (1,4) and (0,2): the only Hamilton
        # cycle is 0-1-4-3-2-0, reachable by one rotation plus closure
        core = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (0, 2)])
        partial = PartialHC.build(core, [0, 1, 2, 3, 4], [], [])
        result, move = rotate_or_close(partial, core, empty_graph(5))
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
        result, move = rotate_or_close(partial, core, patch)
        assert isinstance(result, TwoFactor)
        assert (0, 3) in result.edge_set()

    def test_rotation_then_patch_closure(self):
        # the core chord (1,3) rotates the path; the patch edge (0,2) closes
        core = build_graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        patch = build_graph(4, [(0, 2)])
        partial = PartialHC.build(
            Graph(4, core.edges | patch.edges), [0, 1, 2, 3], [], []
        )
        result, move = rotate_or_close(partial, core, patch)
        assert isinstance(result, TwoFactor)
        assert result.edge_set() == frozenset({(0, 1), (1, 3), (2, 3), (0, 2)})

    def test_dead_end_raises(self):
        core = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        partial = PartialHC.build(core, [0, 1, 2, 3], [], [])
        with pytest.raises(SearchFailedError):
            rotate_or_close(partial, core, empty_graph(4))

    def test_requires_partial(self):
        g = complete_graph(5)
        factor = TwoFactor.build(g, [[0, 1, 2, 3, 4]], [])
        with pytest.raises(InputError):
            rotate_or_close(factor, g, empty_graph(5))


def _rotation_search_reference(partial, core, patch):
    """_rotation_search as first written: every rotation of a path is queued
    before any is tested, and a path is tested when the FIFO queue pops it;
    the search stops at the pop of path ROTATION_VISIT_CAP + 1.  An
    extension of the start path is an ``extend`` move."""
    off_path = ~_mask_of(partial.path)
    comp_of = rotation._component_map(partial.cycles + partial.pairs)

    def canon(p):
        rp = p[::-1]
        return p if p <= rp else rp

    start = tuple(partial.path)
    seen = {canon(start)}
    queue = deque([(start, ())])
    visits = 0
    while queue:
        cur, steps = queue.popleft()
        visits += 1
        if visits > rotation.ROTATION_VISIT_CAP:
            break
        cur_list = list(cur)
        for oriented in (cur_list, cur_list[::-1]):
            ext = rotation._extension_at_end(
                oriented, off_path, partial, comp_of, core, patch
            )
            if ext:
                if not steps:
                    return ext[0], Move("extend", tuple(ext[1]))
                move = Move("rotate-extend", steps + tuple(ext[1]), note="fallback")
                return ext[0], move
        closure = rotation._closure_edge(cur_list, patch, core)
        if closure is not None:
            move = Move("rotate-close", steps + (("+", closure),), note="fallback")
            return rotation._closed(partial, cur_list), move
        end_row, start_row = core.adj_bits[cur[-1]], core.adj_bits[cur[0]]
        for i in range(1, len(cur_list) - 1):
            if i < len(cur_list) - 2 and end_row >> cur_list[i] & 1:
                p_new, st_ = rotation._rotate_end(cur_list, i)
                if canon(tuple(p_new)) not in seen:
                    seen.add(canon(tuple(p_new)))
                    queue.append((tuple(p_new), steps + tuple(st_)))
            if i >= 2 and start_row >> cur_list[i] & 1:
                p_new, st_ = rotation._rotate_start(cur_list, i)
                if canon(tuple(p_new)) not in seen:
                    seen.add(canon(tuple(p_new)))
                    queue.append((tuple(p_new), steps + tuple(st_)))
    return None


def _search_outcomes(partial, core, patch, caps):
    """(search, reference) results for each visit cap in ``caps``."""
    args = (partial, core, patch)
    out = []
    with pytest.MonkeyPatch.context() as mp:
        for cap in caps:
            mp.setattr(rotation, "ROTATION_VISIT_CAP", cap)
            out.append(
                (rotation._rotation_search(*args), _rotation_search_reference(*args))
            )
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(8, 40),
    st.floats(0.05, 0.5),
    st.sampled_from([0, 2, 3, 5]),
)
def test_fallback_search_matches_reference(seed, n, density, off):
    # sparse core and patch, so that closures are rare and the search runs
    # deep; ``off`` vertices sit off the path, as one cycle or one pair
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    core = build_graph(n, [e for e in pairs if rng.random() < density])
    patch = build_graph(n, [e for e in pairs if rng.random() < density / 4])
    order = rng.sample(range(n), n)
    path, rest = tuple(order[: n - off]), tuple(order[n - off :])
    cycles = (canonical_cycle(rest),) if off >= 3 else ()
    pairs_ = (tuple(sorted(rest)),) if off == 2 else ()
    partial = PartialHC(n, path, cycles, pairs_)
    for got, want in _search_outcomes(partial, core, patch, (1, 2, 3, 5, 4000)):
        assert got == want


def test_fallback_search_stops_at_the_visit_cap():
    # the path 0-1-...-9 in a sparse core with no chord between its ends:
    # the first closure lies some rotations deep, so a smaller cap finds
    # nothing and a larger one finds the same move in both versions
    rng = random.Random(3)
    n = 10
    path_edges = [(k, k + 1) for k in range(n - 1)]
    chords = [(u, v) for u in range(n) for v in range(u + 2, n) if rng.random() < 0.3]
    core = build_graph(n, path_edges + [e for e in chords if e != (0, n - 1)])
    partial = PartialHC(n, tuple(range(n)), (), ())
    results = _search_outcomes(partial, core, empty_graph(n), range(1, 40))
    for got, want in results:
        assert got == want
    found = [got is not None for got, _ in results]
    assert not found[0] and found[-1]
    assert found == sorted(found)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(8, 40),
    st.floats(0.05, 0.6),
    st.sampled_from([0, 2, 3, 5]),
)
def test_rotate_or_close_is_the_breadth_first_search(seed, n, density, off):
    # no core or patch edge joins an endpoint of the path to a vertex off
    # it, so the start path does not extend and each move comes from deeper
    # in the search
    rng = random.Random(seed)
    order = rng.sample(range(n), n)
    path, rest = tuple(order[: n - off]), tuple(order[n - off :])
    blocked = {norm_edge(a, z) for a in (path[0], path[-1]) for z in rest}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs = [e for e in pairs if e not in blocked]
    core = build_graph(n, [e for e in pairs if rng.random() < density])
    patch = build_graph(n, [e for e in pairs if rng.random() < density / 4])
    cycles = (canonical_cycle(rest),) if off >= 3 else ()
    pairs_ = (tuple(sorted(rest)),) if off == 2 else ()
    partial = PartialHC(n, path, cycles, pairs_)
    want = _rotation_search_reference(partial, core, patch)
    if want is None:
        with pytest.raises(SearchFailedError):
            rotate_or_close(partial, core, patch)
    else:
        assert rotate_or_close(partial, core, patch) == want


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
            added, removed = net_effect(move)
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

    def test_overflowing_cycle_is_rerouted_through_core_edges(self, monkeypatch):
        # the draw is the Hamilton cycle 0-1-...-29, all 30 of its edges in
        # the patch: far more than gadgets can fit in n^0.6 ~ 7.7 excluded
        # vertices, so the step reroutes it through core rotations instead
        n = 30
        core, patch = circulant(n, (4, 7)), circulant(n, (1, 2))
        host = core.union(patch)
        start = TwoFactor(n, (canonical_cycle(range(n)),), ())
        sample = rotation.sample_le2_factor
        draws = iter([start])

        def drawing(*args, **kwargs):
            return next(draws, None) or sample(*args, **kwargs)

        monkeypatch.setattr(rotation, "sample_le2_factor", drawing)
        reroute = rotation._reroute
        rerouted = []

        def checking(*args):
            old = args[0]
            out = reroute(*args)
            assert out is not None
            new, move = out
            assert new.is_hamilton_cycle
            new.validate_in(host)
            assert all(e in core.edges for op, e in move.steps if op == "+")
            assert len(new.edge_set() - core.edges) < len(old.edge_set() - core.edges)
            assert replay_moves(old.edge_set(), [move]) == new.edge_set()
            rerouted.append(move)
            return out

        monkeypatch.setattr(rotation, "_reroute", checking)
        step = extract_hamilton_step(core, patch, params_for(complete_graph(n)), 0)
        assert step.restarts == 0 and step.start_factor == start
        assert len(rerouted) >= 2
        assert list(step.moves) == rerouted
        assert {m.kind for m in step.moves} == {"reroute"}
        assert replay_moves(start.edge_set(), step.moves) == step.cycle_edges()
        assert step.new_core.regular_degree() == 2

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
        self._validations_match_draws_and_cycles(complete_graph(201), monkeypatch)

    def test_paley197_validates_each_draw_and_each_cycle_once(self, monkeypatch):
        # Paley(197) at seed 0 reroutes cycles whose gadgets would overflow
        rerouted = self._validations_match_draws_and_cycles(paley(197), monkeypatch)
        assert rerouted > 0

    @staticmethod
    def _validations_match_draws_and_cycles(g, monkeypatch) -> int:
        calls, draws, closed, rerouted = [], [], [], []
        validate = factor_mod._validate_cover
        sample = rotation.sample_le2_factor
        close = rotation.rotate_or_close
        reroute = rotation._reroute

        def counting(*args):
            calls.append(args[0])
            return validate(*args)

        def drawing(*args, **kwargs):
            draws.append(sample(*args, **kwargs))
            return draws[-1]

        def closing(*args):
            cover, move = close(*args)
            if isinstance(cover, TwoFactor) and cover.is_hamilton_cycle:
                closed.append(cover)
            return cover, move

        def rerouting(*args):
            out = reroute(*args)
            if out is not None:
                rerouted.append(out[0])
            return out

        monkeypatch.setattr(factor_mod, "_validate_cover", counting)
        monkeypatch.setattr(rotation, "sample_le2_factor", drawing)
        monkeypatch.setattr(rotation, "rotate_or_close", closing)
        monkeypatch.setattr(rotation, "_reroute", rerouting)
        run = decompose.run_pipeline(g, seed=0)
        # a cycle is finished when a move closes it, the draw is one or a
        # reroute makes it; a gadget dead end after it restarts the step, so
        # finished cycles can outnumber the run's rotation cycles
        finished = (
            len(closed) + sum(f.is_hamilton_cycle for f in draws) + len(rerouted)
        )
        assert finished >= run.rotation_cycles
        assert len(calls) == len(draws) + finished
        return len(rerouted)

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


@pytest.mark.parametrize("name", ["K201", "P197"])
def test_no_step_redraws_for_gadget_overflow(name, monkeypatch):
    # every SearchFailedError made anywhere is recorded, even one caught and
    # redrawn past inside the step
    messages = []
    init = SearchFailedError.__init__

    def recording(self, *args):
        messages.append(str(args[0]) if args else "")
        init(self, *args)

    monkeypatch.setattr(SearchFailedError, "__init__", recording)
    g = paley(197) if name == "P197" else complete_graph(201)
    for seed in range(5):
        decompose.run_pipeline(g, seed=seed)
    assert not [m for m in messages if "over capacity" in m]


# sha256 of [decomposition JSON, step_stats] for pipeline runs whose moves
# include every kind: merges, endpoint extensions, both moves of the
# breadth-first rotation search and reroutes.  Any change to the search
# order or a move's step order changes these digests.
PINNED_RUNS = {
    ("K21", 0): "8a825100253a15d265ec07ee397fd9f6c06f1b6fb76ad4fe40e1d579aeea4bef",
    ("K51", 1): "31276e4fc68d9ffb36eac17e364c9fdf57d04423d2ce305c075697d6bfa7efe5",
    ("K51", 3): "34c1d2949b14a8fbc41eab66c741c7cca5659a4012044a5711d9e109205e1786",
    ("P53", 1): "55c652ad19229fb14b4915df53fabe70b8aa5969158e61025fe38103811f14d9",
    ("P53", 2): "05cb31e10231b93e389f745e6d98a7a8666288d62d40a6353da4c5a66d233fb1",
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
        ("rotate-extend", "fallback"),
        ("rotate-close", "fallback"),
        ("reroute", ""),
    }


# The same digests for the benchmark's own pipeline ops (kn-mid's K101 and
# large-n's K201 and Paley(197)) at seed 0, so that a change to the flow,
# the split, the rotation search or the residual cannot alter what the
# benchmark times.
PINNED_LARGE_RUNS = {
    "K101": "549b3b53cd0ebf844e8b35000506e3a82d63bebbe242c7bad82e561e65b7751c",
    "K201": "1f7230e74d224ef9f7f6e6c2ad8012c91de4b9b75e8306d28126128a525c4531",
    "P197": "a2b222965625b93c401a61cbe21e7badcb2da6fc790fbb4039ce0776d2db397f",
}


@pytest.mark.parametrize("name", sorted(PINNED_LARGE_RUNS))
def test_benchmark_pipeline_outputs_are_pinned(name):
    make = paley if name[0] == "P" else complete_graph
    run = decompose.run_pipeline(make(int(name[1:])), seed=0)
    blob = json.dumps(
        [run.decomposition.to_json_dict(), run.step_stats], sort_keys=True
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_LARGE_RUNS[name]
