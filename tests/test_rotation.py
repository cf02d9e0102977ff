import hashlib
import itertools
import json
import random
import re
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamdeck import decompose, factor as factor_mod, rotation
from hamdeck.errors import BudgetError, SearchFailedError
from hamdeck.factor import PartialHC, TwoFactor, _validate_cover
from hamdeck.graphs import (
    Graph,
    build_graph,
    complete_graph,
    _mask_of,
    empty_graph,
    norm_edge,
    strip_cycle,
)
from hamdeck.partition import default_params, tri_partition
from hamdeck.rotation import (
    Move,
    extract_hamilton_step,
    merge_step,
    rotate_or_close,
    substitution_gadget,
)
from hamdeck.walecki import canonical_cycle, cycle_edges

from conftest import build_partial, circulant, cover_edges, paley, random_graph
from replay import net_effect, replay_moves


def non_core_gadget(core, patch, x, y, excluded):
    """A gadget that is valid except that x2-y2 is not a core edge."""
    banned = set(excluded) | {x, y}

    def fresh(*vs):
        return len(banned.union(vs)) == len(banned) + len(vs)

    for x1 in core.adj[x]:
        for x2 in patch.adj[x1]:
            for y1 in core.adj[y]:
                for y2 in patch.adj[y1]:
                    if fresh(x1, x2, y1, y2) and not core.has_edge(x2, y2):
                        return x1, x2, y1, y2
    raise AssertionError("no such gadget in the test input")


def reference_gadget(core, patch, x, y, excluded):
    """The four-loop gadget search over vertex sets that the bit-mask search
    replaced: the first (x1, x2, y1, y2) in increasing order, or None."""
    banned = set(excluded) | {x, y}
    for x1 in core.adj[x]:
        if x1 in banned:
            continue
        for x2 in patch.adj[x1]:
            if x2 in banned:
                continue
            for y1 in core.adj[y]:
                if y1 in banned or y1 in (x1, x2):
                    continue
                for y2 in patch.adj[y1]:
                    if y2 in banned or y2 in (x1, x2, y1) or not core.has_edge(x2, y2):
                        continue
                    return (x1, x2, y1, y2)
    return None


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
        assert len(cover_edges(partial)) == 5
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

    def test_disconnected_components_fail(self):
        host = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        factor = TwoFactor.build(host, [[0, 1, 2], [3, 4, 5]], [])
        with pytest.raises(SearchFailedError):
            merge_step(factor, host, empty_graph(6))


class TestRotateOrClose:
    def test_endpoint_extension_into_cycle(self):
        host = build_graph(
            6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        )
        partial = build_partial(host, [0, 1, 2], [[3, 4, 5]], [])
        result, move = rotate_or_close(partial, host, empty_graph(6))
        assert isinstance(result, PartialHC)
        assert result.component_count == 1
        assert len(result.path) == 6

    def test_spanning_path_in_k6_closes(self):
        g = complete_graph(6)
        partial = build_partial(g, [0, 1, 2, 3, 4, 5], [], [])
        result, move = rotate_or_close(partial, g, empty_graph(6))
        assert isinstance(result, TwoFactor)
        assert result.is_hamilton_cycle
        assert move.kind == "rotate-close"

    def test_rotation_then_close_finds_unique_cycle(self):
        # path 0-1-2-3-4 with chords (1,4) and (0,2): the only Hamilton
        # cycle is 0-1-4-3-2-0, reachable by one rotation plus closure
        core = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (0, 2)])
        partial = build_partial(core, [0, 1, 2, 3, 4], [], [])
        result, move = rotate_or_close(partial, core, empty_graph(5))
        assert isinstance(result, TwoFactor)
        assert cover_edges(result) == frozenset(
            {(0, 1), (1, 4), (3, 4), (2, 3), (0, 2)}
        )

    def test_closure_via_patch_edge(self):
        core = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        patch = build_graph(4, [(0, 3)])
        partial = build_partial(
            Graph(4, core.edges | patch.edges), [0, 1, 2, 3], [], []
        )
        result, move = rotate_or_close(partial, core, patch)
        assert isinstance(result, TwoFactor)
        assert (0, 3) in cover_edges(result)

    def test_rotation_then_patch_closure(self):
        # the core chord (1,3) rotates the path; the patch edge (0,2) closes
        core = build_graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        patch = build_graph(4, [(0, 2)])
        partial = build_partial(
            Graph(4, core.edges | patch.edges), [0, 1, 2, 3], [], []
        )
        result, move = rotate_or_close(partial, core, patch)
        assert isinstance(result, TwoFactor)
        assert cover_edges(result) == frozenset({(0, 1), (1, 3), (2, 3), (0, 2)})

    def test_dead_end_raises(self):
        core = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        partial = build_partial(core, [0, 1, 2, 3], [], [])
        with pytest.raises(SearchFailedError):
            rotate_or_close(partial, core, empty_graph(4))


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
                kind = "rotate-extend" if steps else "extend"
                return ext[0], Move(kind, steps + tuple(ext[1]))
        closure = rotation._closure_edge(cur_list, patch, core)
        if closure is not None:
            move = Move("rotate-close", steps + (("+", closure),))
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

    def test_only_edges_of_the_given_graphs_are_used(self):
        # the step passes core and patch less its cycle, and the exclusion
        # set keeps earlier gadgets' edges off, so the search may use no
        # edge outside the graphs it is given
        k20 = complete_graph(20)
        tup = substitution_gadget(k20.subtract({(0, 2)}), k20, 0, 1, set())
        assert tup[0] != 2

    def test_blocked_neighborhood_fails(self):
        # the exclusion set swallows every core neighbor of x
        core = build_graph(20, [(0, 2), (0, 3), (1, 4), (1, 5), (4, 5)])
        patch = complete_graph(20).subtract(core.edges)
        with pytest.raises(SearchFailedError):
            substitution_gadget(core, patch, 0, 1, {2, 3})

    def test_mask_search_matches_the_four_loop_reference(self):
        rng = random.Random(0)
        outcomes = []
        for _ in range(400):
            n = rng.randrange(6, 40)
            core = random_graph(n, rng.uniform(0.2, 0.9), rng.randrange(1 << 30))
            extra = random_graph(n, rng.uniform(0.1, 0.6), rng.randrange(1 << 30))
            patch = build_graph(n, extra.edges - core.edges)
            x, y = rng.sample(range(n), 2)
            size = rng.randrange(int(n**0.6) + 1)
            excluded = set(rng.sample(range(n), size))
            try:
                found = substitution_gadget(core, patch, x, y, excluded)
            except SearchFailedError:
                found = None
            assert found == reference_gadget(core, patch, x, y, excluded)
            outcomes.append(found is None)
        assert 20 < sum(outcomes) < 380, sum(outcomes)


@st.composite
def cycle_splits(draw):
    """A Hamilton cycle of a random graph on up to 14 vertices whose edges
    are split at random between a core and a patch."""
    n = draw(st.integers(3, 14))
    cycle = tuple(draw(st.permutations(range(n))))
    ring = cycle_edges(cycle)
    pairs = list(itertools.combinations(range(n), 2))
    flags = st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
    present, in_patch = draw(flags), draw(flags)
    edges = [
        (p, side)
        for p, keep, side in zip(pairs, present, in_patch)
        if keep or p in ring
    ]
    core = Graph(n, [p for p, side in edges if not side])
    patch = Graph(n, [p for p, side in edges if side])
    return cycle, core, patch


@settings(max_examples=150, deadline=None)
@given(cycle_splits())
def test_cycle_walk_matches_stripping_and_the_patch_edge_scan(split):
    # the one walk per finished cycle against the three walks it replaced:
    # strip_cycle on each side's rows and the scan for the cycle's patch edges
    cycle, core, patch = split
    core_rows, patch_rows, shared = rotation._walk_cycle(cycle, core, patch)
    assert core_rows == list(strip_cycle(core.adj_bits, cycle))
    assert patch_rows == list(strip_cycle(patch.adj_bits, cycle))
    ring = zip(cycle, cycle[1:] + cycle[:1])
    assert shared == sorted(norm_edge(u, v) for u, v in ring if patch.has_edge(u, v))


def test_gadgets_need_no_earlier_gadget_cleared(monkeypatch):
    # a step searches every gadget in core and patch less the cycle only; the
    # same search with the step's earlier gadgets cleared too finds the same
    # gadget, because their edges lie inside the exclusion set
    real, step, sizes = rotation.substitution_gadget, {}, []

    def checked(core, patch, x, y, excluded):
        found = real(core, patch, x, y, excluded)
        if step.get("core") is not core:
            step.update(core=core, core_taken=[], patch_taken=[])
            sizes.append(0)
        cleared = core.subtract(step["core_taken"]), patch.subtract(step["patch_taken"])
        assert real(*cleared, x, y, excluded) == found
        x1, x2, y1, y2 = found
        step["core_taken"] += [(x, x1), (y, y1), (x2, y2)]
        step["patch_taken"] += [(x1, x2), (y1, y2)]
        sizes[-1] += 1
        return found

    monkeypatch.setattr(rotation, "substitution_gadget", checked)
    for g in (paley(53), complete_graph(101)):
        for seed in range(3):
            decompose.run_pipeline(g, seed=seed)
    assert max(sizes) >= 3 and sum(sizes) > 50, sizes


class TestExtract:
    def test_k9_without_patch(self):
        g = complete_graph(9)
        step = extract_hamilton_step(g, empty_graph(9), seed=0)
        assert len(step.cycle) == 9
        assert step.dropped_core == frozenset()
        assert step.promoted_patch == frozenset()
        assert step.new_core.regular_degree() == 6

    def test_overlapping_patch_rejected(self):
        # K5 is 4-regular, so the degree checks pass and the overlap fires
        g = complete_graph(5)
        with pytest.raises(AssertionError, match="share edge"):
            extract_hamilton_step(g, g, 0)

    def test_patch_sharing_a_core_edge_rejected(self):
        # an even-regular core, so only the overlap can be at fault
        core, patch = complete_graph(9), build_graph(9, [(3, 5), (7, 2)])
        with pytest.raises(AssertionError, match=r"share edge \(2, 7\)"):
            extract_hamilton_step(core, patch, 0)

    def test_partitioned_k21_accounting(self):
        # K21's steps place one gadget each; Paley(53)'s seed 7 places two,
        # so the identity is also checked where gadgets follow one another
        gadgets = {}
        for g in (complete_graph(21), paley(53)):
            tp = tri_partition(g, default_params(g, seed=0))
            for seed in (0, 7, 42):
                step = extract_hamilton_step(tp.core, tp.patch, seed)
                gadgets[g.n, seed] = k = len(step.patch_edges_in_cycle)
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
                assert len(step.dropped_core) == 3 * k
                assert len(step.promoted_patch) == 2 * k
        assert max(gadgets.values()) >= 2, gadgets

    @pytest.mark.parametrize("g", [complete_graph(51), paley(53)], ids=["K51", "P53"])
    def test_derived_working_graphs_match_full_builds(self, g, monkeypatch):
        steps = []

        def recording_step(*args, **kwargs):
            steps.append(extract_hamilton_step(*args, **kwargs))
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
        tp = tri_partition(g, default_params(g, seed=0))
        monkeypatch.setattr(rotation, "substitution_gadget", non_core_gadget)
        with pytest.raises(AssertionError, match="accounting"):
            # the first step whose cycle uses a patch edge calls the gadget
            for seed in range(20):
                extract_hamilton_step(tp.core, tp.patch, seed)

    def test_replay_reproduces_cycle(self):
        g = complete_graph(21)
        tp = tri_partition(g, default_params(g, seed=0))
        step = extract_hamilton_step(tp.core, tp.patch, seed=3)
        final = replay_moves(cover_edges(step.start_factor), step.moves)
        assert final == step.cycle_edges()

    def test_replay_survives_json_round_trip(self):
        # the moves that ``decompose --trace`` writes carry all a replay needs
        g = complete_graph(21)
        tp = tri_partition(g, default_params(g, seed=0))
        step = extract_hamilton_step(tp.core, tp.patch, seed=5)
        revived = [
            Move(data["kind"], tuple((op, tuple(e)) for op, e in data["steps"]))
            for data in json.loads(json.dumps([m.to_json_dict() for m in step.moves]))
        ]
        revived_edges = replay_moves(cover_edges(step.start_factor), revived)
        assert revived_edges == step.cycle_edges()

    def test_move_cap_respected(self):
        from hamdeck.factor import component_budget

        g = complete_graph(21)
        tp = tri_partition(g, default_params(g, seed=0))
        cap = 2 * component_budget(21) + 1
        for seed in range(10):
            step = extract_hamilton_step(tp.core, tp.patch, seed)
            assert len(step.moves) <= cap

    def test_merge_and_close_deltas(self):
        # component count drops by one per merge; closure adds one edge
        g = complete_graph(21)
        tp = tri_partition(g, default_params(g, seed=0))
        step = extract_hamilton_step(tp.core, tp.patch, seed=11)
        edges = set(cover_edges(step.start_factor))
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
            _validate_cover(host, new)
            assert all(e in core.edges for op, e in move.steps if op == "+")
            assert len(cover_edges(new) - core.edges) < len(
                cover_edges(old) - core.edges
            )
            assert replay_moves(cover_edges(old), [move]) == cover_edges(new)
            rerouted.append(move)
            return out

        monkeypatch.setattr(rotation, "_reroute", checking)
        step = extract_hamilton_step(core, patch, 0)
        assert step.restarts == 0 and step.start_factor == start
        assert len(rerouted) >= 2
        assert list(step.moves) == rerouted
        assert {m.kind for m in step.moves} == {"reroute"}
        assert replay_moves(cover_edges(start), step.moves) == step.cycle_edges()
        assert step.new_core.regular_degree() == 2

    def test_factors_over_the_component_cap_are_redrawn(self, monkeypatch):
        # with a cap of 0 every draw is over it: each is discarded before
        # any move, and the restart loop ends in BudgetError
        g = complete_graph(21)
        tp = tri_partition(g, default_params(g, seed=0))
        merges = []
        monkeypatch.setattr(rotation, "component_budget", lambda n: 0)
        monkeypatch.setattr(rotation, "merge_step", lambda *a: merges.append(a))
        with pytest.raises(BudgetError, match="above the cap"):
            extract_hamilton_step(tp.core, tp.patch, seed=0)
        assert merges == []


def test_the_pipeline_keeps_the_engine_contract(monkeypatch):
    # the engine layers trust run_pipeline, their one caller, and check none
    # of their inputs; this holds the caller to what the removed checks
    # tested, on every call over nine runs
    calls = {"merge": 0, "rotate": 0, "gadget": 0, "step": 0}

    def check_cover(cover, core, patch):
        n = cover.host_n
        assert n == core.n == patch.n
        parts = cover.cycles + cover.pairs
        if isinstance(cover, PartialHC):
            parts += (cover.path,)
        assert all(0 <= v < n for part in parts for v in part)

    def wrap(module, name, key, check):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            check(*args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    def merging(factor, core, patch):
        check_cover(factor, core, patch)
        assert isinstance(factor, TwoFactor) and factor.component_count >= 2

    def rotating(partial, core, patch):
        assert isinstance(partial, PartialHC)
        check_cover(partial, core, patch)

    def gadget(core, patch, x, y, excluded):
        assert x != y
        assert len(excluded) <= core.n**0.6

    def stepping(core, patch, *rest):
        d = core.regular_degree()
        assert core.n == patch.n
        assert d is not None and d % 2 == 0 and d >= 4
        assert not core.edges & patch.edges

    wrap(rotation, "merge_step", "merge", merging)
    wrap(rotation, "rotate_or_close", "rotate", rotating)
    wrap(rotation, "substitution_gadget", "gadget", gadget)
    wrap(decompose, "extract_hamilton_step", "step", stepping)
    for g in (complete_graph(21), complete_graph(51), paley(53)):
        for seed in range(3):
            decompose.run_pipeline(g, seed=seed)
    assert min(calls.values()) > 0, calls


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
                rebuilt = build_partial(host, cover.path, cover.cycles, cover.pairs)
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
        calls, walks, draws, closed, rerouted = [], [], [], [], []
        validate = factor_mod._validate_cover
        walk = rotation._walk_cycle
        sample = rotation.sample_le2_factor
        close = rotation.rotate_or_close
        reroute = rotation._reroute

        def counting(*args):
            calls.append(args[0])
            return validate(*args)

        def walking(*args):
            walks.append(args[0])
            return walk(*args)

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
        monkeypatch.setattr(rotation, "_walk_cycle", walking)
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
        assert len(calls) == len(draws)
        assert len(walks) == finished
        return len(rerouted)

    def test_a_cycle_on_a_non_edge_is_an_internal_fault(self, monkeypatch):
        g = complete_graph(21)
        tp = tri_partition(g, default_params(g, seed=0))
        a, b = min(tp.residual.edges)
        # a Hamilton cycle of K21 through the residual edge (a, b)
        cycle = [a, b] + [v for v in range(21) if v not in (a, b)]
        bad = TwoFactor(21, (canonical_cycle(cycle),), ())
        monkeypatch.setattr(
            rotation, "rotate_or_close", lambda *args: (bad, Move("rotate-close", ()))
        )
        with pytest.raises(AssertionError, match="non-edge") as info:
            extract_hamilton_step(tp.core, tp.patch, seed=0)
        named = re.search(r"non-edge \((\d+), (\d+)\)", str(info.value)).groups()
        assert tuple(map(int, named)) in tp.residual.edges

    def test_a_cycle_repeating_a_vertex_is_an_internal_fault(self, monkeypatch):
        # a closed trail of K9's edges, each used once, through 0 twice and
        # missing 8: shaped like a Hamilton cycle, so the step walks it
        g = complete_graph(9)
        bad = TwoFactor(9, ((0, 1, 2, 0, 3, 4, 5, 6, 7),), ())
        assert bad.is_hamilton_cycle
        monkeypatch.setattr(rotation, "sample_le2_factor", lambda *a, **k: bad)
        with pytest.raises(AssertionError, match="misses or repeats a vertex"):
            extract_hamilton_step(g, empty_graph(9), seed=0)


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
    ("K21", 0): "0a21644edef93fcf7a29688a0027687e06efa925df7f64fbedcb39057d439fd8",
    ("K51", 1): "ddc35a94c4518c44ede834b33d15063d53a9fd8adbe9cef1a329faa5d8a80b20",
    ("K51", 3): "588d8eadc8e255b36b35796f5c2104be273e471cf4e5083c9cd395cb3e434642",
    ("P53", 1): "ba7439120ac5a3d45963269151f12164a763b68f8057f25658c6fcf7487d39c7",
    ("P53", 2): "15a88ccf95af66d615807d9b36c0ca06ca9cc86c8f235be5319606e1272332fd",
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
        kinds |= {m["kind"] for stats in run.step_stats for m in stats["moves"]}
    assert kinds == {"merge", "extend", "rotate-extend", "rotate-close", "reroute"}


# The same digests for the benchmark's own pipeline ops (kn-mid's K101 and
# large-n's K201 and Paley(197)) at seed 0, so that a change to the flow,
# the split, the rotation search or the residual cannot alter what the
# benchmark times.
PINNED_LARGE_RUNS = {
    "K101": "f2bbb3fda81e0a77ac8e8b9b193be04a668cb2b442d9bab89733c662e6c34dc5",
    "K201": "41579374d347b89f2805e593e01528c79d3a45652630d7d370fb5c6ac8c3466d",
    "P197": "92ce55f61c3a4188e5fccf59003a6db3fdc1de8f9f70693b94ca6a07f1da8b8f",
}


@pytest.mark.parametrize("name", sorted(PINNED_LARGE_RUNS))
def test_benchmark_pipeline_outputs_are_pinned(name):
    make = paley if name[0] == "P" else complete_graph
    run = decompose.run_pipeline(make(int(name[1:])), seed=0)
    blob = json.dumps(
        [run.decomposition.to_json_dict(), run.step_stats], sort_keys=True
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_LARGE_RUNS[name]
