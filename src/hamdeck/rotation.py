"""Rotation-extension engine: turn a sampled (<=2)-factor into a Hamilton
cycle by alternately merging components and rotating/closing the path, then
repair the working core's regularity with substitution gadgets.

Both moves take the current structure and return ``(cover, Move)``:
``merge_step`` joins two components of a TwoFactor into a PartialHC, and
``rotate_or_close`` advances a PartialHC by a bounded breadth-first search
over Pósa rotations that takes the first extension or closure it reaches.
The paper's proof schedules these rotations as three rounds over two
windows of the path; a breadth-first search over the same moves replaces
that schedule, because on the benchmark inputs the search alone found a
move in every call and was faster.  The working core supplies rotation
pivots; the patch graph supplies closing and substitution edges (with the
core as fallback so the engine stays total at desk scale).  Every move is
an ordered list of edge operations, so a run can be replayed and audited.
The engine reads bit rows only (``iter_bits`` neighbours in increasing
order, bit-test edges), so a step neither decodes neighbour lists nor
copies an edge set.

A move derives its cover from the current one: the components it does not
absorb keep their canonical order, and a closure sorts its one new cycle in.
The engine trusts its one caller, ``run_pipeline``, and checks no cover, core
or patch it is given.  The sampled factor is validated, and each finished
Hamilton cycle is checked by the walk that strips it.

Each patch edge the cycle keeps costs a substitution gadget, and the
gadgets' exclusion set must stay within n^0.6.  It starts as the endpoints
of the patch edges and grows by exactly four vertices per gadget, so the
step knows before any gadget search whether the set would overflow.  Such a
cycle is rerouted: it is opened at its lowest patch edge and the
breadth-first search closes the Hamilton path again by core rotations and a
core chord, one ``reroute`` move each time, until the gadgets fit.  The step
redraws its factor only when a reroute gives up or a gadget is not found.
Each finished cycle, rerouted or not, is walked once: the walk checks it,
strips it from the core's and the patch's bit rows and lists its patch
edges.  Every gadget is searched in those stripped rows, and its edges are
then cleared from the rows that become the new core and patch.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from itertools import islice

from .errors import BudgetError, SearchFailedError
from .factor import PartialHC, TwoFactor, component_budget, sample_le2_factor
from .graphs import (
    Edge,
    Graph,
    _first_edge,
    _mask_of,
    iter_bits,
    norm_edge,
    single_bits,
)
from .util import EPS, check_deadline, spawn_seed
from .walecki import canonical_cycle

# Factor draws per rotation step before the step gives up with BudgetError.
STEP_RESTARTS = 200
# Paths the breadth-first rotation search tests before giving up.
ROTATION_VISIT_CAP = 4000


@dataclass(frozen=True)
class Move:
    """One engine step as an ordered list of ('+'|'-', edge) operations."""

    kind: str
    steps: tuple[tuple[str, Edge], ...]

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "steps": [[op, list(e)] for op, e in self.steps]}


# -- component helpers ---------------------------------------------------------
# A cover's components other than its path are ``cover.cycles + cover.pairs``;
# an isolated edge is a component of two vertices.  Moves build their result
# from these tuples directly and never re-validate it.


def _component_map(comps) -> dict[int, tuple[int, ...]]:
    """Each vertex of ``comps`` mapped to the component that holds it."""
    return {v: comp for comp in comps for v in comp}


def _open_at(comp: tuple[int, ...], z: int) -> tuple[list[int], Edge | None]:
    """Component ``comp`` as a path piece starting at z, plus the cycle edge
    dropped to open it (None for an isolated edge)."""
    k = len(comp)
    i = comp.index(z)
    if k == 2:
        return [z, comp[1 - i]], None
    return [comp[(i - j) % k] for j in range(k)], norm_edge(z, comp[(i + 1) % k])


def _extended(cover, path: list[int], *taken: tuple[int, ...]) -> PartialHC:
    """``cover`` with the components ``taken`` absorbed into ``path``; the
    rest keep their canonical order."""
    return PartialHC(
        cover.host_n,
        tuple(path),
        tuple(c for c in cover.cycles if c not in taken),
        tuple(p for p in cover.pairs if p not in taken),
    )


def _closed(partial: PartialHC, path: list[int]) -> TwoFactor:
    """``partial`` with ``path`` (its path after rotations) closed into a
    cycle that is sorted in among the others."""
    cycles = sorted(partial.cycles + (canonical_cycle(path),))
    return TwoFactor(partial.host_n, tuple(cycles), partial.pairs)


# -- merge ----------------------------------------------------------------------


def merge_step(factor: TwoFactor, core: Graph, patch: Graph) -> tuple[PartialHC, Move]:
    """Concatenate two components of a (<=2)-factor into one path.

    Picks a small component and a connecting edge, preferring the source
    graph the degree dichotomy prescribes (core when the component is
    smaller than the core degree, else patch) and falling back to either.
    """
    comps = factor.cycles + factor.pairs
    comp_of = _component_map(comps)
    d = core.regular_degree()
    if d is None:
        d = min(core.degrees(), default=0)

    # small cycles first, then pairs; deterministic tie-break by min vertex
    for comp in sorted(comps, key=lambda c: (len(c) == 2, len(c), min(c))):
        outside = ~_mask_of(comp)
        prescribed = core if len(comp) < d else patch
        other = patch if prescribed is core else core
        for src in (prescribed, other):
            for u in sorted(comp):
                for v in iter_bits(src.adj_bits[u] & outside):
                    left, removed = _open_at(comp, u)
                    right, removed_o = _open_at(comp_of[v], v)
                    steps = [("-", e) for e in (removed, removed_o) if e is not None]
                    steps.append(("+", norm_edge(u, v)))
                    partial = _extended(factor, left[::-1] + right, comp, comp_of[v])
                    return partial, Move("merge", tuple(steps))
    raise SearchFailedError("no edge connects any factor component to another")


# -- rotations -------------------------------------------------------------------


def _rotate_end(path: list[int], i: int) -> tuple[list[int], list[tuple[str, Edge]]]:
    steps = [
        ("+", norm_edge(path[i], path[-1])),
        ("-", norm_edge(path[i], path[i + 1])),
    ]
    return path[: i + 1] + path[i + 1 :][::-1], steps


def _rotate_start(path: list[int], j: int) -> tuple[list[int], list[tuple[str, Edge]]]:
    steps = [
        ("+", norm_edge(path[0], path[j])),
        ("-", norm_edge(path[j - 1], path[j])),
    ]
    return path[:j][::-1] + path[j:], steps


def _extension_at_end(
    path: list[int], off_path: int, partial: PartialHC, comp_of,
    core: Graph, patch: Graph,
) -> tuple[PartialHC, list[tuple[str, Edge]]] | None:
    """Extend the path's last endpoint into another component, if possible.

    Returns (partial, steps) or None: the lowest core, else patch, neighbour
    in ``off_path`` (the vertices off the path, which no rotation changes),
    which lies in a component because the cover spans.
    """
    tip = path[-1]
    for src in (core, patch):
        if row := src.adj_bits[tip] & off_path:
            z = (row & -row).bit_length() - 1
            piece, removed = _open_at(comp_of[z], z)
            steps: list[tuple[str, Edge]] = [("+", norm_edge(tip, z))]
            if removed is not None:
                steps.append(("-", removed))
            return _extended(partial, path + piece, comp_of[z]), steps
    return None


def _closure_edge(path: list[int], patch: Graph, core: Graph) -> Edge | None:
    """A chord between the path's endpoints, patch-first; None if absent."""
    if len(path) < 3:
        return None
    a, b = path[0], path[-1]
    if patch.has_edge(a, b) or core.has_edge(a, b):
        return norm_edge(a, b)
    return None


def _rotation_search(partial: PartialHC, core: Graph, patch: Graph):
    """Bounded breadth-first search over core-edge rotations from both ends,
    taking the first extension or closure found.

    Each path is tested (both extensions, then closure) as soon as it is
    made, in the order paths are made; that is the order a FIFO queue pops
    them, so the first hit is the same, without building the rest of its
    parent's rotations.  The start path is tested first, and an extension
    of it is an ``extend`` move; an extension after rotations is a
    ``rotate-extend`` move.  No rotation changes the path's vertex set, so
    one off-path mask, of the component map's vertices, serves every
    extension test.  At most ROTATION_VISIT_CAP paths are tested.
    """
    comp_of = _component_map(partial.cycles + partial.pairs)
    off_path = _mask_of(comp_of)
    bit = single_bits(core.n)

    def canon(p: tuple[int, ...]) -> tuple[int, ...]:
        rp = p[::-1]
        return p if p <= rp else rp

    def made():
        """(path, steps) for the start path, then each new rotation."""
        start = list(partial.path)
        yield start, ()  # most searches end here, before any state is built
        seen = {canon(tuple(start))}
        queue = deque([(start, ())])
        while queue:
            cur, steps = queue.popleft()
            end_row, start_row = core.adj_bits[cur[-1]], core.adj_bits[cur[0]]
            for i in range(1, len(cur) - 1):
                rotated = []
                if i < len(cur) - 2 and end_row & bit[cur[i]]:
                    rotated.append(_rotate_end(cur, i))
                if i >= 2 and start_row & bit[cur[i]]:
                    rotated.append(_rotate_start(cur, i))
                for p_new, st in rotated:
                    key = canon(tuple(p_new))
                    if key not in seen:
                        seen.add(key)
                        item = (p_new, steps + tuple(st))
                        queue.append(item)
                        yield item

    for cur, steps in islice(made(), ROTATION_VISIT_CAP):
        for oriented in (cur, cur[::-1]):
            ext = _extension_at_end(oriented, off_path, partial, comp_of, core, patch)
            if ext:
                kind = "rotate-extend" if steps else "extend"
                return ext[0], Move(kind, steps + tuple(ext[1]))
        closure = _closure_edge(cur, patch, core)
        if closure is not None:
            move = Move("rotate-close", steps + (("+", closure),))
            return _closed(partial, cur), move
    return None


def rotate_or_close(
    partial: PartialHC, core: Graph, patch: Graph
) -> tuple[TwoFactor | PartialHC, Move]:
    """Advance a partial Hamilton cycle: absorb another component (one fewer
    component) or close the path into a cycle (same components, one more
    edge), by the breadth-first rotation search (``_rotation_search``);
    raises SearchFailedError when it finds neither."""
    found = _rotation_search(partial, core, patch)
    if found is None:
        raise SearchFailedError("rotation search exhausted with no extension/closure")
    return found


def _reroute(
    cycle: TwoFactor, edge: Edge, core: Graph
) -> tuple[TwoFactor, Move] | None:
    """Trade the Hamilton cycle's patch edge ``edge`` for core edges.

    Opens the cycle at ``edge`` and runs the breadth-first search on that
    Hamilton path with nothing off it and the core as the closing graph, so
    every pivot and the closing chord are core edges and the new cycle holds
    fewer patch edges.  Returns None when the search gives up.
    """
    comp = cycle.cycles[0]
    a, b = edge
    z = a if comp[(comp.index(a) + 1) % len(comp)] == b else b
    path, _ = _open_at(comp, z)
    partial = PartialHC(cycle.host_n, tuple(path), (), ())
    found = _rotation_search(partial, core, core)
    if found is None:
        return None
    closed, move = found
    return closed, Move("reroute", (("-", edge),) + move.steps)


# -- substitution gadget ---------------------------------------------------------


def _gadget_capacity(n: int) -> float:
    """The most vertices a gadget search may exclude on n vertices, n^0.6."""
    return n**0.6 + EPS


def _peak_exclusion(shared: list[Edge]) -> int:
    """The exclusion set that the last gadget for the k patch edges
    ``shared`` sees: their endpoints, plus the four new vertices each earlier
    gadget adds, |V(shared)| + 4(k - 1).  0 when there is no patch edge."""
    if not shared:
        return 0
    return len({v for e in shared for v in e}) + 4 * (len(shared) - 1)


def substitution_gadget(
    core: Graph, patch: Graph, x: int, y: int, excluded
) -> tuple[int, int, int, int]:
    """Find x1, x2, y1, y2 outside the exclusion set with core edges
    x-x1, y-y1, x2-y2 and patch edges x1-x2, y1-y2.

    Used to rebalance core degrees when the extracted cycle consumed patch
    edges.  ``extract_hamilton_step`` searches every gadget in core and
    patch less the cycle and adds the used endpoints to the exclusion set,
    so no gadget can take an earlier one's edges: both ends of those are in
    the set, and every edge read here ends at x1, x2, y1 or y2, outside it.
    Candidates are bit masks, searched in increasing x1, x2, y1, y2 order.
    The step passes x != y and at most n^0.6 excluded vertices.
    """
    n = core.n
    core_rows, patch_rows, bit = core.adj_bits, patch.adj_bits, single_bits(n)
    allowed = ~(_mask_of(excluded) | bit[x] | bit[y])
    for x1 in iter_bits(core_rows[x] & allowed):
        for x2 in iter_bits(patch_rows[x1] & allowed):
            taken = bit[x1] | bit[x2]
            for y1 in iter_bits(core_rows[y] & allowed & ~taken):
                y2s = patch_rows[y1] & core_rows[x2] & allowed & ~(taken | bit[y1])
                if y2s:
                    return (x1, x2, y1, (y2s & -y2s).bit_length() - 1)
    raise SearchFailedError(
        f"no substitution gadget for ({x}, {y}) with {len(excluded)} excluded "
        f"vertices (capacity n^0.6={_gadget_capacity(n):.2f})"
    )


# -- one full extraction ----------------------------------------------------------


def _walk_cycle(cycle: tuple[int, ...], core: Graph, patch: Graph):
    """One walk of a finished cycle: the core's and the patch's rows less the
    cycle, and its patch edges, sorted.  Moves derive their covers unchecked,
    so an edge in neither row, or a missed or repeated vertex, is an internal
    fault (AssertionError), not a dead end to redraw past."""
    core_rows, patch_rows = list(core.adj_bits), list(patch.adj_bits)
    bit = single_bits(core.n)
    shared: list[Edge] = []
    seen = 0
    u = cycle[-1]
    for v in cycle:
        bu, bv = bit[u], bit[v]
        if patch_rows[u] & bv:
            shared.append(norm_edge(u, v))
            patch_rows[u] ^= bv
            patch_rows[v] ^= bu
        elif core_rows[u] & bv:
            core_rows[u] ^= bv
            core_rows[v] ^= bu
        else:
            raise AssertionError(
                f"rotation moves built a bad cycle: uses non-edge {norm_edge(u, v)}"
            )
        seen |= bv
        u = v
    if len(cycle) != core.n or seen.bit_count() != core.n:
        raise AssertionError(
            "rotation moves built a bad cycle: misses or repeats a vertex"
        )
    return core_rows, patch_rows, sorted(shared)


def _take(rows: list[int], edges) -> list[Edge]:
    """Clear the edges from the working rows; an edge that is not there
    breaks the accounting identity."""
    bit = single_bits(len(rows))
    for u, v in edges:
        if not rows[u] & bit[v]:
            raise AssertionError("edge accounting identity violated")
        rows[u] ^= bit[v]
        rows[v] ^= bit[u]
    return [norm_edge(u, v) for u, v in edges]


@dataclass(frozen=True)
class StepResult:
    """Outcome of one Hamilton-cycle extraction from (core, patch).

    ``dropped_core`` holds core edges removed beyond the cycle itself;
    ``promoted_patch`` holds patch edges moved into the new core.  The
    gadgets that supply both are searched in core and patch less the cycle,
    not less the earlier gadgets too: those edges have both ends in the
    exclusion set, which a search reads no edge within.  Every moved edge
    is checked present in the rows it leaves, so the exact accounting
    identity core ∪ patch = new_core ⊎ new_patch ⊎ cycle ⊎ dropped_core
    holds; ``run_pipeline`` builds its residual from it.
    """

    cycle: tuple[int, ...]
    new_core: Graph
    new_patch: Graph
    dropped_core: frozenset[Edge]
    promoted_patch: frozenset[Edge]
    start_factor: TwoFactor
    moves: tuple[Move, ...]
    restarts: int
    patch_edges_in_cycle: frozenset[Edge]


def extract_hamilton_step(
    core: Graph, patch: Graph, seed: int, *, deadline: float | None = None
) -> StepResult:
    """Extract one Hamilton cycle from core ∪ patch and rebalance the core.

    Samples a (<=2)-factor of the core, alternates merge and rotate/close
    moves under a hard iteration cap, reroutes a cycle whose gadgets would
    overflow the exclusion set through core rotations, then substitutes
    gadget edges for any patch edges consumed by the cycle so the new core
    is exactly (d-2)-regular.  Las-Vegas: a factor above
    ``component_budget(n)`` components is discarded before any move, and so
    is every dead end, including a reroute that reaches ROTATION_VISIT_CAP
    paths; the step redraws up to STEP_RESTARTS times, then raises
    BudgetError, as it does once ``deadline`` has passed.
    """
    n, d = core.n, core.regular_degree()
    # the reroute loop below ends only because no patch edge is also a core edge
    overlap = _first_edge(map(operator.and_, core.adj_bits, patch.adj_bits))
    if overlap is not None:
        raise AssertionError(f"core and patch share edge {overlap}")
    budget = component_budget(n)
    cap = 2 * budget + 1

    last_error: Exception | None = None
    for restart in range(STEP_RESTARTS):
        check_deadline(deadline, "hamilton step")
        try:
            factor = sample_le2_factor(
                core, spawn_seed(seed, "draw", restart), deadline=deadline
            )
            if factor.component_count > budget:
                raise SearchFailedError(
                    f"factor has {factor.component_count} components, "
                    f"above the cap {budget}"
                )
            # merge_step, rotate_or_close and _reroute are looked up as module
            # globals on every call, so wrappers installed on this module see
            # them
            final: TwoFactor | PartialHC = factor
            moves: list[Move] = []
            for _ in range(cap):
                if isinstance(final, TwoFactor):
                    if final.is_hamilton_cycle:
                        break
                    final, move = merge_step(final, core, patch)
                else:
                    final, move = rotate_or_close(final, core, patch)
                moves.append(move)
            if not (isinstance(final, TwoFactor) and final.is_hamilton_cycle):
                raise SearchFailedError(f"no Hamilton cycle within {cap} moves")
            # a cycle whose gadgets would overflow the exclusion set trades
            # its lowest patch edge for core edges until they fit; the step
            # redraws only when a reroute gives up
            while True:
                core_rows, patch_rows, shared = _walk_cycle(
                    final.cycles[0], core, patch
                )
                if (peak := _peak_exclusion(shared)) <= _gadget_capacity(n):
                    break
                rerouted = _reroute(final, shared[0], core)
                if rerouted is None:
                    raise SearchFailedError(f"gadget exclusion set {peak} over capacity")
                final, move = rerouted
                moves.append(move)

            # every gadget is searched in the rows less the cycle, made into
            # graphs once; StepResult says why no earlier gadget is cleared
            core_free = Graph._derived(n, tuple(core_rows))
            patch_free = Graph._derived(n, tuple(patch_rows))
            excluded: set[int] = {v for e in shared for v in e}
            promoted: list[Edge] = []
            dropped: list[Edge] = []
            for x, y in shared:
                x1, x2, y1, y2 = substitution_gadget(
                    core_free, patch_free, x, y, excluded
                )
                dropped += _take(core_rows, ((x, x1), (y, y1), (x2, y2)))
                promoted += _take(patch_rows, ((x1, x2), (y1, y2)))
                excluded.update((x1, x2, y1, y2))
            for u, v in promoted:  # core ∩ patch = ∅: these bits are clear
                core_rows[u] |= 1 << v
                core_rows[v] |= 1 << u
            new_core = Graph._derived(n, tuple(core_rows))
            new_patch = Graph._derived(n, tuple(patch_rows))
            degs = set(new_core.degrees())
            if degs != {d - 2}:
                raise AssertionError(
                    f"rebalanced core degrees {degs}, expected {{{d - 2}}}"
                )

            return StepResult(
                cycle=final.cycles[0],
                new_core=new_core,
                new_patch=new_patch,
                dropped_core=frozenset(dropped),
                promoted_patch=frozenset(promoted),
                start_factor=factor,
                moves=tuple(moves),
                restarts=restart,
                patch_edges_in_cycle=frozenset(shared),
            )
        except SearchFailedError as exc:
            last_error = exc
            continue
    raise BudgetError(
        f"hamilton step failed after {STEP_RESTARTS} restarts "
        f"(last: {last_error})"
    )
