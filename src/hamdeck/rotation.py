"""Rotation-extension engine: turn a sampled (<=2)-factor into a Hamilton
cycle by alternately merging components and rotating/closing the path, then
repair the working core's regularity with substitution gadgets.

Both moves take the current structure and return ``(cover, Move)``:
``merge_step`` joins two components of a TwoFactor into a PartialHC, and
``rotate_or_close`` advances a PartialHC by trying, in order, an extension
at either endpoint, the windowed three-round rotation apparatus, and a
bounded breadth-first search over rotations.  The working core supplies
rotation pivots; the patch graph supplies closing and substitution edges
(with the core as fallback so the engine stays total at desk scale).  Every
move is an ordered list of edge operations, so a run can be replayed and
audited.  The engine reads bit rows only (``iter_bits`` neighbours in
increasing order, bit-test edges, bit-delta working graphs), so a step
neither decodes neighbour lists nor copies an edge set.  No rotation
changes the path's vertex set, so ``rotate_or_close`` builds the off-path
mask once for every extension test; a rotation round admits its pivots by a
vertex mask.

A move derives its cover from the current one: the components it does not
absorb keep their canonical order, and a closure sorts its one new cycle in.
Only the sampled factor and each finished Hamilton cycle are validated, the
latter by ``extract_hamilton_step``.

Each patch edge the cycle keeps costs a substitution gadget, and the
gadgets' exclusion set must stay within n^0.6.  It starts as the endpoints
of the patch edges and grows by exactly four vertices per gadget, so the
step knows before any gadget search whether the set would overflow.  Such a
cycle is rerouted: it is opened at its lowest patch edge and the
breadth-first search closes the Hamilton path again by core rotations and a
core chord, one ``reroute`` move each time, until the gadgets fit.  The step
redraws its factor only when a reroute gives up or a gadget is not found.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from itertools import islice

from .errors import BudgetError, InputError, SearchFailedError
from .factor import PartialHC, TwoFactor, component_budget, sample_le2_factor
from .graphs import Edge, Graph, _mask_of, iter_bits, norm_edge
from .util import EPS, ceil_frac, check_deadline, spawn_seed
from .walecki import canonical_cycle, cycle_edges

log = logging.getLogger(__name__)

# Endpoints at which one path's pivot scan stops in a rotation round; later
# paths still scan, so a round may end with one extra endpoint per later path.
MAX_PIVOTS_PER_ROUND = 32
# Factor draws per rotation step before the step gives up with BudgetError.
STEP_RESTARTS = 200
# Paths the breadth-first fallback search visits before giving up.
ROTATION_VISIT_CAP = 4000


@dataclass(frozen=True)
class Move:
    """One engine step as an ordered list of ('+'|'-', edge) operations."""

    kind: str
    steps: tuple[tuple[str, Edge], ...]
    note: str = ""

    def net_effect(self) -> tuple[frozenset[Edge], frozenset[Edge]]:
        added: set[Edge] = set()
        removed: set[Edge] = set()
        for op, e in self.steps:
            if op == "+":
                if e in removed:
                    removed.discard(e)
                else:
                    added.add(e)
            else:
                if e in added:
                    added.discard(e)
                else:
                    removed.add(e)
        return frozenset(added), frozenset(removed)

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "steps": [[op, list(e)] for op, e in self.steps]}
        if self.note:
            out["note"] = self.note
        return out


def replay_moves(initial_edges, moves) -> frozenset[Edge]:
    """Apply a move history to an edge set; raises on inconsistent steps."""
    edges = set(initial_edges)
    for move in moves:
        for op, e in move.steps:
            if op == "+":
                if e in edges:
                    raise InputError(f"replay: adding present edge {e}")
                edges.add(e)
            elif op == "-":
                if e not in edges:
                    raise InputError(f"replay: removing absent edge {e}")
                edges.discard(e)
            else:
                raise InputError(f"replay: unknown op {op!r}")
    return frozenset(edges)


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


def _check_sizes(cover, core: Graph, patch: Graph) -> None:
    if not cover.host_n == core.n == patch.n:
        raise InputError(
            f"cover on {cover.host_n} vertices, core on {core.n}, patch on {patch.n}"
        )


# -- merge ----------------------------------------------------------------------


def merge_step(factor: TwoFactor, core: Graph, patch: Graph) -> tuple[PartialHC, Move]:
    """Concatenate two components of a (<=2)-factor into one path.

    Picks a small component and a connecting edge, preferring the source
    graph the degree dichotomy prescribes (core when the component is
    smaller than the core degree, else patch) and falling back to either.
    """
    _check_sizes(factor, core, patch)
    if factor.component_count < 2:
        raise InputError("merge needs a factor with at least 2 components")
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


def _segment_ranges(length: int, s: int) -> list[tuple[int, int]]:
    """Split positions 0..length-1 into s contiguous ranges (inclusive), the
    first ``length % s`` of them one position longer than the rest."""
    base, extra = divmod(length, s)
    starts = [k * base + min(k, extra) for k in range(s + 1)]
    return [(a, b - 1) for a, b in zip(starts, starts[1:])]


def _rotation_round(
    paths, core: Graph, mask: int, at_start: bool = False, window=None
) -> dict:
    """One bounded round of rotations over ``paths``, a sequence of
    (path, steps).  Each path is rotated, in increasing order, at every pivot
    position whose vertex is in the vertex bitmask ``mask`` and is a core
    neighbour of the rotated endpoint (the near one when ``at_start``, else
    the far one), and, when a ``window`` (a, b) is given, strictly inside it.

    Returns new endpoint -> (path, steps), keeping the first path per
    endpoint.  Reaching MAX_PIVOTS_PER_ROUND endpoints stops only the
    current path's scan, so later paths can still add one endpoint each.
    """
    found: dict[int, tuple[list[int], list]] = {}
    for p, steps in paths:
        # pivots lie in 1..L-3 for the far endpoint, in 2..L-2 for the near one
        if at_start:
            end, lo, hi, shift, rotate = p[0], 2, len(p) - 1, -1, _rotate_start
        else:
            end, lo, hi, shift, rotate = p[-1], 1, len(p) - 2, 1, _rotate_end
        if window is not None:
            lo, hi = max(lo, window[0] + 1), min(hi, window[1])
        ok = core.adj_bits[end] & mask
        for i in [i for i in range(lo, hi) if ok >> p[i] & 1]:
            # the rotation's new endpoint is the pivot's neighbour away from it
            if (key := p[i + shift]) not in found:
                q, st = rotate(p, i)
                found[key] = (q, steps + st)
            if len(found) >= MAX_PIVOTS_PER_ROUND:
                break
    return found


def _apparatus(
    partial: PartialHC, off_path: int, comp_of, core: Graph, patch: Graph, params
):
    """Three bounded rotation rounds over two windows, then a closure.

    The path's positions are cut into segments; the far endpoint's window is
    the segment with the most pivots for it, the near endpoint's likewise.
    Round
      1. pivots inside the end window produce new far endpoints;
      2. pivots at the start window's interior vertices produce new near
         endpoints;
      3. pivots outside both windows produce the closing endpoints.
    Extensions off the path are taken as soon as any round exposes one; a
    patch chord (core as fallback) between the final endpoint pairs closes
    the path into a cycle.  When both endpoints prefer the same segment the
    apparatus gives up and leaves the path to the breadth-first fallback.
    """
    path = list(partial.path)
    n = len(path)
    if n < 6:
        return None
    s = max(2, min(ceil_frac(2 / params.delta), n // 3))
    segments = _segment_ranges(n, s)
    # one pass over the segments' interiors counts each endpoint's pivots,
    # which lie in 1..L-3 for the far endpoint and in 2..L-2 for the near one
    end_row = core.adj_bits[path[-1]] & ~(1 << path[-2])
    start_row = core.adj_bits[path[0]] & ~(1 << path[1])
    end_counts, start_counts = [0] * s, [0] * s
    for k, (a, b) in enumerate(segments):
        for v in path[a + 1 : b]:
            end_counts[k] += end_row >> v & 1
            start_counts[k] += start_row >> v & 1
    # each window is the first segment with the most pivots
    q_end = end_counts.index(max(end_counts))
    q_start = start_counts.index(max(start_counts))
    if q_end == q_start:
        # two windows in one segment need >= 6 positions, so a path of
        # L >= 5 * ceil(2/delta) + 1 >= 506 vertices (eps < 0.1 and c < 1
        # give delta < 0.02); the fallback search takes such paths instead
        return None
    start_win, end_win = segments[q_start], segments[q_end]
    start_interior = _mask_of(path[start_win[0] + 1 : start_win[1]])
    windows = path[start_win[0] : start_win[1] + 1] + path[end_win[0] : end_win[1] + 1]
    window_vertices = _mask_of(windows)

    def in_order(found: dict) -> list:
        return [found[key] for key in sorted(found)]

    def extension(found: dict, reverse: bool):
        for p, steps in in_order(found):
            ext = _extension_at_end(
                p[::-1] if reverse else p, off_path, partial, comp_of, core, patch
            )
            if ext:
                return ext[0], Move("rotate-extend", tuple(steps + ext[1]))
        return None

    # round 1: rotate the far endpoint, pivots inside the end window
    first = _rotation_round([(path, [])], core, -1, window=end_win)
    if found := extension(first, reverse=False):
        return found
    # round 2: rotate the near endpoint, pivots at the start window's interior
    second = _rotation_round(in_order(first), core, start_interior, at_start=True)
    if found := extension(second, reverse=True):
        return found
    # round 3: rotate the far endpoint again, pivots outside both windows
    third = _rotation_round(in_order(second), core, ~window_vertices)
    log.debug(
        "rotation rounds: %d segments, endpoint sets %d/%d/%d",
        s,
        len(first),
        len(second),
        len(third),
    )

    candidates = list(second.items()) + list(third.items())
    for src in (patch, core):
        for _, (p, steps) in sorted(candidates, key=lambda kv: kv[0]):
            if len(p) >= 3 and src.has_edge(p[0], p[-1]):
                closure = norm_edge(p[0], p[-1])
                move = Move("rotate-close", tuple(steps + [("+", closure)]))
                return _closed(partial, p), move
    return None


def _fallback_search(
    partial: PartialHC, off_path: int, comp_of, core: Graph, patch: Graph
):
    """Bounded breadth-first search over core-edge rotations from both ends,
    taking the first extension or closure found.

    Each path is tested (both extensions, then closure) as soon as it is
    made, in the order paths are made; that is the order a FIFO queue pops
    them, so the first hit is the same, without building the rest of its
    parent's rotations.  At most ROTATION_VISIT_CAP paths are tested.
    """

    def canon(p: tuple[int, ...]) -> tuple[int, ...]:
        rp = p[::-1]
        return p if p <= rp else rp

    def made():
        """(path, steps) for the start path, then each new rotation."""
        start = list(partial.path)
        seen = {canon(tuple(start))}
        queue = deque([(start, ())])
        yield start, ()
        while queue:
            cur, steps = queue.popleft()
            end_row, start_row = core.adj_bits[cur[-1]], core.adj_bits[cur[0]]
            for i in range(1, len(cur) - 1):
                rotated = []
                if i < len(cur) - 2 and end_row >> cur[i] & 1:
                    rotated.append(_rotate_end(cur, i))
                if i >= 2 and start_row >> cur[i] & 1:
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
                move = Move("rotate-extend", steps + tuple(ext[1]), note="fallback")
                return ext[0], move
        closure = _closure_edge(cur, patch, core)
        if closure is not None:
            move = Move("rotate-close", steps + (("+", closure),), note="fallback")
            return _closed(partial, cur), move
    return None


def rotate_or_close(
    partial: PartialHC, core: Graph, patch: Graph, params
) -> tuple[TwoFactor | PartialHC, Move]:
    """Advance a partial Hamilton cycle: absorb another component (one fewer
    component) or close the path into a cycle (same components, one more
    edge).  Tries endpoint extensions, then the windowed rotation apparatus,
    then the breadth-first fallback; raises SearchFailedError when all
    fail."""
    if not isinstance(partial, PartialHC):
        raise InputError("rotate_or_close needs a PartialHC")
    _check_sizes(partial, core, patch)
    path = list(partial.path)
    off_path = ~_mask_of(path)
    comp_of = _component_map(partial.cycles + partial.pairs)

    for oriented in (path, path[::-1]):
        ext = _extension_at_end(oriented, off_path, partial, comp_of, core, patch)
        if ext:
            return ext[0], Move("extend", tuple(ext[1]))
    found = _apparatus(partial, off_path, comp_of, core, patch, params)
    if found is None:
        found = _fallback_search(partial, off_path, comp_of, core, patch)
    if found is None:
        raise SearchFailedError("rotation rounds exhausted with no extension/closure")
    return found


def _reroute(
    cycle: TwoFactor, edge: Edge, core: Graph
) -> tuple[TwoFactor, Move] | None:
    """Trade the Hamilton cycle's patch edge ``edge`` for core edges.

    Opens the cycle at ``edge`` and runs the breadth-first fallback on that
    Hamilton path with nothing off it and the core as the closing graph, so
    every pivot and the closing chord are core edges and the new cycle holds
    fewer patch edges.  Returns None when the search gives up.
    """
    comp = cycle.cycles[0]
    a, b = edge
    z = a if comp[(comp.index(a) + 1) % len(comp)] == b else b
    path, _ = _open_at(comp, z)
    partial = PartialHC(cycle.host_n, tuple(path), (), ())
    found = _fallback_search(partial, 0, {}, core, core)
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
    core: Graph,
    patch: Graph,
    x: int,
    y: int,
    excluded,
    *,
    avoid_edges: frozenset[Edge] = frozenset(),
) -> tuple[int, int, int, int]:
    """Find x1, x2, y1, y2 outside the exclusion set with core edges
    x-x1, y-y1, x2-y2 and patch edges x1-x2, y1-y2, none in ``avoid_edges``.

    Used to rebalance core degrees when the extracted cycle consumed patch
    edges; callers accumulate used endpoints into the exclusion set.
    """
    if x == y:
        raise InputError("gadget endpoints must be distinct")
    n = core.n
    banned = set(excluded) | {x, y}
    if len(excluded) > _gadget_capacity(n):
        raise InputError(
            f"exclusion set of size {len(excluded)} exceeds capacity "
            f"{_gadget_capacity(n):.2f}"
        )

    def usable(u: int, v: int) -> bool:
        return norm_edge(u, v) not in avoid_edges

    for x1 in iter_bits(core.adj_bits[x]):
        if x1 in banned or not usable(x, x1):
            continue
        for x2 in iter_bits(patch.adj_bits[x1]):
            if x2 in banned or x2 == x1 or not usable(x1, x2):
                continue
            for y1 in iter_bits(core.adj_bits[y]):
                if y1 in banned or y1 in (x1, x2) or not usable(y, y1):
                    continue
                for y2 in iter_bits(patch.adj_bits[y1]):
                    if (
                        y2 in banned
                        or y2 in (x1, x2, y1)
                        or not usable(y1, y2)
                        or not core.has_edge(x2, y2)
                        or not usable(x2, y2)
                    ):
                        continue
                    return (x1, x2, y1, y2)
    d = core.regular_degree()
    raise SearchFailedError(
        f"no substitution gadget for ({x}, {y}) with {len(excluded)} excluded "
        f"vertices (core degree {d}, capacity n^0.6={_gadget_capacity(n):.2f})"
    )


# -- one full extraction ----------------------------------------------------------


def _check_cycle(final: TwoFactor, host: Graph) -> None:
    """Validate a finished cycle in the host.  Moves derive their covers
    unchecked, so an invalid cycle is an internal fault, not a dead end to
    redraw past."""
    try:
        final.validate_in(host)
    except InputError as exc:
        raise AssertionError(f"rotation moves built a bad cycle: {exc}") from exc


def _edges_and_patch_edges(
    final: TwoFactor, core: Graph
) -> tuple[frozenset[Edge], list[Edge]]:
    """A validated cycle's edges, and those not in the core, sorted."""
    edges = final.edge_set()
    # validated: its edges are in range for bit tests
    return edges, sorted(e for e in edges if not core.adj_bits[e[0]] >> e[1] & 1)


@dataclass(frozen=True)
class StepResult:
    """Outcome of one Hamilton-cycle extraction from (core, patch).

    ``dropped_core`` holds core edges removed beyond the cycle itself;
    ``promoted_patch`` holds patch edges moved into the new core.  The exact
    accounting identity is
    core ∪ patch = new_core ⊎ new_patch ⊎ cycle ⊎ dropped_core.
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

    def cycle_edges(self) -> frozenset[Edge]:
        return cycle_edges(self.cycle)


def extract_hamilton_step(
    core: Graph, patch: Graph, params, seed: int
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
    BudgetError.
    """
    if core.n != patch.n:
        raise InputError("core and patch must share a vertex set")
    d = core.regular_degree()
    if d is None:
        raise InputError("core must be regular")
    if d % 2 != 0 or d < 4:
        raise InputError(f"core degree must be even and >= 4, got {d}")
    n = core.n
    host = core.union(patch)  # InputError if they share an edge
    budget = component_budget(n)
    cap = 2 * budget + 1

    last_error: Exception | None = None
    for restart in range(STEP_RESTARTS):
        check_deadline(params.deadline, "hamilton step")
        try:
            factor = sample_le2_factor(
                core,
                spawn_seed(seed, "draw", restart),
                deadline=params.deadline,
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
                    final, move = rotate_or_close(final, core, patch, params)
                moves.append(move)
            if not (isinstance(final, TwoFactor) and final.is_hamilton_cycle):
                raise SearchFailedError(f"no Hamilton cycle within {cap} moves")
            _check_cycle(final, host)
            cycle_edge_set, shared = _edges_and_patch_edges(final, core)
            # a cycle whose gadgets would overflow the exclusion set trades
            # its lowest patch edge for core edges until they fit; the step
            # redraws only when a reroute gives up
            while (peak := _peak_exclusion(shared)) > _gadget_capacity(n):
                rerouted = _reroute(final, shared[0], core)
                if rerouted is None:
                    raise SearchFailedError(
                        f"gadget exclusion set {peak} over capacity"
                    )
                final, move = rerouted
                moves.append(move)
                _check_cycle(final, host)
                cycle_edge_set, shared = _edges_and_patch_edges(final, core)

            cycle = final.cycles[0]
            cycle_in_patch = frozenset(shared)
            excluded: set[int] = {v for e in shared for v in e}
            promoted: list[Edge] = []
            dropped: list[Edge] = []
            for x, y in shared:
                avoid = cycle_edge_set | frozenset(promoted) | frozenset(dropped)
                x1, x2, y1, y2 = substitution_gadget(
                    core, patch, x, y, excluded, avoid_edges=avoid
                )
                promoted.extend((norm_edge(x1, x2), norm_edge(y1, y2)))
                dropped.extend(
                    (norm_edge(x, x1), norm_edge(y, y1), norm_edge(x2, y2))
                )
                excluded.update((x1, x2, y1, y2))

            promoted_set = frozenset(promoted)
            dropped_set = frozenset(dropped)
            # with core ∩ patch = ∅, these four facts give the identity
            # core ∪ patch = new_core ⊎ new_patch ⊎ cycle ⊎ dropped_core
            if not (
                all(core.has_edge(*e) for e in dropped_set)
                and all(patch.has_edge(*e) for e in promoted_set | cycle_in_patch)
                and cycle_edge_set.isdisjoint(dropped_set | promoted_set)
            ):
                raise AssertionError("edge accounting identity violated")
            new_core = core._edited(
                (cycle_edge_set - cycle_in_patch) | dropped_set, promoted_set
            )
            new_patch = patch._edited(cycle_in_patch | promoted_set, frozenset())
            degs = set(new_core.degrees())
            if degs != {d - 2}:
                raise AssertionError(
                    f"rebalanced core degrees {degs}, expected {{{d - 2}}}"
                )

            return StepResult(
                cycle=cycle,
                new_core=new_core,
                new_patch=new_patch,
                dropped_core=dropped_set,
                promoted_patch=promoted_set,
                start_factor=factor,
                moves=tuple(moves),
                restarts=restart,
                patch_edges_in_cycle=cycle_in_patch,
            )
        except SearchFailedError as exc:
            last_error = exc
            continue
    raise BudgetError(
        f"hamilton step failed after {STEP_RESTARTS} restarts "
        f"(last: {last_error})"
    )
