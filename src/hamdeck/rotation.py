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
neither decodes neighbour lists nor copies an edge set.

A move derives its cover from the current one: the components it does not
absorb keep their canonical order, and a closure sorts its one new cycle in.
Only the sampled factor and each finished Hamilton cycle are validated, the
latter once per step by ``extract_hamilton_step``.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

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
    path: list[int], partial: PartialHC, comp_of, core: Graph, patch: Graph
) -> tuple[PartialHC, list[tuple[str, Edge]]] | None:
    """Extend the path's last endpoint into another component, if possible.

    Returns (partial, steps) or None: the lowest core, else patch, neighbour
    off the path, which lies in a component because the cover spans.
    """
    tip = path[-1]
    off_path = ~_mask_of(path)
    for src in (core, patch):
        for z in iter_bits(src.adj_bits[tip] & off_path):
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
    """Split positions 0..length-1 into s contiguous ranges (inclusive)."""
    base = length // s
    extra = length % s
    ranges = []
    start = 0
    for k in range(s):
        size = base + (1 if k < extra else 0)
        ranges.append((start, start + size - 1))
        start += size
    return ranges


def _interior_positions(rng: tuple[int, int]) -> range:
    return range(rng[0] + 1, rng[1])


def _rotation_round(paths, core: Graph, pivot_ok, at_start: bool = False) -> dict:
    """One bounded round of rotations over ``paths``, a sequence of
    (path, steps).  Each path is rotated at every pivot position i that
    ``pivot_ok(path, i)`` admits and whose vertex is a core neighbor of the
    rotated endpoint (the near one when ``at_start``, else the far one).

    Returns new endpoint -> (path, steps), keeping the first path per
    endpoint.  Reaching MAX_PIVOTS_PER_ROUND endpoints stops only the
    current path's scan, so later paths can still add one endpoint each.
    """
    found: dict[int, tuple[list[int], list]] = {}
    for p, steps in paths:
        if at_start:
            end, positions, rotate = p[0], range(2, len(p) - 1), _rotate_start
        else:
            end, positions, rotate = p[-1], range(1, len(p) - 2), _rotate_end
        row = core.adj_bits[end]
        for i in positions:
            if not pivot_ok(p, i) or not row >> p[i] & 1:
                continue
            q, st = rotate(p, i)
            key = q[0] if at_start else q[-1]
            if key not in found:
                found[key] = (q, steps + st)
            if len(found) >= MAX_PIVOTS_PER_ROUND:
                break
    return found


def _apparatus(partial: PartialHC, comp_of, core: Graph, patch: Graph, params):
    """Three bounded rotation rounds over split windows, then a closure.

    Round
      1. pivots near the far endpoint produce new far endpoints;
      2. pivots near the near endpoint produce new near endpoints;
      3. pivots outside both windows produce the closing endpoints.
    Extensions off the path are taken as soon as any round exposes one; a
    patch chord (core as fallback) between the final endpoint pairs closes
    the path into a cycle.
    """
    path = list(partial.path)
    n = len(path)
    if n < 6:
        return None
    last = n - 1
    s = max(2, min(ceil_frac(2 / params.delta), n // 3))
    segments = _segment_ranges(n, s)

    def count_pivots(endpoint: int, rng_: tuple[int, int], lo: int, hi: int) -> int:
        row = core.adj_bits[endpoint]
        return sum(
            1 for i in _interior_positions(rng_) if lo <= i <= hi and row >> path[i] & 1
        )

    end_counts = [count_pivots(path[-1], r, 1, last - 2) for r in segments]
    start_counts = [count_pivots(path[0], r, 2, last - 1) for r in segments]
    q_end = max(range(s), key=lambda k: (end_counts[k], -k))
    q_start = max(range(s), key=lambda k: (start_counts[k], -k))
    if q_end == q_start:
        # Split the shared segment into a start and an end window.  Each
        # window needs an interior pivot, so only a segment of >= 6 positions
        # scores above 0; with s = min(ceil(2/delta), L // 3) that takes a
        # path of L >= 5 * ceil(2/delta) + 1 vertices: K_n with n >= 1006 at
        # the default eps, and L >= 506 for any params the pipeline accepts
        # (eps < 0.1 and c < 1 give delta < 0.02).
        a, b = segments[q_end]
        if b - a < 3:
            return None
        best = None
        for m in range(a + 1, b - 1):
            for first_is_start in (True, False):
                left, right = (a, m), (m + 1, b)
                sw, ew = (left, right) if first_is_start else (right, left)
                score = min(
                    count_pivots(path[0], sw, 2, last - 1),
                    count_pivots(path[-1], ew, 1, last - 2),
                )
                if best is None or score > best[0]:
                    best = (score, sw, ew)
        if best is None or best[0] == 0:
            return None
        _, start_win, end_win = best
    else:
        start_win, end_win = segments[q_start], segments[q_end]
    start_interior = {path[i] for i in _interior_positions(start_win)}
    window_vertices = {
        path[i] for i in range(start_win[0], start_win[1] + 1)
    } | {path[i] for i in range(end_win[0], end_win[1] + 1)}

    def in_order(found: dict) -> list:
        return [found[key] for key in sorted(found)]

    def extension(found: dict, reverse: bool):
        for p, steps in in_order(found):
            ext = _extension_at_end(
                p[::-1] if reverse else p, partial, comp_of, core, patch
            )
            if ext:
                return ext[0], Move("rotate-extend", tuple(steps + ext[1]))
        return None

    # round 1: rotate the far endpoint, pivots inside the end window
    first = _rotation_round(
        [(path, [])], core, lambda p, i: end_win[0] < i < end_win[1]
    )
    if found := extension(first, reverse=False):
        return found
    # round 2: rotate the near endpoint, pivots inside the start window
    second = _rotation_round(
        in_order(first), core, lambda p, j: p[j] in start_interior, at_start=True
    )
    if found := extension(second, reverse=True):
        return found
    # round 3: rotate the far endpoint again, pivots outside both windows
    third = _rotation_round(
        in_order(second), core, lambda p, i: p[i] not in window_vertices
    )
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


def _fallback_search(partial: PartialHC, comp_of, core: Graph, patch: Graph):
    """Bounded breadth-first search over core-edge rotations from both ends,
    taking the first extension or closure found."""

    def canon(p: tuple[int, ...]) -> tuple[int, ...]:
        rp = p[::-1]
        return p if p <= rp else rp

    start = tuple(partial.path)
    seen = {canon(start)}
    queue: deque[tuple[tuple[int, ...], tuple]] = deque([(start, ())])
    visits = 0
    while queue:
        cur, steps = queue.popleft()
        visits += 1
        if visits > ROTATION_VISIT_CAP:
            break
        cur_list = list(cur)
        for oriented in (cur_list, cur_list[::-1]):
            ext = _extension_at_end(oriented, partial, comp_of, core, patch)
            if ext:
                move = Move("rotate-extend", steps + tuple(ext[1]), note="fallback")
                return ext[0], move
        closure = _closure_edge(cur_list, patch, core)
        if closure is not None:
            move = Move("rotate-close", steps + (("+", closure),), note="fallback")
            return _closed(partial, cur_list), move
        for i in range(1, len(cur_list) - 1):
            if i < len(cur_list) - 2 and core.has_edge(cur_list[i], cur_list[-1]):
                p_new, st = _rotate_end(cur_list, i)
                key = canon(tuple(p_new))
                if key not in seen:
                    seen.add(key)
                    queue.append((tuple(p_new), steps + tuple(st)))
            if i >= 2 and core.has_edge(cur_list[0], cur_list[i]):
                p_new, st = _rotate_start(cur_list, i)
                key = canon(tuple(p_new))
                if key not in seen:
                    seen.add(key)
                    queue.append((tuple(p_new), steps + tuple(st)))
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
    comp_of = _component_map(partial.cycles + partial.pairs)

    for oriented in (path, path[::-1]):
        ext = _extension_at_end(oriented, partial, comp_of, core, patch)
        if ext:
            return ext[0], Move("extend", tuple(ext[1]))
    found = _apparatus(partial, comp_of, core, patch, params)
    if found is None:
        found = _fallback_search(partial, comp_of, core, patch)
    if found is None:
        raise SearchFailedError("rotation rounds exhausted with no extension/closure")
    return found


# -- substitution gadget ---------------------------------------------------------


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
    if len(excluded) > n**0.6 + EPS:
        raise InputError(
            f"exclusion set of size {len(excluded)} exceeds capacity {n**0.6:.2f}"
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
        f"vertices (core degree {d}, capacity hint n^0.6={n**0.6:.2f})"
    )


# -- one full extraction ----------------------------------------------------------


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
    moves under a hard iteration cap, then substitutes gadget edges for any
    patch edges consumed by the cycle so the new core is exactly
    (d-2)-regular.  Las-Vegas: a factor above ``component_budget(n)``
    components is discarded before any move, and so is every dead end; the
    step redraws up to STEP_RESTARTS times, then raises BudgetError.
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
            # merge_step and rotate_or_close are looked up as module globals
            # on every call, so wrappers installed on this module see them
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
            # moves derive their covers unchecked, so an invalid cycle here is
            # an internal fault, not a dead end to redraw past
            try:
                final.validate_in(host)
            except InputError as exc:
                raise AssertionError(f"rotation moves built a bad cycle: {exc}") from exc

            cycle = final.cycles[0]
            cycle_edge_set = final.edge_set()
            # validated above: its edges are in range for bit tests
            cycle_in_patch = frozenset(
                e for e in cycle_edge_set if not core.adj_bits[e[0]] >> e[1] & 1
            )
            shared = sorted(cycle_in_patch)
            excluded: set[int] = {v for e in shared for v in e}
            promoted: list[Edge] = []
            dropped: list[Edge] = []
            for x, y in shared:
                if len(excluded) > n**0.6 + EPS:
                    raise SearchFailedError(
                        f"gadget exclusion set {len(excluded)} over capacity"
                    )
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
                patch_edges_in_cycle=frozenset(shared),
            )
        except SearchFailedError as exc:
            last_error = exc
            continue
    raise BudgetError(
        f"hamilton step failed after {STEP_RESTARTS} restarts "
        f"(last: {last_error})"
    )
