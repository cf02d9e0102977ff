"""Rotation-extension engine: turn a sampled (<=2)-factor into a Hamilton
cycle by alternately merging components and rotating/closing the path, then
repair the working core's regularity with substitution gadgets.

The working core supplies rotation pivots; the patch graph supplies closing
and substitution edges (with the core as fallback so the engine stays total
at desk scale).  Every structural change is recorded as an ordered move so a
run can be replayed and audited.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field

from .errors import BudgetError, InputError, SearchFailedError
from .factor import PartialHC, TwoFactor, component_budget, sample_le2_factor
from .graphs import Edge, Graph, norm_edge
from .util import EPS, ceil_frac, check_deadline, spawn_seed
from .walecki import cycle_edges

log = logging.getLogger(__name__)

MAX_PIVOTS_PER_ROUND = 32


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

    @classmethod
    def from_json_dict(cls, data: dict) -> "Move":
        try:
            steps = tuple(
                (str(op), norm_edge(int(e[0]), int(e[1]))) for op, e in data["steps"]
            )
            return cls(str(data["kind"]), steps, str(data.get("note", "")))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise InputError(f"malformed move JSON: {exc}") from exc


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


@dataclass
class RotationState:
    """Mutable working state of one extraction: current structure and the
    full move history (replayable from ``start_factor``)."""

    current: TwoFactor | PartialHC
    start_factor: TwoFactor
    history: list[Move] = field(default_factory=list)


# -- component helpers ---------------------------------------------------------


def _component_map(cycles, pairs) -> dict[int, tuple[str, int]]:
    comp: dict[int, tuple[str, int]] = {}
    for ci, cyc in enumerate(cycles):
        for v in cyc:
            comp[v] = ("cycle", ci)
    for pi, pr in enumerate(pairs):
        for v in pr:
            comp[v] = ("pair", pi)
    return comp


def _open_cycle_from(cycle, z: int) -> tuple[list[int], Edge]:
    """Path piece starting at z covering the cycle, plus the removed edge."""
    k = len(cycle)
    i = cycle.index(z)
    removed = norm_edge(z, cycle[(i + 1) % k])
    piece = [cycle[(i - j) % k] for j in range(k)]
    return piece, removed


# -- merge ----------------------------------------------------------------------


def merge_step(
    factor: TwoFactor, core: Graph, patch: Graph, host: Graph | None = None
) -> tuple[PartialHC, Move]:
    """Concatenate two components of a (<=2)-factor into one path.

    Picks a small component and a connecting edge, preferring the source
    graph the degree dichotomy prescribes (core when the component is
    smaller than the core degree, else patch) and falling back to either.
    """
    if factor.component_count < 2:
        raise InputError("merge needs a factor with at least 2 components")
    if host is None:
        host = Graph(core.n, core.edges | patch.edges)
    cycles = list(factor.cycles)
    pairs = list(factor.pairs)
    comp_of = _component_map(cycles, pairs)
    d = core.regular_degree()
    if d is None:
        d = min(core.degrees(), default=0)

    components: list[tuple[str, int, tuple[int, ...]]] = [
        ("cycle", i, cyc) for i, cyc in enumerate(cycles)
    ] + [("pair", i, pr) for i, pr in enumerate(pairs)]
    # small cycles first, then pairs; deterministic tie-break by min vertex
    components.sort(key=lambda c: (c[0] == "pair", len(c[2]), min(c[2])))

    for kind, idx, verts in components:
        vert_set = set(verts)
        prescribed = core if len(verts) < d else patch
        other = patch if prescribed is core else core
        for src in (prescribed, other):
            for u in sorted(verts):
                for v in src.adj[u]:
                    if v in vert_set:
                        continue
                    okind, oidx = comp_of[v]
                    steps: list[tuple[str, Edge]] = []
                    if kind == "cycle":
                        left_piece, removed = _open_cycle_from(verts, u)
                        left = left_piece[::-1]  # ends at u
                        steps.append(("-", removed))
                    else:
                        w = verts[0] if verts[1] == u else verts[1]
                        left = [w, u]
                    if okind == "cycle":
                        right, removed_o = _open_cycle_from(cycles[oidx], v)
                        steps.append(("-", removed_o))
                    else:
                        pv = pairs[oidx]
                        right = [v, pv[0] if pv[1] == v else pv[1]]
                    steps.append(("+", norm_edge(u, v)))
                    new_cycles = [
                        c
                        for i, c in enumerate(cycles)
                        if not (kind == "cycle" and i == idx)
                        and not (okind == "cycle" and i == oidx)
                    ]
                    new_pairs = [
                        p
                        for i, p in enumerate(pairs)
                        if not (kind == "pair" and i == idx)
                        and not (okind == "pair" and i == oidx)
                    ]
                    partial = PartialHC.build(
                        host, left + right, new_cycles, new_pairs
                    )
                    move = Move("merge", tuple(steps))
                    return partial, move
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
    path: list[int],
    cycles: list[tuple[int, ...]],
    pairs: list[Edge],
    comp_of,
    core: Graph,
    patch: Graph,
):
    """Extend the path's last endpoint into another component, if possible.

    Returns (new_path, new_cycles, new_pairs, steps) or None.  Core
    neighbors are preferred over patch neighbors.
    """
    tip = path[-1]
    on_path = set(path)
    for src in (core, patch):
        for z in src.adj[tip]:
            if z in on_path or z not in comp_of:
                continue
            okind, oidx = comp_of[z]
            steps: list[tuple[str, Edge]] = [("+", norm_edge(tip, z))]
            if okind == "cycle":
                piece, removed = _open_cycle_from(cycles[oidx], z)
                steps.append(("-", removed))
                new_path = path + piece
                new_cycles = [c for i, c in enumerate(cycles) if i != oidx]
                new_pairs = list(pairs)
            else:
                pv = pairs[oidx]
                w = pv[0] if pv[1] == z else pv[1]
                new_path = path + [z, w]
                new_cycles = list(cycles)
                new_pairs = [p for i, p in enumerate(pairs) if i != oidx]
            return new_path, new_cycles, new_pairs, steps
    return None


def _closure_edge(path: list[int], patch: Graph, core: Graph) -> Edge | None:
    """A chord between the path's endpoints, patch-first; None if absent."""
    if len(path) < 3:
        return None
    a, b = path[0], path[-1]
    if patch.has_edge(a, b):
        return norm_edge(a, b)
    if core.has_edge(a, b):
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


def _apparatus(
    path: list[int],
    cycles,
    pairs,
    comp_of,
    core: Graph,
    patch: Graph,
    params,
    host: Graph,
):
    """Three bounded rotation rounds over split windows, then a closure.

    Round
      1. pivots near the far endpoint produce new far endpoints;
      2. pivots near the near endpoint produce new near endpoints;
      3. pivots outside both windows produce the closing endpoints.
    Extensions off the path are taken as soon as any round exposes one; a
    patch chord (core as fallback) between the final endpoint pairs closes
    the path into a cycle.
    """
    n = len(path)
    if n < 6:
        return None
    last = n - 1
    s = max(2, min(ceil_frac(2 / params.delta), n // 3))
    segments = _segment_ranges(n, s)

    def count_pivots(endpoint: int, rng_: tuple[int, int], lo: int, hi: int) -> int:
        return sum(
            1
            for i in _interior_positions(rng_)
            if lo <= i <= hi and core.has_edge(path[i], endpoint)
        )

    end_counts = [count_pivots(path[-1], r, 1, last - 2) for r in segments]
    start_counts = [count_pivots(path[0], r, 2, last - 1) for r in segments]
    q_end = max(range(s), key=lambda k: (end_counts[k], -k))
    q_start = max(range(s), key=lambda k: (start_counts[k], -k))
    if q_end == q_start:
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

    def finish_extension(new_parts, steps):
        new_path, new_cycles, new_pairs, ext_steps = new_parts
        move = Move("rotate-extend", tuple(steps + ext_steps))
        partial = PartialHC.build(host, new_path, new_cycles, new_pairs)
        return partial, move

    # round 1: rotate the far endpoint, pivots inside the end window
    first: dict[int, tuple[list[int], list]] = {}
    for i in _interior_positions(end_win):
        if not (1 <= i <= last - 2) or not core.has_edge(path[i], path[-1]):
            continue
        p1, steps1 = _rotate_end(path, i)
        tip = p1[-1]
        if tip not in first:
            first[tip] = (p1, steps1)
        if len(first) >= MAX_PIVOTS_PER_ROUND:
            break
    for tip in sorted(first):
        p1, steps1 = first[tip]
        ext = _extension_at_end(p1, cycles, pairs, comp_of, core, patch)
        if ext:
            return finish_extension(ext, steps1)

    # round 2: rotate the near endpoint, pivots inside the start window
    second: dict[int, tuple[list[int], list]] = {}
    for tip in sorted(first):
        p1, steps1 = first[tip]
        for j in range(2, len(p1) - 1):
            if p1[j] not in start_interior:
                continue
            if not core.has_edge(p1[0], p1[j]):
                continue
            p2, steps2 = _rotate_start(p1, j)
            head = p2[0]
            if head not in second:
                second[head] = (p2, steps1 + steps2)
            if len(second) >= MAX_PIVOTS_PER_ROUND:
                break
    for head in sorted(second):
        p2, steps2 = second[head]
        rev = p2[::-1]
        ext = _extension_at_end(rev, cycles, pairs, comp_of, core, patch)
        if ext:
            return finish_extension(ext, steps2)

    # round 3: rotate the far endpoint again, pivots outside both windows
    third: dict[int, tuple[list[int], list]] = {}
    for head in sorted(second):
        p2, steps2 = second[head]
        for i in range(1, len(p2) - 2):
            if p2[i] in window_vertices:
                continue
            if not core.has_edge(p2[i], p2[-1]):
                continue
            p3, steps3 = _rotate_end(p2, i)
            tip = p3[-1]
            if tip not in third:
                third[tip] = (p3, steps2 + steps3)
            if len(third) >= MAX_PIVOTS_PER_ROUND:
                break
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
                factor = TwoFactor.build(host, [p] + list(cycles), pairs)
                return factor, move
    return None


def _fallback_search(
    path: list[int],
    cycles,
    pairs,
    comp_of,
    core: Graph,
    patch: Graph,
    params,
    host: Graph,
):
    """Bounded breadth-first search over core-edge rotations from both ends,
    taking the first extension or closure found."""

    def canon(p: tuple[int, ...]) -> tuple[int, ...]:
        rp = p[::-1]
        return p if p <= rp else rp

    start = tuple(path)
    seen = {canon(start)}
    queue: deque[tuple[tuple[int, ...], tuple]] = deque([(start, ())])
    visits = 0
    while queue:
        cur, steps = queue.popleft()
        visits += 1
        if visits > params.rotation_visit_cap:
            break
        cur_list = list(cur)
        for oriented in (cur_list, cur_list[::-1]):
            ext = _extension_at_end(oriented, cycles, pairs, comp_of, core, patch)
            if ext:
                new_path, new_cycles, new_pairs, ext_steps = ext
                move = Move(
                    "rotate-extend", tuple(list(steps) + ext_steps), note="fallback"
                )
                return (
                    PartialHC.build(host, new_path, new_cycles, new_pairs),
                    move,
                )
        closure = _closure_edge(cur_list, patch, core)
        if closure is not None:
            move = Move(
                "rotate-close",
                tuple(list(steps) + [("+", closure)]),
                note="fallback",
            )
            factor = TwoFactor.build(host, [cur_list] + list(cycles), pairs)
            return factor, move
        for i in range(1, len(cur_list) - 1):
            if i < len(cur_list) - 2 and core.has_edge(cur_list[i], cur_list[-1]):
                p_new, st = _rotate_end(cur_list, i)
                key = canon(tuple(p_new))
                if key not in seen:
                    seen.add(key)
                    queue.append((tuple(p_new), tuple(list(steps) + st)))
            if i >= 2 and core.has_edge(cur_list[0], cur_list[i]):
                p_new, st = _rotate_start(cur_list, i)
                key = canon(tuple(p_new))
                if key not in seen:
                    seen.add(key)
                    queue.append((tuple(p_new), tuple(list(steps) + st)))
    return None


def rotate_or_close(
    state: RotationState, core: Graph, patch: Graph, params, host: Graph | None = None
) -> TwoFactor | PartialHC:
    """Advance a partial Hamilton cycle: absorb another component (one fewer
    component) or close the path into a cycle (same components, one more
    edge).  Raises SearchFailedError when every round is exhausted."""
    partial = state.current
    if not isinstance(partial, PartialHC):
        raise InputError("rotate_or_close needs a PartialHC state")
    if host is None:
        host = Graph(core.n, core.edges | patch.edges)
    path = list(partial.path)
    cycles = list(partial.cycles)
    pairs = list(partial.pairs)
    comp_of = _component_map(cycles, pairs)

    # endpoint extensions before any rotation
    for oriented in (path, path[::-1]):
        ext = _extension_at_end(oriented, cycles, pairs, comp_of, core, patch)
        if ext:
            new_path, new_cycles, new_pairs, steps = ext
            move = Move("extend", tuple(steps))
            result = PartialHC.build(host, new_path, new_cycles, new_pairs)
            state.current = result
            state.history.append(move)
            return result

    found = _apparatus(path, cycles, pairs, comp_of, core, patch, params, host)
    if found is None:
        found = _fallback_search(
            path, cycles, pairs, comp_of, core, patch, params, host
        )
    if found is None:
        raise SearchFailedError("rotation rounds exhausted with no extension/closure")
    result, move = found
    state.current = result
    state.history.append(move)
    return result


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

    for x1 in core.adj[x]:
        if x1 in banned or not usable(x, x1):
            continue
        for x2 in patch.adj[x1]:
            if x2 in banned or x2 == x1 or not usable(x1, x2):
                continue
            for y1 in core.adj[y]:
                if y1 in banned or y1 in (x1, x2) or not usable(y, y1):
                    continue
                for y2 in patch.adj[y1]:
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
    (d-2)-regular.  Las-Vegas: dead ends discard the factor and resample.
    """
    if core.n != patch.n:
        raise InputError("core and patch must share a vertex set")
    if core.edges & patch.edges:
        raise InputError("core and patch must be edge-disjoint")
    d = core.regular_degree()
    if d is None:
        raise InputError("core must be regular")
    if d % 2 != 0 or d < 4:
        raise InputError(f"core degree must be even and >= 4, got {d}")
    n = core.n
    host = Graph(n, core.edges | patch.edges)
    cap = 2 * component_budget(n) + 1

    last_error: Exception | None = None
    for restart in range(params.step_restarts):
        check_deadline(params.deadline, "hamilton step")
        try:
            factor = sample_le2_factor(
                core,
                spawn_seed(seed, "draw", restart),
                resamples=params.factor_resamples,
            )
            state = RotationState(current=factor, start_factor=factor)
            for _ in range(cap):
                cur = state.current
                if isinstance(cur, TwoFactor):
                    if cur.is_hamilton_cycle:
                        break
                    partial, move = merge_step(cur, core, patch, host)
                    state.current = partial
                    state.history.append(move)
                else:
                    rotate_or_close(state, core, patch, params, host)
            final = state.current
            if not (isinstance(final, TwoFactor) and final.is_hamilton_cycle):
                raise SearchFailedError(f"no Hamilton cycle within {cap} moves")

            cycle = final.cycles[0]
            cycle_edge_set = final.edge_set()
            shared = sorted(cycle_edge_set & patch.edges)
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
            new_core = Graph(
                n,
                (core.edges - (cycle_edge_set & core.edges) - dropped_set)
                | promoted_set,
            )
            new_patch = Graph(
                n, patch.edges - (cycle_edge_set & patch.edges) - promoted_set
            )
            degs = set(new_core.degrees())
            if degs != {d - 2}:
                raise AssertionError(
                    f"rebalanced core degrees {degs}, expected {{{d - 2}}}"
                )
            total = (
                len(new_core.edges)
                + len(new_patch.edges)
                + len(cycle_edge_set)
                + len(dropped_set)
            )
            union = new_core.edges | new_patch.edges | cycle_edge_set | dropped_set
            if total != len(union) or union != (core.edges | patch.edges):
                raise AssertionError("edge accounting identity violated")

            return StepResult(
                cycle=cycle,
                new_core=new_core,
                new_patch=new_patch,
                dropped_core=dropped_set,
                promoted_patch=promoted_set,
                start_factor=factor,
                moves=tuple(state.history),
                restarts=restart,
                patch_edges_in_cycle=frozenset(shared),
            )
        except SearchFailedError as exc:
            last_error = exc
            continue
    raise BudgetError(
        f"hamilton step failed after {params.step_restarts} restarts "
        f"(last: {last_error})"
    )
