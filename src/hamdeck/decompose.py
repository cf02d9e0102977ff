"""Full decomposition pipeline: tri-partition, repeated Hamilton-cycle
extraction, and exact backtracking completion of the residual graph; plus
the odd-degree variant that peels off a perfect matching first and sends
every remainder through the pipeline.  Below ``PIPELINE_MIN_N`` vertices,
or with no edges, the pipeline completes the whole graph exactly.

The completer peels one Hamilton cycle per level, through the recursion it
shares with the counting oracles (``graphs.decompositions``).  At each
level it first tries cycles from a randomized rotation heuristic (up to
HEURISTIC_TRIES calls), then lists, with the oracles' exhaustive DFS
(``graphs.hamilton_cycles``), the untried Hamilton cycles through vertex
0's lowest edge (0, a): every decomposition has exactly one of those.  The
first try grows a path from a random vertex; each later try opens the cycle
tried last at a random edge and walks on from it by Pósa rotations, never
closing into a tried cycle, and starts afresh only when that walk stalls.
Each growth or rotation step picks a uniformly random set bit of one
bit-row mask, so the walk keeps no position array and sorts nothing.
The search is therefore exhaustive, and a node budget bounds it, so "budget
ran out" (BudgetError) stays distinct from "no decomposition exists"
(InfeasibleError).
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, field, replace

from .errors import BudgetError, InfeasibleError, InputError
from .graphs import (
    Edge,
    Graph,
    connected_over,
    decompositions,
    hamilton_cycles,
    iter_bits,
    single_bits,
)
from .partition import PipelineParams, TriPartition, default_params, tri_partition
from .rotation import extract_hamilton_step
from .util import check_deadline, floor_frac, spawn_seed
from .walecki import Decomposition, canonical_cycle, verify_decomposition

log = logging.getLogger(__name__)


# -- exact backtracking completion ------------------------------------------------

# Heuristic calls per completion level before the exhaustive DFS takes over.
# At residual degree 4 most Hamilton cycles leave a disconnected complement;
# on 48 unions of two random Hamilton cycles of order 101 the level needed up
# to 31 tries (6.9 on average).  A retry walks on from the last cycle, so on
# K201 and Paley(197) at seeds 0-4 it takes about 71 walk steps against 553
# for the first try's fresh build.  The DFS prunes nothing, so 64, twice the
# worst seen, keeps it for the levels the walk cannot finish.
HEURISTIC_TRIES = 64
# Restart slices the completion budget is split into.  A slice must hold a
# whole infeasibility proof: the DFS proves two K7 - e joined by two edges
# in about 106k nodes, which a 2M budget's 125k-node slices hold.
COMPLETION_RESTARTS = 16


class _Budget:
    __slots__ = ("nodes", "limit", "deadline")

    def __init__(self, limit: int, deadline: float | None):
        self.nodes = 0
        self.limit = limit
        self.deadline = deadline

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise BudgetError(
                f"completion search exceeded its {self.limit}-node budget"
            )
        if self.nodes % 4096 == 0:
            check_deadline(self.deadline, "completion search")

    def charge(self, nodes: int) -> None:
        """The DFS's budget hook (``graphs.hamilton_cycles``): ``nodes``
        nodes at once, then the slice quota and the deadline checked."""
        self.nodes += nodes
        if self.nodes > self.limit:
            raise BudgetError(
                f"completion search exceeded its {self.limit}-node budget"
            )
        check_deadline(self.deadline, "completion search")


def _random_bit(mask: int, rand) -> int:
    """A uniformly random set bit of the nonzero ``mask``, as its index:
    ``rand()`` in [0, 1) picks the k-th lowest, found by clearing k bits."""
    for _ in range(int(rand() * mask.bit_count())):
        mask &= mask - 1
    return (mask & -mask).bit_length() - 1


def _rotation_first_cycle(
    adj_bits,
    n: int,
    budget: _Budget,
    rng: random.Random,
    last: tuple[int, ...] | None = None,
    tried=frozenset(),
) -> tuple[int, ...] | None:
    """Heuristic Hamilton cycle on a connected level of degree >= 4, the
    only kind ``complete_residual`` searches: random greedy path growth
    plus random endpoint rotations (Pósa).  Near-certain and fast on
    dense levels, where plain DFS can thrash.

    Each step picks a uniformly random bit of one bit-row mask: growth a
    free neighbor of the tip, a rotation a pivot among the tip's on-path
    neighbors other than its predecessor.  The tail after the pivot is
    reversed, and the pivot keeps its place in the path.

    Given ``last``, the walk starts from that cycle opened at a random edge
    and rotates on from it, instead of growing a path from one vertex.  It
    never closes into a cycle of ``tried`` (canonical forms).  Once ``tried``
    is not empty, a rotation never undoes the one before it (the same
    pivot) when another pivot exists, and a full path that has rotated 4n
    times without a new cycle has stalled: a walk from ``last`` then starts
    afresh from a random vertex, and a fresh path gives up.  With ``tried``
    empty the walk is the plain one.  Returns None when it fails (that
    stall, no pivot, or its step cap).
    """
    full = (1 << n) - 1
    bit = single_bits(n)
    rand = rng.random
    if last is None:
        path = [rng.randrange(n)]
        visited = bit[path[0]]
    else:
        k = rng.randrange(n)
        path = list(last[k + 1 :] + last[: k + 1])
        visited = full
    stall = 4 * n if tried else -1
    idle = 0  # rotations of the full path since it was (re)started
    undo = 0  # the bit of the pivot that would undo a walk's last rotation
    for _ in range(8 * n * n):
        budget.spend()
        if idle == stall:
            if last is None:
                return None
            last, idle, undo = None, 0, 0
            path = [rng.randrange(n)]
            visited = bit[path[0]]
        tip = path[-1]
        free = adj_bits[tip] & ~visited
        if free:
            w = _random_bit(free, rand)
            path.append(w)
            visited |= bit[w]
            undo = 0
            continue
        if visited == full:
            if adj_bits[tip] & bit[path[0]] and (
                not tried or canonical_cycle(path) not in tried
            ):
                return tuple(path)
            idle += 1
        # rotate: the tip's predecessor is an on-path neighbor, not a pivot
        pivots = adj_bits[tip] & visited & ~bit[path[-2]]
        if tried and pivots & ~undo:
            pivots &= ~undo
        if not pivots:
            return None
        w = _random_bit(pivots, rand)
        undo = bit[w]
        i = path.index(w)
        path[i + 1 :] = path[:i:-1]
    return None


def complete_residual(
    g: Graph,
    *,
    node_budget: int = 2_000_000,
    deadline: float | None = None,
    seed: int = 0,
) -> Decomposition:
    """Partition a regular even-degree graph into Hamilton cycles by exact
    backtracking across cycle choices.

    Each level tries up to HEURISTIC_TRIES rotation-heuristic cycles first,
    then, by exhaustive DFS, every other Hamilton cycle through vertex 0's
    lowest edge, which each decomposition of the level has exactly one of.
    The budget is spent in restart slices, each seeded from ``seed`` and its
    attempt number, so one seed always gives one decomposition.  The first
    slice always runs: an empty graph then gives the empty decomposition and
    a disconnected one is rejected before any node is spent.  A slice that
    exhausts its whole tree without finding a decomposition proves
    infeasibility (InfeasibleError); a slice that hits its node quota is
    abandoned and the next slice restarts.  Only the heuristic differs
    between slices: the DFS lists cycles in one fixed order.  BudgetError
    means every slice ran out undecided, or that ``deadline`` passed (it is
    checked before each slice, every 4096 nodes of the walk and every 1024
    of the DFS, and stops the search at once).  A returned decomposition
    has been verified.
    """
    degree = g.regular_degree()
    if degree is None:
        raise InputError("completion needs a regular graph")
    if degree % 2 != 0:
        raise InputError(f"degree {degree} is odd")

    def candidates(bits, budget, rng):
        tried: set[tuple[int, ...]] = set()
        cyc = None
        for _ in range(HEURISTIC_TRIES):
            cyc = _rotation_first_cycle(bits, g.n, budget, rng, cyc, tried)
            if cyc is None:
                break
            tried.add(canonical_cycle(cyc))
            yield cyc
        # the decomposition's one cycle through (0, a) is tried or listed
        for cyc in hamilton_cycles(bits, g.n, budget.charge, bits[0] & -bits[0]):
            if cyc not in tried:  # both canonical
                yield cyc

    slice_budget = max(20_000, node_budget // COMPLETION_RESTARTS)
    spent = 0
    for attempt in range(COMPLETION_RESTARTS):
        check_deadline(deadline, "completion search")
        budget = _Budget(min(slice_budget, node_budget - spent), deadline)
        rng = random.Random(spawn_seed(seed, "order", attempt))
        try:
            levels = decompositions(
                g.adj_bits, g.n, lambda bits: candidates(bits, budget, rng)
            )
            found = next(levels, None)
        except BudgetError:
            if budget.nodes <= budget.limit:
                raise  # the deadline passed, not the slice quota
            spent += budget.nodes
            if spent >= node_budget:
                break
            continue
        if found is None:
            raise InfeasibleError("no Hamiltonian decomposition exists")
        return _verified(g, found, "completer output failed verification")
    raise BudgetError(f"completion search spent {spent} nodes without a decision")


def _verified(g: Graph, cycles, fault: str) -> Decomposition:
    """The decomposition of ``cycles``, checked to partition g's edges into
    Hamilton cycles; an AssertionError starting with ``fault`` otherwise."""
    deco = Decomposition.from_parts(g.n, cycles)
    check = verify_decomposition(g, deco)
    if not check.ok:
        raise AssertionError(f"{fault}: {check.violation}")
    return deco


# -- perfect matching (odd-degree variant) ----------------------------------------


def _perfect_matchings(g: Graph):
    """Yield every perfect matching of g (sorted edge tuples) by exact
    backtracking; the first one costs no more than a single search.

    The lowest unmatched vertex u is paired next, with each free neighbor in
    increasing order.  An explicit stack holds every open u with its untried
    neighbors, so the depth (n/2) is not bounded by Python's recursion limit.
    """
    matched = [False] * g.n
    chosen: list[Edge] = []  # (u, v) with u < v, in increasing u
    stack: list[tuple[int, object]] = []
    while True:
        if False in matched:
            u = matched.index(False)
            matched[u] = True
            stack.append((u, iter_bits(g.adj_bits[u])))
        else:
            yield tuple(chosen)
        while stack:
            u, partners = stack[-1]
            if len(chosen) == len(stack):  # release u's current partner
                matched[chosen.pop()[1]] = False
            v = next((w for w in partners if not matched[w]), None)
            if v is not None:
                matched[v] = True
                chosen.append((u, v))
                break
            stack.pop()
            matched[u] = False
        else:
            return


def find_perfect_matching(g: Graph) -> tuple[Edge, ...]:
    """Exact backtracking perfect matching; InfeasibleError when none exists."""
    if g.n % 2 != 0:
        raise InfeasibleError("odd vertex count admits no perfect matching")
    matching = next(_perfect_matchings(g), None)
    if matching is None:
        raise InfeasibleError("graph has no perfect matching")
    return matching


# -- the pipeline -------------------------------------------------------------------

# Whole-pipeline attempts, each with a fresh seed, before BudgetError.
PIPELINE_RETRIES = 3
# Smallest order the pipeline tri-partitions; a smaller input is completed
# whole by the exact completer, as a failed split is.
PIPELINE_MIN_N = 8


@dataclass
class PipelineRun:
    """Everything one pipeline invocation produced, for tracing and the CLI."""

    decomposition: Decomposition
    rotation_cycles: int
    completed_cycles: int
    step_stats: list = field(default_factory=list)
    attempts: int = 1
    fallback_whole_graph: bool = False
    elapsed_s: float = 0.0


def _plan_steps(core_degree: int, eps: float, r: int) -> int:
    """Number of rotation-extraction steps: (d0 - eps*r)/2 rounded down, and
    never so many that the remaining core degree drops below 4."""
    t = floor_frac((core_degree - eps * r) / 2)
    t = min(t, (core_degree - 4) // 2)
    return max(t, 0)


def run_pipeline(
    graph: Graph, params: PipelineParams | None = None, seed: int | None = None
) -> PipelineRun:
    """Decompose an even-regular graph into Hamilton cycles.

    Stages: tri-partition; planned rotation-extraction steps on the
    (core, patch) pair; exact backtracking completion of everything left.
    An input below ``PIPELINE_MIN_N`` vertices, or with no edges, is not
    split: the whole graph goes to the completer, as after a failed split,
    and ``fallback_whole_graph`` is set.  Stage failures fall through
    gracefully (a failed step stops the rotation stage early; a failed
    partition sends the whole graph to the completer, with a warning), and
    whole-pipeline retries rotate the seed.  A disconnected input with
    edges is rejected before the tri-partition.  With no cycle removed, the
    completer's InfeasibleError is a proof about the input and is raised.
    ``params`` default to ``default_params(graph)``; no density is required
    of the input, since the paper's density fraction c is its own r/n.  The
    seed is ``seed``, else ``params.seed``, else 0.
    """
    t0 = time.perf_counter()
    r = graph.regular_degree()
    if r is None:
        raise InputError("pipeline needs a regular graph")
    if r % 2 != 0:
        raise InputError(f"degree {r} is odd; use the odd-degree variant")
    if params is None:
        params = default_params(graph, seed=seed if seed is not None else 0)
    if seed is None:
        seed = params.seed
    if r and not connected_over(graph.adj_bits, (1 << graph.n) - 1):
        raise InfeasibleError("a disconnected graph has no Hamilton cycle")
    split = r > 0 and graph.n >= PIPELINE_MIN_N

    last_error: Exception | None = None
    for attempt in range(PIPELINE_RETRIES):
        check_deadline(params.deadline, "pipeline")
        attempt_seed = spawn_seed(seed, "pipeline", attempt)
        cycles: list[tuple[int, ...]] = []
        step_stats: list[dict] = []
        try:
            tp: TriPartition | None = None
            rows = graph.adj_bits  # the residual when there is no split
            if split:
                try:
                    tp = tri_partition(graph, replace(params, seed=attempt_seed))
                except BudgetError as exc:
                    log.warning(
                        "tri-partition failed (%s); completing whole graph", exc
                    )

            if tp is not None:
                core, patch = tp.core, tp.patch
                left = list(tp.residual.adj_bits)  # plus each step's dropped_core
                planned = _plan_steps(tp.core_degree, params.eps, r)
                for i in range(planned):
                    check_deadline(params.deadline, "pipeline step")
                    try:
                        step = extract_hamilton_step(
                            core, patch, spawn_seed(attempt_seed, "step", i),
                            deadline=params.deadline,
                        )
                    except BudgetError as exc:
                        log.warning(
                            "step %d failed (%s); completing a larger residual", i, exc
                        )
                        break
                    cycles.append(step.cycle)
                    step_stats.append(
                        {
                            "step": i,
                            "restarts": step.restarts,
                            "move_count": len(step.moves),
                            "patch_edges_in_cycle": len(step.patch_edges_in_cycle),
                            "dropped_core_edges": len(step.dropped_core),
                            "moves": [m.to_json_dict() for m in step.moves],
                        }
                    )
                    for u, v in step.dropped_core:
                        left[u] |= 1 << v
                        left[v] |= 1 << u
                    core, patch = step.new_core, step.new_patch
                    expect = tp.core_degree - 2 * (i + 1)
                    if core.regular_degree() != expect:
                        raise AssertionError(
                            f"working core degree {core.regular_degree()} != {expect}"
                        )
                # each step splits core ∪ patch into new_core, new_patch, its
                # cycle and dropped_core, so the cycles leave exactly this
                rows = tuple(
                    a | b | c for a, b, c in zip(left, core.adj_bits, patch.adj_bits)
                )

            residual = Graph._derived(graph.n, rows)
            res_degree = residual.regular_degree()
            if res_degree is None:
                raise AssertionError("residual after cycle removal is irregular")
            # every edge is verified once, and with it the steps' accounting:
            # the rotation cycles must partition what the residual lacks of
            # the graph (XOR, so a foreign residual edge is there too), the
            # completer's the residual, so a reused, missing, foreign or
            # misaccounted edge fails one of the two checks
            removed = tuple(a ^ b for a, b in zip(graph.adj_bits, rows))
            rotated = _verified(
                Graph._derived(graph.n, removed), cycles, "pipeline output invalid"
            )
            completion = complete_residual(
                residual,
                deadline=params.deadline,
                seed=spawn_seed(attempt_seed, "completion"),
            )
            # both parts are canonical already
            deco = Decomposition(
                graph.n, tuple(sorted(rotated.cycles + completion.cycles))
            )
            return PipelineRun(
                decomposition=deco,
                rotation_cycles=len(cycles),
                completed_cycles=completion.cycle_count,
                step_stats=step_stats,
                attempts=attempt + 1,
                fallback_whole_graph=tp is None,
                elapsed_s=time.perf_counter() - t0,
            )
        except (BudgetError, InfeasibleError) as exc:
            if isinstance(exc, InfeasibleError) and not cycles:
                raise  # the completer ran on the input graph itself
            last_error = exc
            log.warning("pipeline attempt %d failed: %s", attempt, exc)
    raise BudgetError(
        f"pipeline failed after {PIPELINE_RETRIES} attempts (last: {last_error})"
    )


def decompose_odd(
    graph: Graph, params: PipelineParams | None = None, seed: int | None = None
) -> Decomposition:
    """Odd-degree variant: peel off a perfect matching, decompose the rest.

    The result has (r-1)/2 Hamilton cycles plus the matching.  Perfect
    matchings are tried in turn until one leaves a remainder that
    ``run_pipeline`` decomposes; the pipeline plans its own route, so a
    remainder below ``PIPELINE_MIN_N`` vertices or with no edges is
    completed whole.  The next matching is tried only when a remainder is
    proven infeasible, so InfeasibleError means that no perfect matching
    works, and a BudgetError from any remainder propagates.  With degree 3
    or more a disconnected input is rejected before any matching is tried;
    a 1-regular input is a matching and needs no connectivity.  ``params``
    default to ``default_params(graph)``; they and ``seed`` pass to the
    pipeline unchanged, since no parameter depends on the degree.
    """
    r = graph.regular_degree()
    if r is None:
        raise InputError("odd-degree decomposition needs a regular graph")
    if r % 2 == 0:
        raise InputError(f"degree {r} is even; use the main pipeline")
    if graph.n % 2 != 0:
        raise InfeasibleError("odd degree with odd n admits no perfect matching")
    if r >= 3 and not connected_over(graph.adj_bits, (1 << graph.n) - 1):
        raise InfeasibleError("a disconnected graph has no Hamilton cycle")
    if graph.n == 2:
        log.debug("degenerate n=2 input: matching only, no cycles")
    if params is None:
        params = default_params(graph, seed=seed if seed is not None else 0)
    for matching in _perfect_matchings(graph):
        check_deadline(params.deadline, "odd-degree decomposition")
        remainder = graph.subtract(matching)
        try:
            cycles = run_pipeline(remainder, params, seed).decomposition.cycles
        except InfeasibleError:
            continue
        break
    else:
        raise InfeasibleError("no perfect matching leaves a decomposable remainder")
    # the cycles were verified against the remainder, whose subtraction
    # checked that each matching edge is an edge of graph; what is left to
    # check is that the matching covers every vertex exactly once
    covered = sorted(v for e in matching for v in e)
    if covered != list(range(graph.n)):
        raise AssertionError("odd-degree output invalid: the matching is not perfect")
    return Decomposition.from_parts(graph.n, [list(c) for c in cycles], matching)
