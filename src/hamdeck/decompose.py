"""Full decomposition pipeline: tri-partition, repeated Hamilton-cycle
extraction, and exact backtracking completion of the residual graph; plus
the odd-degree variant that peels off a perfect matching first.

The completer peels one Hamilton cycle per level.  At each level it first
tries cycles from a randomized rotation heuristic (up to HEURISTIC_TRIES
calls), then an exhaustive DFS over the Hamilton cycles not yet tried, with
connectivity and degree pruning.  The search is therefore exhaustive, and a
node budget bounds it, so "budget ran out" (BudgetError) stays distinct from
"no decomposition exists" (InfeasibleError).

The pruned DFS is kept apart from ``counting._hamilton_cycles_from`` on
purpose: that plain DFS is the reference the completer is checked against,
and it is 4-5x faster on the oracle's small dense inputs.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, field

from .errors import BudgetError, InfeasibleError, InputError
from .graphs import Edge, Graph, connected_over, iter_bits, strip_cycle
from .partition import PipelineParams, TriPartition, default_params, tri_partition
from .rotation import extract_hamilton_step
from .util import EPS, check_deadline, floor_frac, spawn_seed
from .walecki import Decomposition, canonical_cycle, cycle_edges, verify_decomposition

log = logging.getLogger(__name__)


# -- exact backtracking completion ------------------------------------------------

# Heuristic calls per completion level before the exhaustive DFS takes over.
# At residual degree 4 most Hamilton cycles leave a disconnected complement;
# on 40 unions of two random Hamilton cycles of order 101 the level needed up
# to 29 tries, each far cheaper than the DFS that would list the same cycles.
HEURISTIC_TRIES = 64


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


def _hamilton_cycles_pruned(adj_bits, n: int, budget: _Budget, rng: random.Random):
    """Yield every Hamilton cycle (vertex tuples from the anchor) once, in
    min-degree-first order, with degree and connectivity pruning.

    The rng shuffles ties in the successor ordering, so restarted searches
    explore different subtrees first; the enumeration stays exhaustive.  The
    DFS keeps an explicit stack, so its depth is not bounded by Python's
    recursion limit.  Not merged with the reference enumerator (module
    docstring).
    """
    full = (1 << n) - 1

    def successors(v: int, visited: int) -> list[int]:
        budget.spend()
        free = ~visited & full
        # each unvisited vertex must keep 2 usable neighbor slots
        avail = free | (1 << v) | 1
        for w in iter_bits(free):
            if (adj_bits[w] & avail).bit_count() < 2:
                return []
        if not connected_over(adj_bits, free | (1 << v)):
            return []
        # the anchor bit is excluded so the cycle closes only when full
        options = sorted(
            ((adj_bits[w] & free).bit_count(), rng.random(), w)
            for w in iter_bits(adj_bits[v] & free & ~1)
        )
        return [w for _, _, w in options]

    path = [0]
    visited = 1
    stack = [iter(successors(0, visited))]
    while stack:
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            visited &= ~(1 << path.pop())
            continue
        path.append(w)
        visited |= 1 << w
        if visited == full:
            budget.spend()
            if adj_bits[w] & 1 and path[1] < path[-1]:
                yield tuple(path)
            path.pop()
            visited &= ~(1 << w)
            continue
        stack.append(iter(successors(w, visited)))


def _rotation_first_cycle(
    adj_bits, n: int, budget: _Budget, rng: random.Random
) -> tuple[int, ...] | None:
    """Heuristic Hamilton cycle: random greedy path growth plus random
    endpoint rotations.  Near-certain and fast on dense levels, where plain
    DFS can thrash; returns None when it fails (a disconnected level, no
    pivot, or its step cap)."""
    if n < 3 or any(b == 0 for b in adj_bits):
        return None
    full = (1 << n) - 1
    if not connected_over(adj_bits, full):
        return None
    start = rng.randrange(n)
    path = [start]
    visited = 1 << start
    steps_cap = 8 * n * n
    for _ in range(steps_cap):
        budget.spend()
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
        # rotate: pick a pivot among the tip's on-path neighbors
        pivots = [
            i
            for i in range(len(path) - 2)
            if adj_bits[tip] >> path[i] & 1
        ]
        if not pivots:
            return None
        i = pivots[rng.randrange(len(pivots))]
        path[i + 1 :] = path[i + 1 :][::-1]
    return None


def complete_residual(
    g: Graph,
    *,
    node_budget: int = 2_000_000,
    deadline: float | None = None,
    restarts: int = 24,
    seed: int = 0,
) -> Decomposition:
    """Partition a regular even-degree graph into Hamilton cycles by exact
    backtracking across cycle choices.

    Each level tries up to HEURISTIC_TRIES rotation-heuristic cycles first,
    then every other Hamilton cycle by exhaustive DFS.  The budget is spent
    in restart slices, each seeded from ``seed`` and its attempt number, so
    one seed always gives one decomposition.  A slice that exhausts its whole
    tree without finding a decomposition proves infeasibility
    (InfeasibleError); a slice that hits its node quota abandons its ordering
    and the next slice restarts.  BudgetError means every slice ran out
    undecided.  A returned decomposition has been verified.
    """
    degree = g.regular_degree()
    if degree is None:
        raise InputError("completion needs a regular graph")
    if degree % 2 != 0:
        raise InputError(f"degree {degree} is odd")
    if degree == 0:
        return Decomposition.from_parts(g.n, [])

    def candidates(bits, budget, rng):
        tried = set()
        for _ in range(HEURISTIC_TRIES):
            cyc = _rotation_first_cycle(bits, g.n, budget, rng)
            if cyc is None:
                break
            key = canonical_cycle(cyc)
            if key not in tried:
                tried.add(key)
                yield cyc
        for cyc in _hamilton_cycles_pruned(bits, g.n, budget, rng):
            if canonical_cycle(cyc) not in tried:
                yield cyc

    def search(bits, budget, rng) -> list[tuple[int, ...]] | None:
        if not any(bits):
            return []
        for cyc in candidates(bits, budget, rng):
            rest = search(strip_cycle(bits, cyc), budget, rng)
            if rest is not None:
                return [cyc] + rest
        return None

    slice_budget = max(20_000, node_budget // max(1, restarts))
    spent = 0
    found: list[tuple[int, ...]] | None = None
    for attempt in range(max(1, restarts)):
        if spent >= node_budget:
            break
        budget = _Budget(min(slice_budget, node_budget - spent), deadline)
        rng = random.Random(spawn_seed(seed, "order", attempt))
        try:
            found = search(tuple(g.adj_bits), budget, rng)
        except BudgetError:
            spent += budget.nodes
            continue
        spent += budget.nodes
        if found is None:
            raise InfeasibleError("no Hamiltonian decomposition exists")
        break
    if found is None:
        raise BudgetError(
            f"completion search spent {spent} nodes without a decision"
        )
    deco = Decomposition.from_parts(g.n, found)
    check = verify_decomposition(g, deco)
    if not check.ok:
        raise AssertionError(f"completer output failed verification: {check.violation}")
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
            stack.append((u, iter(g.adj[u])))
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


@dataclass
class PipelineRun:
    """Everything one pipeline invocation produced, for tracing and the CLI."""

    n: int
    degree: int
    params: PipelineParams
    decomposition: Decomposition
    rotation_cycles: int
    completed_cycles: int
    planned_steps: int
    partition_stats: dict = field(default_factory=dict)
    step_stats: list = field(default_factory=list)
    attempts: int = 1
    fallback_whole_graph: bool = False
    elapsed_s: float = 0.0


def _plan_steps(core_degree: int, eps: float, r: int, max_steps: int | None) -> int:
    """Number of rotation-extraction steps: (d0 - eps*r)/2 rounded down, and
    never so many that the remaining core degree drops below 4."""
    t = floor_frac((core_degree - eps * r) / 2)
    t = min(t, (core_degree - 4) // 2)
    t = max(t, 0)
    if max_steps is not None:
        t = min(t, max_steps)
    return t


def run_pipeline(
    graph: Graph, params: PipelineParams | None = None, seed: int | None = None
) -> PipelineRun:
    """Decompose a dense even-regular graph into Hamilton cycles.

    Stages: tri-partition; planned rotation-extraction steps on the
    (core, patch) pair; exact backtracking completion of everything left.
    Stage failures fall through gracefully (a failed step stops the rotation
    stage early; a failed partition sends the whole graph to the completer),
    and whole-pipeline retries rotate the seed.
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
    if graph.n < params.min_n:
        raise InputError(f"pipeline needs n >= {params.min_n}, got {graph.n}")
    if r + EPS < params.c * graph.n:
        raise InputError(f"degree {r} below c*n = {params.c * graph.n:.2f}")

    last_error: Exception | None = None
    for attempt in range(max(1, params.pipeline_retries)):
        check_deadline(params.deadline, "pipeline")
        attempt_seed = spawn_seed(seed, "pipeline", attempt)
        cycles: list[tuple[int, ...]] = []
        step_stats: list[dict] = []
        partition_stats: dict = {}
        fallback = False
        planned = 0
        try:
            tp: TriPartition | None = None
            try:
                tp = tri_partition(graph, _with_seed(params, attempt_seed))
                partition_stats = dict(tp.stats)
            except (BudgetError, InfeasibleError) as exc:
                log.warning("tri-partition failed (%s); completing whole graph", exc)
                fallback = True

            if tp is not None:
                core, patch = tp.core, tp.patch
                planned = _plan_steps(tp.core_degree, params.eps, r, params.max_steps)
                for i in range(planned):
                    check_deadline(params.deadline, "pipeline step")
                    try:
                        step = extract_hamilton_step(
                            core, patch, params, spawn_seed(attempt_seed, "step", i)
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
                    core, patch = step.new_core, step.new_patch
                    expect = tp.core_degree - 2 * (i + 1)
                    if core.regular_degree() != expect:
                        raise AssertionError(
                            f"working core degree {core.regular_degree()} != {expect}"
                        )

            used = set()
            for cyc in cycles:
                used |= cycle_edges(cyc)
            residual = Graph(graph.n, graph.edges - used)
            res_degree = residual.regular_degree()
            if res_degree is None:
                raise AssertionError("residual after cycle removal is irregular")
            completion = complete_residual(
                residual,
                node_budget=params.completion_node_budget,
                deadline=params.deadline,
                seed=spawn_seed(attempt_seed, "completion"),
            )
            deco = Decomposition.from_parts(
                graph.n, list(cycles) + [list(c) for c in completion.cycles]
            )
            check = verify_decomposition(graph, deco)
            if not check.ok:
                raise AssertionError(f"pipeline output invalid: {check.violation}")
            return PipelineRun(
                n=graph.n,
                degree=r,
                params=params,
                decomposition=deco,
                rotation_cycles=len(cycles),
                completed_cycles=completion.cycle_count,
                planned_steps=planned,
                partition_stats=partition_stats,
                step_stats=step_stats,
                attempts=attempt + 1,
                fallback_whole_graph=fallback,
                elapsed_s=time.perf_counter() - t0,
            )
        except (BudgetError, InfeasibleError) as exc:
            last_error = exc
            log.warning("pipeline attempt %d failed: %s", attempt, exc)
            continue
    raise BudgetError(
        f"pipeline failed after {params.pipeline_retries} attempts (last: {last_error})"
    )


def _with_seed(params: PipelineParams, seed: int) -> PipelineParams:
    from dataclasses import replace

    return replace(params, seed=seed)


def _with_density(params: PipelineParams, c: float) -> PipelineParams:
    """Re-derive the parameter chain for a new density fraction, keeping
    eps/gamma/tau and all budgets."""
    from dataclasses import replace

    delta = min(params.eps * c / 5, params.tau / 2)
    nu = min(delta, params.eps * params.gamma / 2)
    return replace(params, c=c, delta=delta, nu=nu, alpha=3 * params.eps * c)


def decompose_pipeline(
    graph: Graph, params: PipelineParams | None = None, seed: int | None = None
) -> Decomposition:
    """Hamiltonian decomposition of an even-regular dense graph."""
    return run_pipeline(graph, params, seed).decomposition


def decompose_odd(
    graph: Graph, params: PipelineParams | None = None, seed: int | None = None
) -> Decomposition:
    """Odd-degree variant: peel off a perfect matching, decompose the rest.

    The result has (r-1)/2 Hamilton cycles plus the matching.  Tiny inputs
    (below the pipeline minimum) go to the exact completer once per perfect
    matching until one remainder decomposes, so InfeasibleError there means
    no matching works; larger inputs send the first matching's remainder
    through the pipeline.  The n = 2 single-edge case degenerates to a
    matching with no cycles.
    """
    r = graph.regular_degree()
    if r is None:
        raise InputError("odd-degree decomposition needs a regular graph")
    if r % 2 == 0:
        raise InputError(f"degree {r} is even; use the main pipeline")
    if graph.n % 2 != 0:
        raise InfeasibleError("odd degree with odd n admits no perfect matching")
    min_n = params.min_n if params is not None else 8
    if r == 1:
        if graph.n == 2:
            log.warning("degenerate n=2 input: matching only, no cycles")
        matching, cycles = find_perfect_matching(graph), ()
    elif graph.n < min_n:
        matching, cycles = _complete_over_matchings(graph, params, seed)
    else:
        matching = find_perfect_matching(graph)
        if params is not None:
            # the caller's density fraction described the odd input; the
            # remainder is one degree thinner
            remainder_c = min(params.c, (r - 1) / graph.n)
            if remainder_c < params.c:
                params = _with_density(params, remainder_c)
        remainder = graph.subtract(frozenset(matching))
        cycles = decompose_pipeline(remainder, params, seed).cycles
    deco = Decomposition.from_parts(graph.n, [list(c) for c in cycles], matching)
    check = verify_decomposition(graph, deco)
    if not check.ok:
        raise AssertionError(f"odd-degree output invalid: {check.violation}")
    return deco


def _complete_over_matchings(
    graph: Graph, params: PipelineParams | None, seed: int | None
) -> tuple[tuple[Edge, ...], tuple[tuple[int, ...], ...]]:
    """Exact odd-degree search: the first perfect matching whose remainder
    the completer decomposes.  InfeasibleError only when every remainder is
    proven infeasible; a BudgetError from any remainder propagates."""
    node_budget = params.completion_node_budget if params is not None else 2_000_000
    deadline = params.deadline if params is not None else None
    for matching in _perfect_matchings(graph):
        check_deadline(deadline, "odd-degree completion")
        try:
            inner = complete_residual(
                graph.subtract(frozenset(matching)),
                node_budget=node_budget,
                deadline=deadline,
                seed=spawn_seed(seed if seed is not None else 0, "odd-completion"),
            )
        except InfeasibleError:
            continue
        return matching, inner.cycles
    raise InfeasibleError("no perfect matching leaves a decomposable remainder")
