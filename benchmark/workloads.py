"""The three workloads: their inputs, their operations, and an output check
for every operation that does not rely on the program's own self-checks.

An operation returns None when its output checks out and a description of
the problem otherwise; it raises BudgetError when its deadline runs out.
Every call into the package goes through a module attribute
(``decompose.run_pipeline``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from hamdeck import counting, decompose, partition, walecki
from hamdeck.errors import InfeasibleError
from hamdeck.graphs import Graph, complete_graph

from inputs import ORACLE_GRAPHS, paley

# Oracle values on the current code.
DECOMPOSITION_COUNTS = {"C9(1,2,3)": 7944, "C9(1,2,4)": 8448, "K7": 960, "K8-PM": 2816}
HAMILTON_CYCLES_K10 = 181440
CORPUS_MAX_N = 7

# The cached corpus builder, kept before any tracer wraps the name, so that
# set-up can empty its cache.
_CORPUS = counting.connected_regular_graphs


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[float], str | None]


def _check_decomposition(g: Graph, deco, cycles_expected: int) -> str | None:
    verdict = walecki.verify_decomposition(g, deco)
    if not verdict.ok:
        return f"verification failed: {verdict.violation}"
    if deco.cycle_count != cycles_expected:
        return f"{deco.cycle_count} cycles, expected {cycles_expected}"
    return None


def _pipeline_op(label: str, g: Graph, seed: int) -> Op:
    def run(deadline: float) -> str | None:
        params = partition.default_params(g, seed=seed, deadline=deadline)
        result = decompose.run_pipeline(g, params, seed=seed)
        return _check_decomposition(g, result.decomposition, g.regular_degree() // 2)

    return Op(f"{label}@{seed}", run)


def _count_op(label: str, g: Graph, expected: int) -> Op:
    def run(deadline: float) -> str | None:
        got = counting.count_decompositions_exact(g, deadline=deadline)
        return None if got == expected else f"count {got}, expected {expected}"

    return Op(f"count {label}", run)


def _ordered_op(label: str, g: Graph, unordered: int) -> Op:
    expected = unordered * math.factorial(g.regular_degree() // 2)

    def run(deadline: float) -> str | None:
        got = counting.count_decompositions_ordered(g, deadline=deadline)
        return None if got == expected else f"ordered count {got}, expected {expected}"

    return Op(f"count-ordered {label}", run)


def _hamilton_op(label: str, g: Graph, expected: int) -> Op:
    def run(deadline: float) -> str | None:
        got = counting.count_hamilton_cycles_exact(g, deadline=deadline)
        return None if got == expected else f"{got} Hamilton cycles, expected {expected}"

    return Op(f"hamilton {label}", run)


def _perfect_matchings(g: Graph, free: frozenset[int]):
    if not free:
        yield frozenset()
        return
    u = min(free)
    for v in g.adj[u]:
        if v in free:
            for rest in _perfect_matchings(g, free - {u, v}):
                yield rest | {(u, v)}


def _verdict(g: Graph, seed: int, deadline: float) -> str | None:
    """Completer (even degree) or odd variant verdict against the counts:
    a decomposition exactly when one exists, InfeasibleError exactly when
    none does."""
    r = g.regular_degree()
    if r % 2 == 0:
        exists = counting.count_decompositions_exact(g, deadline=deadline) > 0
    else:
        exists = any(
            counting.count_decompositions_exact(g.subtract(m), deadline=deadline) > 0
            for m in _perfect_matchings(g, frozenset(range(g.n)))
        )
    try:
        if r % 2 == 0:
            deco = decompose.complete_residual(g, deadline=deadline, seed=seed)
        else:
            params = partition.default_params(g, seed=seed, deadline=deadline)
            deco = decompose.decompose_odd(g, params, seed=seed)
    except InfeasibleError:
        return "wrong InfeasibleError verdict" if exists else None
    if not exists:
        return "decomposed a graph whose count is 0"
    return _check_decomposition(g, deco, r // 2)


def _corpus_op(graphs: list[Graph], seed: int) -> Op:
    def run(deadline: float) -> str | None:
        for g in graphs:
            problem = _verdict(g, seed, deadline)
            if problem is not None:
                return f"n={g.n} edges={sorted(g.edges)}: {problem}"
        return None

    return Op(f"verdicts corpus n<={CORPUS_MAX_N}", run)


def _corpus() -> list[Graph]:
    _CORPUS.cache_clear()
    return [
        g
        for n in range(2, CORPUS_MAX_N + 1)
        for r in range(1, n)
        if n * r % 2 == 0
        for g in counting.connected_regular_graphs(n, r)
    ]


def kn_mid(base: int) -> list[Op]:
    g = complete_graph(101)
    return [_pipeline_op("K101", g, s) for s in range(base, base + 5)]


def large_n(base: int) -> list[Op]:
    return [
        _pipeline_op("K201", complete_graph(201), base),
        _pipeline_op("Paley(197)", paley(197), base),
    ]


def oracle(base: int) -> list[Op]:
    g = {label: build() for label, build in ORACLE_GRAPHS.items()}
    ops = [_count_op(label, g[label], want) for label, want in DECOMPOSITION_COUNTS.items()]
    ops.append(_ordered_op("K7", g["K7"], DECOMPOSITION_COUNTS["K7"]))
    ops.append(_hamilton_op("K10", g["K10"], HAMILTON_CYCLES_K10))
    ops.append(_corpus_op(_corpus(), base))
    return ops


# name -> (builder taking the first pipeline seed, per-op deadline in seconds)
WORKLOADS = {
    "kn-mid": (kn_mid, 60.0),
    "large-n": (large_n, 90.0),
    "oracle": (oracle, 30.0),
}
