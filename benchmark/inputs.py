"""Benchmark inputs, generated from scratch so the program under test
receives only finished graphs.

Inputs keep fixed vertex labels: relabelling changes the exhaustive counts'
search order and the pipeline's random choices, which moved single op times
by up to 20% (counts) and 2.5x (Paley(197)) in trial runs.
"""

from __future__ import annotations

import numpy as np

from hamdeck.graphs import Graph, complete_graph, norm_edge


def circulant(n: int, jumps) -> Graph:
    return Graph(
        n, frozenset(norm_edge(i, (i + j) % n) for i in range(n) for j in jumps)
    )


def complete_minus_perfect_matching(n: int) -> Graph:
    matching = frozenset((2 * i, 2 * i + 1) for i in range(n // 2))
    return Graph(n, complete_graph(n).edges - matching)


def _is_prime(q: int) -> bool:
    return q >= 2 and all(q % p for p in range(2, int(q**0.5) + 1))


def paley(q: int) -> Graph:
    """Paley graph on Z_q: u ~ v iff u - v is a nonzero square mod q.

    Checks that q is a prime with q = 1 (mod 4) and that the result is
    strongly regular with parameters (q, (q-1)/2, (q-5)/4, (q-1)/4).
    """
    if not _is_prime(q) or q % 4 != 1:
        raise ValueError(f"Paley graph needs a prime q = 1 (mod 4), got {q}")
    squares = {x * x % q for x in range(1, q)}
    g = Graph(
        q,
        frozenset(
            (u, v) for u in range(q) for v in range(u + 1, q) if (v - u) % q in squares
        ),
    )
    k, lam, mu = (q - 1) // 2, (q - 5) // 4, (q - 1) // 4
    a = g.adjacency_matrix().astype(np.int64)
    common = a @ a
    off = ~np.eye(q, dtype=bool)
    if not (
        (a.sum(axis=1) == k).all()
        and (common[(a == 1) & off] == lam).all()
        and (common[(a == 0) & off] == mu).all()
    ):
        raise AssertionError(f"Paley({q}) is not strongly regular {(q, k, lam, mu)}")
    return g


ORACLE_GRAPHS = {
    "C9(1,2,3)": lambda: circulant(9, (1, 2, 3)),
    "C9(1,2,4)": lambda: circulant(9, (1, 2, 4)),
    "K7": lambda: complete_graph(7),
    "K8-PM": lambda: complete_minus_perfect_matching(8),
    "K10": lambda: complete_graph(10),
}
