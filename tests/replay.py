"""Move oracles for the rotation tests: replay a move history on an edge
set, and reduce one move to the edges it adds and removes."""

from hamdeck.errors import InputError
from hamdeck.graphs import Edge


def net_effect(move) -> tuple[frozenset[Edge], frozenset[Edge]]:
    added: set[Edge] = set()
    removed: set[Edge] = set()
    for op, e in move.steps:
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
