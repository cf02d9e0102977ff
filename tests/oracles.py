"""Listing oracles for the tests: every Hamilton cycle or decomposition of
a tiny graph, and an exact isomorphism test.  They walk the package's own
recursions (``counting._hamilton_cycles_from``, ``graphs.decompositions``
and the corpus's class matcher), so the counts are checked against lists."""

from hamdeck.counting import (
    _check_decomposable_input,
    _hamilton_cycles_from,
    _maps_onto,
    _vertex_invariants,
)
from hamdeck.graphs import decompositions


def enumerate_hamilton_cycles(g):
    """Every Hamilton cycle once, as a tuple from vertex 0, in lexicographic
    order."""
    return list(_hamilton_cycles_from(g.adj_bits, g.n))


def decomposition_stream(g, *, ordered=False):
    """Yield every Hamiltonian decomposition of g.

    Unless ``ordered``, each level lists only the cycles through (0, a), a
    being vertex 0's lowest remaining neighbour, so each unordered
    decomposition comes once, sorted, in lexicographic order.  ``ordered``
    takes every cycle at every level, so its list cross-checks the anchor.
    """
    def cycles_of(bits):
        second = -1 if ordered else bits[0] & -bits[0]
        return _hamilton_cycles_from(bits, g.n, None, second)

    return decompositions(g.adj_bits, g.n, cycles_of)


def enumerate_decompositions(g):
    """All unordered decompositions, each as a sorted tuple of cycle tuples."""
    _check_decomposable_input(g)
    return list(decomposition_stream(g))


def isomorphic(g1, g2):
    """Exact isomorphism test by backtracking (intended for n <= 10)."""
    inv1, inv2 = _vertex_invariants(g1.adj_bits), _vertex_invariants(g2.adj_bits)
    if sorted(inv1) != sorted(inv2):
        return False
    return _maps_onto(g1.adj_bits, inv1, g2.adj_bits, inv2)
