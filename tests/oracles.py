"""Listing oracles for the tests: every Hamilton cycle or decomposition of
a tiny graph, and an exact isomorphism test.  They walk the package's own
enumerator and recursions (``graphs.hamilton_cycles``, which the completer
and the counting oracles share, ``graphs.decompositions`` and the corpus's
class matcher), so the counts are checked against lists; the Held-Karp
count checks the enumerator independently."""

from hamdeck.counting import _check_decomposable_input, _maps_onto, _vertex_invariants
from hamdeck.graphs import decompositions, hamilton_cycles


def no_budget(_nodes):
    """A budget hook for ``hamilton_cycles`` that never stops it."""


def enumerate_hamilton_cycles(g):
    """Every Hamilton cycle once, as a tuple from vertex 0, in lexicographic
    order."""
    return list(hamilton_cycles(g.adj_bits, g.n, no_budget))


def decomposition_stream(g, *, ordered=False):
    """Yield every Hamiltonian decomposition of g.

    Unless ``ordered``, each level lists only the cycles through (0, a), a
    being vertex 0's lowest remaining neighbour, so each unordered
    decomposition comes once, sorted, in lexicographic order.  ``ordered``
    takes every cycle at every level, so its list cross-checks the anchor.
    """
    def cycles_of(bits):
        second = -1 if ordered else bits[0] & -bits[0]
        return hamilton_cycles(bits, g.n, no_budget, second)

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
