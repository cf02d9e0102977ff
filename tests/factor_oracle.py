"""Exhaustive (<=2)-factor oracles for the factor tests: every
fixed-point-free permutation supported on a graph's edges, and the distinct
factors those permutations project to.  Exponential; n <= 14."""

from hamdeck.errors import InputError
from hamdeck.factor import TwoFactor, _project_permutation
from hamdeck.graphs import Graph, iter_bits

ENUMERATION_CAP = 14


def _valid_permutations(g: Graph):
    """Yield every permutation sigma with sigma(i) != i and (i, sigma(i))
    always an edge, by backtracking over positions."""
    n = g.n
    sigma = [-1] * n
    used = [False] * n

    def rec(i: int):
        if i == n:
            yield list(sigma)
            return
        for w in iter_bits(g.adj_bits[i]):
            if not used[w]:
                used[w] = True
                sigma[i] = w
                yield from rec(i + 1)
                used[w] = False
        sigma[i] = -1

    yield from rec(0)


def count_factor_permutations(g: Graph) -> int:
    """Number of permanent-style permutations supported on the edge set.

    Each factor with k cycle components (length >= 3) corresponds to 2^k of
    these permutations; isolated edges contribute a single 2-cycle each.
    """
    if g.n > ENUMERATION_CAP:
        raise InputError(f"enumeration limited to n <= {ENUMERATION_CAP}")
    return sum(1 for _ in _valid_permutations(g))


def enumerate_le2_factors(
    g: Graph, max_components: int | None = None
) -> list[TwoFactor]:
    """All distinct (<=2)-factors as subgraphs, optionally filtered to at
    most ``max_components`` components.  Exhaustive; n <= 14."""
    if g.n > ENUMERATION_CAP:
        raise InputError(f"enumeration limited to n <= {ENUMERATION_CAP}")
    seen: set[tuple] = set()
    out: list[TwoFactor] = []
    for sigma in _valid_permutations(g):
        cycles, pairs = _project_permutation(sigma)
        factor = TwoFactor.build(g, cycles, pairs)
        key = (factor.cycles, factor.pairs)
        if key in seen:
            continue
        seen.add(key)
        if max_components is not None and factor.component_count > max_components:
            continue
        out.append(factor)
    out.sort(key=lambda f: (f.cycles, f.pairs))
    return out
