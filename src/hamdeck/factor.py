"""(<=2)-factors: spanning unions of vertex-disjoint cycles and isolated edges.

Sampling goes through perfect matchings of the bipartite double cover: a
perfect matching there is a fixed-point-free permutation supported on the
edge set, and its permutation cycles project to components (2-cycles become
isolated edges, longer cycles become graph cycles).  Sampling is randomized
augmenting-path matching with fresh random vertex orders per attempt; it is
NOT exactly uniform, so counting claims are delegated to the exhaustive
enumerator at small n.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass

from .errors import InfeasibleError, InputError
from .graphs import Edge, Graph, norm_edge
from .util import ceil_frac, spawn_seed
from .walecki import canonical_cycle, cycle_edges

log = logging.getLogger(__name__)

ENUMERATION_CAP = 14


def component_budget(n: int) -> int:
    """Component-count target for sampled factors: ceil(sqrt(n * ln n))."""
    if n < 2:
        return 1
    return ceil_frac(math.sqrt(n * math.log(n)))


@dataclass(frozen=True)
class TwoFactor:
    """Spanning disjoint union of cycles (length >= 3) and isolated edges."""

    host_n: int
    cycles: tuple[tuple[int, ...], ...]
    pairs: tuple[Edge, ...]

    @classmethod
    def build(cls, host: Graph, cycles, pairs) -> "TwoFactor":
        canon_cycles = tuple(sorted(canonical_cycle(c) for c in cycles))
        canon_pairs = tuple(sorted(norm_edge(u, v) for u, v in pairs))
        factor = cls(host.n, canon_cycles, canon_pairs)
        factor.validate_in(host)
        return factor

    @property
    def component_count(self) -> int:
        return len(self.cycles) + len(self.pairs)

    @property
    def is_hamilton_cycle(self) -> bool:
        return (
            len(self.pairs) == 0
            and len(self.cycles) == 1
            and len(self.cycles[0]) == self.host_n
        )

    def edge_set(self) -> frozenset[Edge]:
        edges: set[Edge] = set(self.pairs)
        for cyc in self.cycles:
            edges.update(cycle_edges(cyc))
        return frozenset(edges)

    def covered_vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for cyc in self.cycles:
            out.update(cyc)
        for u, v in self.pairs:
            out.update((u, v))
        return frozenset(out)

    def validate_in(self, host: Graph) -> None:
        if host.n != self.host_n:
            raise InputError(f"host size {host.n} != factor host {self.host_n}")
        total = sum(len(c) for c in self.cycles) + 2 * len(self.pairs)
        covered = self.covered_vertices()
        if total != self.host_n or covered != frozenset(range(self.host_n)):
            raise InputError("factor components are not a disjoint spanning cover")
        for cyc in self.cycles:
            if len(cyc) < 3:
                raise InputError(f"cycle too short: {cyc}")
        for e in self.edge_set():
            if e not in host.edges:
                raise InputError(f"factor uses non-edge {e}")

    def to_json_dict(self) -> dict:
        return {
            "n": self.host_n,
            "cycles": [list(c) for c in self.cycles],
            "edges": [list(e) for e in self.pairs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TwoFactor":
        try:
            n = int(data["n"])
            cycles = tuple(canonical_cycle([int(v) for v in c]) for c in data["cycles"])
            pairs = tuple(
                sorted(norm_edge(int(u), int(v)) for u, v in data["edges"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed factor JSON: {exc}") from exc
        return cls(n, tuple(sorted(cycles)), pairs)


@dataclass(frozen=True)
class PartialHC:
    """Spanning cover with exactly one path component; the rest are cycles
    and isolated edges."""

    host_n: int
    path: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]
    pairs: tuple[Edge, ...]

    @classmethod
    def build(cls, host: Graph, path, cycles, pairs) -> "PartialHC":
        partial = cls(
            host.n,
            tuple(path),
            tuple(sorted(canonical_cycle(c) for c in cycles)),
            tuple(sorted(norm_edge(u, v) for u, v in pairs)),
        )
        partial.validate_in(host)
        return partial

    @property
    def component_count(self) -> int:
        return 1 + len(self.cycles) + len(self.pairs)

    def edge_set(self) -> frozenset[Edge]:
        edges: set[Edge] = set(self.pairs)
        edges.update(
            norm_edge(a, b) for a, b in zip(self.path, self.path[1:])
        )
        for cyc in self.cycles:
            edges.update(cycle_edges(cyc))
        return frozenset(edges)

    def validate_in(self, host: Graph) -> None:
        if host.n != self.host_n:
            raise InputError(f"host size {host.n} != partial host {self.host_n}")
        if len(self.path) < 2:
            raise InputError("path component needs at least 2 vertices")
        covered = list(self.path)
        for cyc in self.cycles:
            if len(cyc) < 3:
                raise InputError(f"cycle too short: {cyc}")
            covered.extend(cyc)
        for u, v in self.pairs:
            covered.extend((u, v))
        if len(covered) != self.host_n or set(covered) != set(range(self.host_n)):
            raise InputError("partial components are not a disjoint spanning cover")
        for e in self.edge_set():
            if e not in host.edges:
                raise InputError(f"partial uses non-edge {e}")


def component_profile(f: TwoFactor) -> tuple[int, int, int]:
    """(total components, cycle components, isolated-edge components)."""
    return (f.component_count, len(f.cycles), len(f.pairs))


# -- permutation <-> component projection ------------------------------------


def _project_permutation(sigma: list[int]) -> tuple[list[list[int]], list[Edge]]:
    n = len(sigma)
    seen = [False] * n
    cycles: list[list[int]] = []
    pairs: list[Edge] = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        v = sigma[start]
        while v != start:
            orbit.append(v)
            seen[v] = True
            v = sigma[v]
        if len(orbit) == 2:
            pairs.append(norm_edge(orbit[0], orbit[1]))
        else:
            cycles.append(orbit)
    return cycles, pairs


# -- sampling ------------------------------------------------------------------


def _random_perfect_matching(g: Graph, rng: random.Random) -> list[int] | None:
    """Random-order augmenting-path perfect matching on the double cover.

    Returns sigma with sigma[i] = matched partner, or None when the maximum
    matching is smaller than n (which certifies that no (<=2)-factor exists:
    sequential augmentation yields a maximum matching).
    """
    n = g.n
    match_left = [-1] * n
    match_right = [-1] * n
    order = list(range(n))
    rng.shuffle(order)

    def augment(u: int, visited: set[int]) -> bool:
        nbrs = list(g.adj[u])
        rng.shuffle(nbrs)
        for w in nbrs:
            if w in visited:
                continue
            visited.add(w)
            if match_right[w] == -1 or augment(match_right[w], visited):
                match_left[u] = w
                match_right[w] = u
                return True
        return False

    for u in order:
        if not augment(u, set()):
            return None
    return match_left


def sample_le2_factor(
    g: Graph,
    seed: int,
    *,
    max_components: int | None = None,
    resamples: int = 64,
) -> TwoFactor:
    """Draw a random (<=2)-factor of g.

    Factors with more than ``max_components`` components (default
    ceil(sqrt(n ln n))) are redrawn up to ``resamples`` times, then accepted
    with a warning.  Raises InfeasibleError when no factor exists.
    """
    if g.n < 2:
        raise InfeasibleError("graphs with fewer than 2 vertices have no factor")
    cap = component_budget(g.n) if max_components is None else max_components
    last: TwoFactor | None = None
    for attempt in range(max(1, resamples)):
        rng = random.Random(spawn_seed(seed, "factor", attempt))
        sigma = _random_perfect_matching(g, rng)
        if sigma is None:
            raise InfeasibleError(
                "no (<=2)-factor: bipartite double cover has no perfect matching"
            )
        cycles, pairs = _project_permutation(sigma)
        last = TwoFactor.build(g, cycles, pairs)
        if last.component_count <= cap:
            return last
    log.warning(
        "accepting a factor with %d components (budget %d) after %d resamples",
        last.component_count,
        cap,
        resamples,
    )
    return last


# -- enumeration ----------------------------------------------------------------


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
        for w in g.adj[i]:
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
