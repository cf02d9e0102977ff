"""(<=2)-factors: spanning unions of vertex-disjoint cycles and isolated edges.

Sampling goes through perfect matchings of the bipartite double cover: a
perfect matching there is a fixed-point-free permutation supported on the
edge set, and its permutation cycles project to components (2-cycles become
isolated edges, longer cycles become graph cycles).  Each draw matches the
double cover on the graph's bit rows: a greedy pass over the rows in random
order, each from a random offset, then one augmenting-path search per row
left unmatched, by ``graphs.augment``, the breadth-first search that
``regularize.max_flow`` also uses.  The draws are random but follow no
known distribution, so counting claims are left to the exhaustive
enumerator the tests keep (``tests/factor_oracle.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

from .errors import InfeasibleError, InputError
from .graphs import Edge, Graph, augment, norm_edge, single_bits
from .util import ceil_frac, check_deadline, spawn_seed
from .walecki import canonical_cycle

if TYPE_CHECKING:
    import numpy as np


def component_budget(n: int) -> int:
    """Component-count target for sampled factors: ceil(sqrt(n * ln n))."""
    return ceil_frac(math.sqrt(n * math.log(n)))


@dataclass(frozen=True)
class TwoFactor:
    """Spanning disjoint union of cycles (length >= 3) and isolated edges."""

    host_n: int
    cycles: tuple[tuple[int, ...], ...]
    pairs: tuple[Edge, ...]

    @classmethod
    def build(cls, host: Graph, cycles, pairs) -> "TwoFactor":
        """Validating entry for factors from outside the rotation engine:
        canonicalise, then raise InputError unless the cover spans host."""
        canon_cycles = tuple(sorted(canonical_cycle(c) for c in cycles))
        canon_pairs = tuple(sorted(norm_edge(u, v) for u, v in pairs))
        factor = cls(host.n, canon_cycles, canon_pairs)
        _validate_cover(host, factor)
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

    def to_json_dict(self) -> dict:
        return {
            "n": self.host_n,
            "cycles": [list(c) for c in self.cycles],
            "edges": [list(e) for e in self.pairs],
        }


@dataclass(frozen=True)
class PartialHC:
    """Spanning cover with exactly one path component; the rest are cycles
    and isolated edges.  In the package only the rotation engine builds one,
    from a validated factor, and nothing checks it again."""

    host_n: int
    path: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]
    pairs: tuple[Edge, ...]


def _validate_cover(host: Graph, cover) -> None:
    """Raise InputError unless the factor's cycles and pairs split the host's
    vertices disjointly along host edges.  ``build``, the one caller, makes
    the cover on host.n vertices and ``canonical_cycle`` rejects a cycle
    under 3 vertices, so neither is checked again."""
    covered = [v for part in chain(cover.cycles, cover.pairs) for v in part]
    if len(covered) != host.n or set(covered) != set(range(host.n)):
        raise InputError("factor components are not a disjoint spanning cover")
    bit = single_bits(host.n)  # the cover is range-checked by now
    for walk in chain((c + c[:1] for c in cover.cycles), cover.pairs):
        for a, b in zip(walk, walk[1:]):
            if not host.adj_bits[a] & bit[b]:
                raise InputError(f"factor uses non-edge {norm_edge(a, b)}")


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


def _random_perfect_matching(g: Graph, rng: np.random.Generator) -> list[int] | None:
    """Maximum matching of the double cover, grown from a random greedy one.

    Row v of the n x n biadjacency is vertex v and its columns are v's
    neighbours, read from the bit row.  The rows are visited in a random
    order, and each takes its lowest free column at or above a random
    offset, wrapping round; order and offsets are drawn in bulk.  Each row
    left unmatched then runs one breadth-first search for an augmenting
    path, ``graphs.augment`` with b = 1.  No distribution over matchings is
    promised.
    Returns sigma with sigma[i] = the partner of vertex i, or None when some
    row has no augmenting path: a maximum matching then leaves that row
    unmatched, which certifies that no (<=2)-factor exists.
    """
    n, rows, bit = g.n, g.adj_bits, single_bits(g.n)
    match = [0] * n  # row -> its column's bit
    match_in = [0] * n  # column -> its row's bit
    free = (1 << n) - 1  # the unmatched columns
    unmatched = []
    for v, k in zip(rng.permutation(n).tolist(), rng.integers(0, n, n).tolist()):
        options = rows[v] & free
        if not options:
            unmatched.append(v)
            continue
        if upper := options >> k:
            w = k + (upper & -upper).bit_length() - 1
        else:
            w = (options & -options).bit_length() - 1
        match[v], match_in[w] = bit[w], bit[v]
        free ^= bit[w]
    for root in unmatched:
        w = augment(rows, rows, match, match_in, free, root)
        if w < 0:
            return None
        free ^= bit[w]
    return [row.bit_length() - 1 for row in match]


def sample_le2_factor(
    g: Graph, seed: int, *, deadline: float | None = None
) -> TwoFactor:
    """Draw one random (<=2)-factor of g from ``spawn_seed(seed, "factor", 0)``.

    The component cap is the caller's policy: ``extract_hamilton_step``
    redraws factors above ``component_budget``.  Raises InfeasibleError when
    no factor exists, and BudgetError when ``deadline`` has passed.
    """
    import numpy as np

    if g.n < 2:
        raise InfeasibleError("graphs with fewer than 2 vertices have no factor")
    check_deadline(deadline, "factor sampling")
    rng = np.random.default_rng(spawn_seed(seed, "factor", 0))
    sigma = _random_perfect_matching(g, rng)
    if sigma is None:
        raise InfeasibleError(
            "no (<=2)-factor: bipartite double cover has no perfect matching"
        )
    return TwoFactor.build(g, *_project_permutation(sigma))
