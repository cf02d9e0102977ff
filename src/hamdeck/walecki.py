"""Hamiltonian decompositions of complete graphs and a validity checker.

The classical hub-and-rotation zig-zag construction decomposes K_n (n odd)
into (n-1)/2 edge-disjoint Hamilton cycles.  The Decomposition type and the
checker are shared by every producer of decompositions in the package.

The checker walks the host's bit rows one edge at a time.  On a host of
``VECTOR_MIN_EDGES`` edges or more, once some other stage has loaded numpy,
it first tries a vectorised certificate that can only say "valid"; anything
it does not certify goes to the walk, which names the first violation.
The checker never imports numpy itself, so ``hamdeck verify`` stays free of
numpy's import cost.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass

from .errors import InputError
from .graphs import Edge, Graph, norm_edge, single_bits, unpack_rows

# Hosts with fewer edges are checked by the bit-row walk alone: on one
# 2-vCPU host the walk was faster on K11 (55 edges) and the certificate
# 1.6x faster on K21 (210 edges).
VECTOR_MIN_EDGES = 256


def canonical_cycle(seq) -> tuple[int, ...]:
    """Canonical form of a cyclic vertex sequence.

    Rotated so the smallest vertex comes first, oriented so its smaller
    neighbor comes second; the result is the lexicographic minimum of all
    rotations and reflections.
    """
    seq = list(seq)
    if len(seq) < 3:
        raise InputError(f"cycle needs at least 3 vertices, got {seq}")
    if len(set(seq)) != len(seq):
        raise InputError(f"cycle revisits a vertex: {seq}")
    i = seq.index(min(seq))
    fwd = seq[i:] + seq[:i]
    rev = [fwd[0]] + fwd[1:][::-1]
    return tuple(fwd) if tuple(fwd) <= tuple(rev) else tuple(rev)


@dataclass(frozen=True)
class Decomposition:
    """Edge-disjoint Hamilton cycles (plus optionally one perfect matching)."""

    host_n: int
    cycles: tuple[tuple[int, ...], ...]
    matching: tuple[Edge, ...] | None = None

    @classmethod
    def from_parts(cls, host_n: int, cycles, matching=None) -> "Decomposition":
        canon = tuple(sorted(canonical_cycle(c) for c in cycles))
        match = None
        if matching is not None:
            match = tuple(sorted(norm_edge(u, v) for u, v in matching))
        return cls(host_n, canon, match)

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)

    def to_json_dict(self) -> dict:
        return {
            "n": self.host_n,
            "cycles": [list(c) for c in self.cycles],
            "matching": [list(e) for e in self.matching]
            if self.matching is not None
            else None,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Decomposition":
        try:
            n = _json_int(data["n"])
            cycles = [[_json_int(v) for v in c] for c in data["cycles"]]
            matching = data.get("matching")
            if matching is not None:
                matching = [(_json_int(u), _json_int(v)) for u, v in matching]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed decomposition JSON: {exc}") from exc
        return cls.from_parts(n, cycles, matching)


def _json_int(value) -> int:
    if type(value) is not int:  # json loads true and false as bool, an int subclass
        raise TypeError(f"{value!r} is not an integer")
    return value


def walecki_decomposition(n: int) -> Decomposition:
    """Decompose K_n (n odd, n >= 3) into (n-1)/2 Hamilton cycles.

    Vertex n-1 is the fixed hub; the remaining n-1 vertices carry a zig-zag
    Hamilton path that is rotated (n-1)/2 times modulo n-1.  Deterministic:
    identical output on every call.
    """
    if n < 3 or n % 2 == 0:
        raise InputError(f"walecki decomposition needs odd n >= 3, got {n}")
    ring = n - 1
    hub = n - 1

    def zigzag(j: int) -> int:
        if j == 0:
            return 0
        if j % 2 == 1:
            return (j + 1) // 2
        return ring - j // 2

    cycles = []
    for k in range(ring // 2):
        cycles.append([hub] + [(zigzag(j) + k) % ring for j in range(ring)])
    return Decomposition.from_parts(n, cycles)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    violation: str | None = None


def _certified(np, g: Graph, d: Decomposition) -> bool:
    """True only if d partitions g's edges into Hamilton cycles (+ matching),
    checked on arrays: every cycle holds each vertex of range(n) once, each
    vertex is in one matching pair, and the pairs, m in number, leave none
    of g's edges unused.  False means "not certified", never "invalid".
    Nothing is sorted: a version that sorted the rows and the edge ids
    raised a K201 run's peak RSS by about 0.9 MB, this one by 0.15 MB."""
    n, cycles, matching = g.n, d.cycles, d.matching
    try:  # np.array infers float, str or object dtype for a non-integer
        k, h = len(cycles), len(matching or ())
        rows, pairs = np.array(cycles), np.array(matching or np.empty((0, 2), int))
    except (TypeError, ValueError):  # no length, or a ragged cycle or pair
        return False
    if rows.shape != (k, n) or pairs.shape != (h, 2) or rows.dtype.kind != "i":
        return False
    if pairs.dtype.kind != "i" or rows.min() < 0 or rows.max() >= n:
        return False
    seen = np.zeros((k, n), bool)
    seen[np.arange(k)[:, None], rows] = True
    if not seen.all():  # a row of n vertices missing one revisits another
        return False
    u, v = rows.ravel(), np.roll(rows, -1, axis=1).ravel()
    if matching is not None:
        # every vertex in exactly one pair, which also needs n even
        if not ((pairs >= 0) & (pairs < n)).all():
            return False
        if not (np.bincount(pairs.ravel(), minlength=n) == 1).all():
            return False
        u, v = np.concatenate((u, pairs[:, 0])), np.concatenate((v, pairs[:, 1]))
    # m pairs that leave no host edge unused are m distinct host edges
    if len(u) != g.edge_count:
        return False
    free = unpack_rows(g.adj_bits, n)
    free[u, v] = free[v, u] = 0
    return not free.any()


def verify_decomposition(g: Graph, d: Decomposition) -> VerifyResult:
    """Check that d partitions g's edges into Hamilton cycles (+ matching).

    Works on a copy of g's bit rows and clears each edge as it is used, so a
    cleared bit is a reused edge and the bits left over are the uncovered
    edges.  d may come from outside: cycles or a matching that cannot be
    iterated and a non-integer vertex are violations, and in a cycle with a
    vertex out of range ``has_edge`` range-checks each pair before its row
    is read.  Returns the first violation instead of raising.

    On a host of ``VECTOR_MIN_EDGES`` edges or more, when numpy is already
    loaded, ``_certified`` runs first and a valid d returns there, about 5x
    faster than the walk on K101 and 6x on K201 and Paley(197).  numpy is
    never imported for it: a warm import costs about 50 ms, a dozen walks of
    K201.
    Whatever the certificate does not certify is walked as before, so every
    violation is named the same.
    """
    if d.host_n != g.n:
        return VerifyResult(False, f"host mismatch: {d.host_n} != {g.n}")
    np = sys.modules.get("numpy")
    if np is not None and g.edge_count >= VECTOR_MIN_EDGES and _certified(np, g, d):
        return VerifyResult(True)
    free = list(g.adj_bits)  # the host edges that nothing has used yet
    bit = single_bits(g.n)
    try:
        cycles = enumerate(d.cycles)
    except TypeError:
        return VerifyResult(False, "cycles are not iterable")
    for idx, cyc in cycles:
        try:
            cyc = list(map(operator.index, cyc))
        except TypeError:
            return VerifyResult(False, f"cycle {idx} is not a sequence of integers")
        if len(cyc) != g.n:
            return VerifyResult(
                False, f"cycle {idx} has {len(cyc)} vertices, expected {g.n}"
            )
        if len(set(cyc)) != g.n:
            return VerifyResult(False, f"cycle {idx} revisits a vertex")
        # free rows are subsets of host rows, so inside the range one bit
        # test per edge finds both a non-edge and a reused edge
        in_range = min(cyc, default=0) >= 0 and max(cyc, default=0) < g.n
        for u, v in zip(cyc, cyc[1:] + cyc[:1]):
            if not ((in_range or g.has_edge(u, v)) and free[u] & bit[v]):
                e = norm_edge(u, v)
                if not g.has_edge(u, v):
                    return VerifyResult(False, f"cycle {idx} uses non-edge {e}")
                return VerifyResult(False, f"edge {e} reused by cycle {idx}")
            free[u] ^= bit[v]
            free[v] ^= bit[u]
    if d.matching is not None:
        if g.n % 2 != 0:
            return VerifyResult(False, "matching present but n is odd")
        try:
            pairs = iter(d.matching)
        except TypeError:
            return VerifyResult(False, "matching is not iterable")
        touched = 0
        for e in pairs:
            try:
                u, v = map(operator.index, e)
            except (TypeError, ValueError):
                return VerifyResult(False, f"matching element {e!r} is not a vertex pair")
            if not g.has_edge(u, v):
                return VerifyResult(False, f"matching uses non-edge {e}")
            if not free[u] & bit[v]:
                return VerifyResult(False, f"edge {e} reused by matching")
            if touched & (bit[u] | bit[v]):
                return VerifyResult(False, f"matching edge {e} shares a vertex")
            free[u] ^= bit[v]
            free[v] ^= bit[u]
            touched |= bit[u] | bit[v]
        if touched.bit_count() != g.n:
            return VerifyResult(
                False, f"matching covers {touched.bit_count()} of {g.n} vertices"
            )
    uncovered = sum(row.bit_count() for row in free) // 2
    if uncovered:
        return VerifyResult(False, f"{uncovered} edges of the host graph uncovered")
    return VerifyResult(True)
