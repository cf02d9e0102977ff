import random
import re

# numpy loaded opens verify_decomposition's certificate on hosts of
# VECTOR_MIN_EDGES edges or more
import numpy as np
import pytest

from hamdeck import walecki
from hamdeck.decompose import decompose_odd
from hamdeck.errors import InputError
from hamdeck.graphs import complete_graph
from hamdeck.walecki import (
    Decomposition,
    canonical_cycle,
    cycle_edges,
    verify_decomposition,
    walecki_decomposition,
)


def test_k3_single_cycle():
    deco = walecki_decomposition(3)
    assert deco.cycles == ((0, 1, 2),)


def test_k5_two_cycles_cover_all_edges():
    deco = walecki_decomposition(5)
    assert deco.cycle_count == 2
    edges = set()
    for cyc in deco.cycles:
        edges |= cycle_edges(cyc)
    assert len(edges) == 10


@pytest.mark.parametrize("n", [4, 2, 1, 0, -3])
def test_bad_n_rejected(n):
    with pytest.raises(InputError):
        walecki_decomposition(n)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 13, 25, 51])
def test_verifies_against_complete_graph(n):
    deco = walecki_decomposition(n)
    assert deco.cycle_count == (n - 1) // 2
    assert verify_decomposition(complete_graph(n), deco).ok


def test_deterministic():
    assert walecki_decomposition(31) == walecki_decomposition(31)


def test_canonical_cycle_form():
    deco = walecki_decomposition(11)
    for cyc in deco.cycles:
        assert cyc[0] == min(cyc)
        assert cyc[1] < cyc[-1]


def test_canonical_cycle_helper():
    assert canonical_cycle([3, 1, 2]) == (1, 2, 3)
    assert canonical_cycle([4, 2, 0, 3]) == (0, 2, 4, 3)
    with pytest.raises(InputError):
        canonical_cycle([0, 1])
    with pytest.raises(InputError):
        canonical_cycle([0, 1, 0])


class TestVerify:
    def test_walecki_output_passes(self):
        assert verify_decomposition(complete_graph(5), walecki_decomposition(5)).ok

    def test_edge_reuse_detected(self):
        cyc = walecki_decomposition(5).cycles[0]
        bad = Decomposition.from_parts(5, [cyc, cyc])
        result = verify_decomposition(complete_graph(5), bad)
        assert not result.ok
        assert "reused" in result.violation

    def test_uncovered_edges_detected(self):
        deco = walecki_decomposition(5)
        partial = Decomposition.from_parts(5, [deco.cycles[0]])
        result = verify_decomposition(complete_graph(5), partial)
        assert not result.ok
        assert "uncovered" in result.violation

    def test_non_edge_detected(self):
        from hamdeck.graphs import cycle_graph

        deco = Decomposition.from_parts(5, [[0, 1, 3, 2, 4]])
        result = verify_decomposition(cycle_graph(5), deco)
        assert not result.ok
        assert "non-edge" in result.violation

    def test_short_cycle_detected(self):
        bad = Decomposition(5, ((0, 1, 2),), None)
        result = verify_decomposition(complete_graph(5), bad)
        assert not result.ok

    def test_host_mismatch(self):
        result = verify_decomposition(complete_graph(7), walecki_decomposition(5))
        assert not result.ok
        assert "mismatch" in result.violation


def reference_verdict(g, d):
    """verify_decomposition's contract restated on edge sets: (ok, the
    violation with its edge tuples left out)."""
    if d.host_n != g.n:
        return False, "host mismatch"
    seen = set()
    for idx, cyc in enumerate(d.cycles):
        if len(cyc) != g.n:
            return False, f"cycle {idx} has {len(cyc)} vertices, expected {g.n}"
        if len(set(cyc)) != g.n:
            return False, f"cycle {idx} revisits a vertex"
        for e in cycle_edges(cyc):
            if e not in g.edges:
                return False, f"cycle {idx} uses non-edge"
            if e in seen:
                return False, f"edge reused by cycle {idx}"
            seen.add(e)
    if d.matching is not None:
        if g.n % 2:
            return False, "matching present but n is odd"
        touched = set()
        for e in d.matching:
            if e not in g.edges:
                return False, "matching uses non-edge"
            if e in seen:
                return False, "edge reused by matching"
            if touched & set(e):
                return False, "matching edge shares a vertex"
            seen.add(e)
            touched |= set(e)
        if len(touched) != g.n:
            return False, f"matching covers {len(touched)} of {g.n} vertices"
    if seen != g.edges:
        return False, f"{len(g.edges - seen)} edges of the host graph uncovered"
    return True, None


# K8 minus the perfect matching {01, 23, 45, 67} as three Hamilton cycles
K8_CYCLES = (
    (0, 2, 7, 5, 3, 1, 6, 4),
    (0, 3, 7, 4, 1, 2, 6, 5),
    (0, 6, 3, 4, 2, 5, 1, 7),
)
K8_MATCHING = ((0, 1), (2, 3), (4, 5), (6, 7))


def with_vertex(cycles, old, new):
    """The cycles with vertex ``old`` renamed ``new`` in the second one."""
    renamed = tuple(new if v == old else v for v in cycles[1])
    return cycles[:1] + (renamed,) + cycles[2:]


def closed_trails(a, b):
    """Two closed trails of length n that use each edge of the Hamilton
    cycles a and b once, one of them through some vertex twice: walk a and b
    from their common first vertex (b either way round) and swap tails where
    both stand on one vertex at one step."""
    assert a[0] == b[0]
    for c in (b, b[:1] + b[:0:-1]):
        for i in range(1, len(a)):
            if a[i] == c[i]:
                trails = a[i:] + c[:i], c[i:] + a[:i]
                assert min(map(len, map(set, trails))) < len(a)
                return trails
    raise AssertionError("no common vertex at a common step")


def odd_kinds(cycles):
    """(kind, host, decomposition) for each violation a Hamilton
    decomposition of K_n, n odd, can be mutated into."""
    n = len(cycles[0])
    host = complete_graph(n)
    return [
        ("reused-edge", host, Decomposition(n, (cycles[0],) + cycles[:1] + cycles[2:])),
        ("non-edge", host.subtract({cycles[1][:2]}), Decomposition(n, cycles)),
        (
            # as many edges as the host, but the last cycle's are non-edges
            "trade-for-non-edges",
            host.subtract(cycle_edges(cycles[-1])),
            Decomposition(n, cycles[:-2] + cycles[-1:]),
        ),
        ("uncovered-edges", host, Decomposition(n, cycles[:-1])),
        ("extra-cycle", host, Decomposition(n, cycles + cycles[:1])),
        ("cycle-minus-one", host, Decomposition(n, with_vertex(cycles, 0, -1))),
        ("cycle-n", host, Decomposition(n, with_vertex(cycles, n - 1, n))),
        ("cycle-huge", host, Decomposition(n, with_vertex(cycles, 0, 10**30))),
        ("cycle-minus-huge", host, Decomposition(n, with_vertex(cycles, 0, -(10**30)))),
        ("short-cycle", host, Decomposition(n, (cycles[0][:-1],) + cycles[1:])),
        (
            "revisit",
            host,
            Decomposition(n, (tuple(range(n - 1)) + (0,),) + cycles[1:]),
        ),
        (
            "closed-trails",
            host,
            Decomposition(n, closed_trails(*cycles[:2]) + cycles[2:]),
        ),
        ("host-mismatch", complete_graph(n + 2), Decomposition(n, cycles)),
        ("matching-on-odd-n", host, Decomposition(n, cycles, ((0, 1),))),
    ]


def even_kinds(cycles, matching):
    """(kind, host, decomposition) for each violation the matching of a
    decomposition of K_n, n even, can be mutated into."""
    n = len(cycles[0])
    host = complete_graph(n)
    a, b = matching[0]
    # the last cycle's edges moved into the matching: each edge once
    absorbed = matching + tuple(sorted(cycle_edges(cycles[-1])))
    return [
        ("shared-vertex", host, Decomposition(n, cycles[:-1], absorbed)),
        (
            "matching-reuses-a-cycle-edge",
            host,
            Decomposition(n, cycles, (cycles[0][:2],) + matching[1:]),
        ),
        ("matching-leaves-vertices", host, Decomposition(n, cycles, matching[1:])),
        (
            "matching-minus-one",
            host,
            Decomposition(n, cycles, ((-1, b),) + matching[1:]),
        ),
        (
            "matching-n",
            host,
            Decomposition(n, cycles, matching[:-1] + ((matching[-1][0], n),)),
        ),
        (
            "matching-huge",
            host,
            Decomposition(n, cycles, ((a, 10**30),) + matching[1:]),
        ),
    ]


def swaps(cycles, rng):
    """Vertex swaps in one cycle of a decomposition of K_n: every pair is an
    edge, so the only violation a swap can cause is a reused edge."""
    n = len(cycles[0])
    host = complete_graph(n)
    for trial in range(8):
        idx, (a, b) = rng.randrange(len(cycles)), rng.sample(range(n), 2)
        mutant = list(cycles)
        mutant[idx] = tuple({a: b, b: a}.get(v, v) for v in cycles[idx])
        yield f"k{n}-swap-{trial}", host, Decomposition(n, tuple(mutant))


def mutated_decompositions():
    """(name, host, decomposition) triples, each valid or with one kind of
    violation, so that the first violation does not depend on edge order.
    Each kind is built twice: on K7 and K8, which verify_decomposition walks,
    and on K31 and K32, whose edge counts pass VECTOR_MIN_EDGES, so that the
    certificate sees them first."""
    k7, k9 = walecki_decomposition(7).cycles, walecki_decomposition(9).cycles
    k31 = walecki_decomposition(31).cycles
    k32 = decompose_odd(complete_graph(32), seed=0)
    cases = [
        ("k7", complete_graph(7), Decomposition(7, k7)),
        ("k9", complete_graph(9), Decomposition(9, k9)),
        ("k8", complete_graph(8), Decomposition(8, K8_CYCLES, K8_MATCHING)),
        ("k31", complete_graph(31), Decomposition(31, k31)),
        ("k32", complete_graph(32), k32),
    ]
    cases += odd_kinds(k7) + even_kinds(K8_CYCLES, K8_MATCHING)
    cases += [(f"k31-{kind}", *rest) for kind, *rest in odd_kinds(k31)]
    cases += [
        (f"k32-{kind}", *rest) for kind, *rest in even_kinds(k32.cycles, k32.matching)
    ]
    rng = random.Random(0)
    for cycles in (k7, k9, k31):
        cases += swaps(cycles, rng)
    return cases


CASES = mutated_decompositions()


@pytest.mark.parametrize(
    "host, deco", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_verify_matches_an_edge_set_reference(host, deco):
    result = verify_decomposition(host, deco)
    ok, violation = reference_verdict(host, deco)
    assert result.ok == ok
    if not ok:
        assert re.sub(r" ?\(.*?\)|: .*", "", result.violation) == violation


LARGE = [c for c in CASES if c[1].edge_count >= walecki.VECTOR_MIN_EDGES]


@pytest.mark.parametrize(
    "host, deco", [c[1:] for c in LARGE], ids=[c[0] for c in LARGE]
)
def test_certificate_agrees_with_the_walk(host, deco, monkeypatch):
    # the certificate may only say "valid", so on these cases its verdict
    # must be the walk's: a True on a violation would hide it
    certified = walecki._certified(np, host, deco)
    monkeypatch.setattr(walecki, "VECTOR_MIN_EDGES", float("inf"))
    assert certified == verify_decomposition(host, deco).ok


def test_certificate_leaves_malformed_pairs_to_the_walk():
    # the same vertex stream as a valid matching, cut into a triple and a
    # single: not a matching, so the certificate must not pass it
    host, deco = next((c[1], c[2]) for c in CASES if c[0] == "k32")
    (a, b), (c, e) = deco.matching[:2]
    bad = Decomposition(32, deco.cycles, ((a, b, c), (e,)) + deco.matching[2:])
    assert not walecki._certified(np, host, bad)


def test_certificate_runs_only_above_the_threshold(monkeypatch):
    calls = []
    certify = walecki._certified

    def recording(*args):
        calls.append(args[1].n)
        return certify(*args)

    monkeypatch.setattr(walecki, "_certified", recording)
    for n in (21, 23):  # 210 and 253 edges, both below the threshold of 256
        assert verify_decomposition(complete_graph(n), walecki_decomposition(n)).ok
    assert calls == []
    assert verify_decomposition(complete_graph(31), walecki_decomposition(31)).ok
    assert calls == [31]


def test_json_round_trip():
    deco = walecki_decomposition(9)
    assert Decomposition.from_json_dict(deco.to_json_dict()) == deco


def test_json_with_matching():
    deco = Decomposition.from_parts(4, [[0, 1, 2, 3]], [(0, 2), (1, 3)])
    data = deco.to_json_dict()
    assert data["matching"] == [[0, 2], [1, 3]]
    assert Decomposition.from_json_dict(data) == deco


def test_malformed_json_rejected():
    with pytest.raises(InputError):
        Decomposition.from_json_dict({"cycles": [[0, 1, 2]]})
