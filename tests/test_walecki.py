import random
import re

import pytest

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


def mutated_decompositions():
    """(name, host, decomposition) triples, each valid or with one kind of
    violation, so that the first violation does not depend on edge order."""
    k7, k9 = walecki_decomposition(7).cycles, walecki_decomposition(9).cycles
    h7, h8, h9 = complete_graph(7), complete_graph(8), complete_graph(9)
    cases = [
        ("k7", h7, Decomposition(7, k7)),
        ("k9", h9, Decomposition(9, k9)),
        ("k8", h8, Decomposition(8, K8_CYCLES, K8_MATCHING)),
        ("reused-edge", h7, Decomposition(7, (k7[0], k7[0], k7[2]))),
        ("non-edge", h9.subtract({k9[1][:2]}), Decomposition(9, k9)),
        ("uncovered-edges", h9, Decomposition(9, k9[:3])),
        ("cycle-minus-one", h7, Decomposition(7, with_vertex(k7, 0, -1))),
        ("cycle-n", h9, Decomposition(9, with_vertex(k9, 8, 9))),
        ("short-cycle", h7, Decomposition(7, (k7[0][:6],) + k7[1:])),
        ("revisit", h7, Decomposition(7, ((0, 1, 2, 3, 4, 5, 0),) + k7[1:])),
        ("host-mismatch", h9, Decomposition(7, k7)),
        ("matching-on-odd-n", h7, Decomposition(7, k7, ((0, 1),))),
        ("shared-vertex", complete_graph(4), Decomposition(4, (), ((0, 1), (1, 2)))),
        (
            "matching-reuses-a-cycle-edge",
            h8,
            Decomposition(8, K8_CYCLES, ((0, 2), (1, 3), (4, 5), (6, 7))),
        ),
        ("matching-leaves-vertices", h8, Decomposition(8, K8_CYCLES, K8_MATCHING[1:])),
        (
            "matching-minus-one",
            h8,
            Decomposition(8, K8_CYCLES, ((-1, 1),) + K8_MATCHING[1:]),
        ),
        ("matching-n", h8, Decomposition(8, K8_CYCLES, K8_MATCHING[:3] + ((6, 8),))),
    ]
    # vertex swaps in a complete host: every pair is an edge, so the only
    # violation a swap can cause is a reused edge
    rng = random.Random(0)
    for host, cycles in ((h7, k7), (h9, k9)):
        for trial in range(8):
            idx, (a, b) = rng.randrange(len(cycles)), rng.sample(range(host.n), 2)
            mutant = list(cycles)
            mutant[idx] = tuple({a: b, b: a}.get(v, v) for v in cycles[idx])
            deco = Decomposition(host.n, tuple(mutant))
            cases.append((f"k{host.n}-swap-{trial}", host, deco))
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
