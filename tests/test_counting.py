import itertools
import json
import math
import random
import time

import pytest

from hamdeck import counting
from hamdeck.cli import main
from hamdeck.counting import (
    _class_entry,
    _hamilton_cycles_from,
    _vertex_invariants,
    bregman_log_bound,
    connected_regular_graphs,
    count_decompositions_exact,
    count_decompositions_ordered,
    count_hamilton_cycles_exact,
    decomposition_log_lower,
    decomposition_log_upper,
    decomposition_log_upper_asymptotic,
)
from hamdeck.errors import BudgetError, InputError
from hamdeck.graphs import (
    _only_cycle,
    build_graph,
    complete_graph,
    connected_over,
    cycle_graph,
    save_edge_list,
)
from hamdeck.walecki import Decomposition, cycle_edges, verify_decomposition

from conftest import circulant
from oracles import (
    decomposition_stream,
    enumerate_decompositions,
    enumerate_hamilton_cycles,
    isomorphic,
)


class TestHamiltonCounts:
    def test_k5(self):
        assert count_hamilton_cycles_exact(complete_graph(5)) == 12

    def test_k7(self):
        assert count_hamilton_cycles_exact(complete_graph(7)) == 360

    @pytest.mark.parametrize("n", [4, 5, 6, 8, 11, 13])
    def test_complete_graph_formula(self, n):
        assert count_hamilton_cycles_exact(complete_graph(n)) == math.factorial(
            n - 1
        ) // 2

    def test_cycle_graph(self):
        assert count_hamilton_cycles_exact(cycle_graph(6)) == 1

    def test_disconnected(self):
        g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert count_hamilton_cycles_exact(g) == 0

    def test_enumeration_is_deduplicated(self):
        cycles = enumerate_hamilton_cycles(complete_graph(5))
        assert len(cycles) == 12
        assert len({frozenset(cycle_edges(c)) for c in cycles}) == 12

    def test_cap(self):
        with pytest.raises(InputError):
            count_hamilton_cycles_exact(complete_graph(17))

    def test_deadline_stops_the_search_midway(self):
        # K16 takes about a second of path-state sweeping, so the
        # throttled check has to fire well inside it
        with pytest.raises(BudgetError):
            count_hamilton_cycles_exact(
                complete_graph(16), deadline=time.monotonic() + 0.05
            )

    def test_expired_deadline_stops_counting_at_entry(self):
        with pytest.raises(BudgetError):
            count_hamilton_cycles_exact(cycle_graph(3), deadline=time.monotonic() - 1)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_count_matches_enumeration_on_the_corpus(self, n):
        # the path-state sweep and the DFS are independent exact methods
        for r in range(2, n):
            for g in connected_regular_graphs(n, r):
                assert count_hamilton_cycles_exact(g) == len(
                    enumerate_hamilton_cycles(g)
                )

    @pytest.mark.parametrize(
        "g",
        [
            complete_graph(8).subtract({(0, 1), (2, 3), (4, 5), (6, 7)}),
            circulant(9, (1, 2, 3)),
            circulant(9, (1, 2, 4)),
        ],
        ids=["K8-PM", "C9(1,2,3)", "C9(1,2,4)"],
    )
    def test_count_matches_enumeration(self, g):
        assert count_hamilton_cycles_exact(g) == len(enumerate_hamilton_cycles(g))


class TestDecompositionCounts:
    def test_k5_is_six(self):
        assert count_decompositions_exact(complete_graph(5)) == 6

    def test_k5_by_complement_pairing(self):
        # second method: every Hamilton cycle of K5 pairs with its
        # complementary cycle, giving 12 / 2 = 6 unordered decompositions
        g = complete_graph(5)
        cycles = enumerate_hamilton_cycles(g)
        pairs = set()
        for cyc in cycles:
            rest = g.edges - cycle_edges(cyc)
            complement = build_graph(5, rest)
            assert count_hamilton_cycles_exact(complement) == 1
            pairs.add(frozenset({frozenset(cycle_edges(cyc)), frozenset(rest)}))
        assert len(pairs) == 6

    def test_c7_single(self):
        assert count_decompositions_exact(cycle_graph(7)) == 1

    def test_k7_two_methods_agree(self):
        unordered = count_decompositions_exact(complete_graph(7))
        ordered = count_decompositions_ordered(complete_graph(7))
        assert ordered == unordered * math.factorial(3)
        assert ordered % 6 == 0

    def test_odd_degree_rejected(self):
        with pytest.raises(InputError):
            count_decompositions_exact(complete_graph(4))

    def test_edge_cap(self):
        with pytest.raises(InputError):
            count_decompositions_exact(complete_graph(11))

    def test_enumeration_matches_count(self):
        g = complete_graph(5)
        decos = enumerate_decompositions(g)
        assert len(decos) == count_decompositions_exact(g)
        assert len({tuple(sorted(d)) for d in decos}) == len(decos)
        for d in decos:
            assert verify_decomposition(g, Decomposition.from_parts(5, d)).ok

    @pytest.mark.parametrize(
        "g",
        [
            complete_graph(5),
            complete_graph(7),
            complete_graph(8).subtract({(0, 1), (2, 3), (4, 5), (6, 7)}),
        ],
        ids=["K5", "K7", "K8-PM"],
    )
    def test_anchored_enumeration_matches_ordered_reference(self, g):
        # the ordered recursion takes every cycle at every level; sorting
        # and deduplicating its sequences gives the unordered list
        ordered = decomposition_stream(g, ordered=True)
        reference = sorted({tuple(sorted(d)) for d in ordered})
        assert enumerate_decompositions(g) == reference

    def test_expired_deadline_stops_counting_at_entry(self):
        with pytest.raises(BudgetError):
            count_decompositions_exact(
                complete_graph(5), deadline=time.monotonic() - 1
            )

    def test_k9_counts_in_tier_one_time(self):
        # 5040 Hamilton cycles pass through (0, 1), and each leaves the
        # complement of a 9-cycle, a relabeled C9(1,2,3) with 7944
        start = time.perf_counter()
        assert count_decompositions_exact(complete_graph(9)) == 40_037_760
        assert time.perf_counter() - start < 2.0

    def test_deadline_stops_the_k9_recursion_midway(self):
        with pytest.raises(BudgetError):
            count_decompositions_exact(
                complete_graph(9), deadline=time.monotonic() + 0.05
            )

    def test_count_matches_enumeration_on_the_corpus(self):
        # the memoised recursion against the unmemoised anchored listing on
        # every even-degree class with n <= 9 and at most 27 edges
        checked = 0
        for n in range(3, 10):
            for r in range(2, n, 2):
                if n * r // 2 > 27:
                    continue
                for g in connected_regular_graphs(n, r):
                    assert count_decompositions_exact(g) == len(
                        enumerate_decompositions(g)
                    ), (n, r, sorted(g.edges))
                    checked += 1
        assert checked == 39

    @pytest.mark.parametrize(
        "g,expected",
        [
            (circulant(9, (1, 2, 3)), 7944),
            (circulant(9, (1, 2, 4)), 8448),
            (complete_graph(7), 960),
            (complete_graph(8).subtract({(0, 1), (2, 3), (4, 5), (6, 7)}), 2816),
        ],
        ids=["C9(1,2,3)", "C9(1,2,4)", "K7", "K8-PM"],
    )
    def test_count_is_invariant_under_relabeling(self, g, expected):
        # a relabeling moves the anchor edge and the order residuals meet
        # the memo, so each run takes another path through the classes
        rng = random.Random(expected)
        assert count_decompositions_exact(g) == expected
        for _ in range(3):
            assert count_decompositions_exact(relabeled(g, rng)) == expected

    @pytest.mark.parametrize("n,r", [(5, 2), (6, 4), (7, 4), (9, 4)])
    def test_ordered_unordered_consistency(self, n, r):
        for g in connected_regular_graphs(n, r):
            unordered = count_decompositions_exact(g)
            ordered = count_decompositions_ordered(g)
            assert ordered == unordered * math.factorial(r // 2)


def two_regular_rows(n):
    """Bit rows of every labeled 2-regular graph on n vertices: the cycle
    through the lowest free vertex v is v, then an ordered choice of two
    or more free vertices, taken once per direction."""

    def rec(free, rows):
        if not free:
            yield tuple(rows)
            return
        v = (free & -free).bit_length() - 1
        others = [w for w in range(v + 1, n) if free >> w & 1]
        for k in range(2, len(others) + 1):
            for path in itertools.permutations(others, k):
                if path[0] > path[-1]:
                    continue
                cyc = (v, *path)
                new = list(rows)
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    new[a] |= 1 << b
                    new[b] |= 1 << a
                yield from rec(free & ~sum(1 << w for w in cyc), new)

    yield from rec((1 << n) - 1, [0] * n)


class TestTwoRegularBaseCase:
    def test_walk_matches_enumerator_on_every_two_regular_graph(self):
        # the base case of both counting recursions: one cycle when the
        # rows are connected, nothing when they are a union of cycles
        counts = []
        for n in range(3, 10):
            graphs = list(two_regular_rows(n))
            counts.append(len(graphs))
            for bits in graphs:
                walk = _only_cycle(bits, n)
                for second in (-1, bits[0] & -bits[0]):
                    cycles = list(_hamilton_cycles_from(bits, n, None, second))
                    assert cycles == ([walk] if walk else []), (bits, second)
        assert counts == [1, 3, 12, 70, 465, 3507, 30016]  # A001205

    @pytest.mark.parametrize(
        "count,g",
        [
            (count_decompositions_ordered, complete_graph(7)),
            (count_decompositions_exact, circulant(9, (1, 2, 3))),
        ],
        ids=["ordered-K7", "exact-C9(1,2,3)"],
    )
    def test_no_search_or_lookup_on_a_two_regular_residual(
        self, monkeypatch, count, g
    ):
        seen = []

        def spy(name, rows_at):
            inner = getattr(counting, name)

            def call(*args, **kwargs):
                rows = args[rows_at]
                seen.append((name, all(row.bit_count() == 2 for row in rows)))
                return inner(*args, **kwargs)

            monkeypatch.setattr(counting, name, call)

        spy("_hamilton_cycles_from", 0)
        spy("_class_entry", 1)
        count(g)
        assert seen and not [name for name, two in seen if two]


class TestBounds:
    def test_bregman_examples(self):
        assert bregman_log_bound(5, 4) == pytest.approx(1.25 * math.log(24))
        assert bregman_log_bound(6, 2) == pytest.approx(3 * math.log(2))
        assert bregman_log_bound(7, 6) == pytest.approx((7 / 6) * math.log(720))

    def test_bregman_dominates_actual_counts(self):
        assert math.exp(bregman_log_bound(5, 4)) >= 12
        assert math.exp(bregman_log_bound(7, 6)) >= 360
        assert math.exp(bregman_log_bound(6, 2)) >= 1

    def test_upper_finite_product(self):
        expected = 1.25 * math.log(24) + 2.5 * math.log(2)
        assert decomposition_log_upper(5, 4) == pytest.approx(expected)
        assert math.exp(decomposition_log_upper(5, 4)) >= 6

    def test_upper_two_regular(self):
        assert decomposition_log_upper(8, 2) == pytest.approx(4 * math.log(2))

    def test_upper_asymptotic(self):
        assert decomposition_log_upper_asymptotic(100, 50) == pytest.approx(
            2500 * (math.log(50) - 2)
        )

    def test_lower_formula(self):
        assert decomposition_log_lower(100, 60, 0.05) == pytest.approx(
            0.75 * 3000 * math.log(60)
        )
        assert decomposition_log_lower(5, 4, 0.05) == pytest.approx(
            0.75 * 10 * math.log(4)
        )

    def test_lower_eps_to_zero_limit(self):
        # as eps -> 0 the exponent approaches (r*n/2) * ln r
        value = decomposition_log_lower(100, 60, 1e-9)
        assert value == pytest.approx(3000 * math.log(60), rel=1e-6)

    def test_k5_bound_brackets_exact_count(self):
        assert math.log(6) <= decomposition_log_upper(5, 4)

    def test_validation(self):
        with pytest.raises(InputError):
            bregman_log_bound(5, 5)
        with pytest.raises(InputError):
            decomposition_log_upper(5, 3)
        with pytest.raises(InputError):
            decomposition_log_lower(5, 4, 0.2)


def full_stream_corpus(n, r):
    """The corpus from every labeled r-regular graph on n vertices, vertex 0
    taking each neighbour set in ``itertools.combinations`` order like the
    others, with each connected class kept at its first member."""
    deg, edges, reps = [0] * n, [], []

    def labeled(v):
        if v == n:
            yield build_graph(n, edges)
            return
        candidates = [w for w in range(v + 1, n) if deg[w] < r]
        for combo in itertools.combinations(candidates, r - deg[v]):
            for w in combo:
                deg[w] += 1
                edges.append((v, w))
            yield from labeled(v + 1)
            for w in combo:
                deg[w] -= 1
                edges.pop()

    for g in labeled(0):
        if connected_over(g.adj_bits, (1 << n) - 1) and not any(
            plainly_isomorphic(g, rep) for rep in reps
        ):
            reps.append(g)
    return tuple(reps)


def plainly_isomorphic(g1, g2):
    """Backtracking over vertex maps, one ``has_edge`` pair test at a time."""
    mapping = []

    def extend(v):
        if v == g1.n:
            return True
        for w in range(g2.n):
            if w not in mapping and all(
                g1.has_edge(u, v) == g2.has_edge(mapping[u], w) for u in range(v)
            ):
                mapping.append(w)
                if extend(v + 1):
                    return True
                mapping.pop()
        return False

    return extend(0)


def relabeled(g, rng):
    perm = rng.sample(range(g.n), g.n)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


class TestCorpus:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_the_full_labeled_stream(self, n):
        # fixing N(0) = {1, ..., r} keeps a prefix of the full stream that
        # holds every class's first member: same graphs, same order
        for r in range(n):
            assert connected_regular_graphs(n, r) == full_stream_corpus(n, r)

    @pytest.mark.parametrize(
        "n,r,classes",
        [(8, 3, 5), (8, 4, 6), (8, 5, 3), (9, 4, 16), (9, 6, 4)],
    )
    def test_class_counts_match_oeis(self, n, r, classes):
        # OEIS A002851, A006820, A006821 and A006822 (connected r-regular)
        assert len(connected_regular_graphs(n, r)) == classes

    @pytest.mark.parametrize("n", range(1, 9))
    def test_isomorphism_test_separates_the_classes(self, n):
        rng = random.Random(n)
        for r in range(n):
            reps = connected_regular_graphs(n, r)
            for g in reps:
                assert isomorphic(g, relabeled(g, rng))
            for a, b in itertools.combinations(reps, 2):
                assert not isomorphic(a, b)

    def test_isomorphism_test_backtracks_past_equal_invariants(self):
        # C10 and two disjoint C5 give every vertex the same codegree
        # profile, so only the backtrack can tell them apart
        c10 = cycle_graph(10)
        two_c5 = build_graph(10, [(v, v - v % 5 + (v + 1) % 5) for v in range(10)])
        assert _vertex_invariants(c10.adj_bits) == _vertex_invariants(two_c5.adj_bits)
        assert not isomorphic(c10, two_c5)
        assert isomorphic(c10, relabeled(c10, random.Random(0)))

    def test_class_lookup_backtracks_past_equal_invariants(self):
        # the lookup shared by the corpus and the count's memo puts C10 and
        # two C5 in one bucket, so it must still keep them apart
        c10 = cycle_graph(10)
        two_c5 = build_graph(10, [(v, v - v % 5 + (v + 1) % 5) for v in range(10)])
        classes = {}
        entry, new = _class_entry(classes, c10.adj_bits)
        assert new
        assert _class_entry(classes, two_c5.adj_bits)[1]
        relabel = relabeled(c10, random.Random(1)).adj_bits
        assert _class_entry(classes, relabel) == (entry, False)
        assert len(classes) == 1

    def test_known_class_counts(self):
        assert len(connected_regular_graphs(6, 3)) == 2
        assert len(connected_regular_graphs(7, 4)) == 2
        assert len(connected_regular_graphs(4, 2)) == 1

    def test_representatives_are_connected_regular_distinct(self):
        reps = connected_regular_graphs(6, 3)
        for g in reps:
            assert g.regular_degree() == 3
            assert connected_over(g.adj_bits, (1 << g.n) - 1)
        assert not isomorphic(reps[0], reps[1])

    def test_bregman_holds_on_small_corpus(self):
        for n in range(3, 8):
            for r in range(2, n):
                for g in connected_regular_graphs(n, r):
                    count = count_hamilton_cycles_exact(g)
                    assert count <= math.exp(bregman_log_bound(n, r)) + 1e-9


class TestCountReport:
    """The report ``hamdeck count`` prints, built from the functions above."""

    @staticmethod
    def report(capsys, tmp_path, g, *flags):
        path = tmp_path / "g.edges"
        save_edge_list(g, path)
        code = main(["count", str(path), *flags, "--no-meta"])
        captured = capsys.readouterr()
        return code, json.loads(captured.out) if captured.out else None, captured.err

    def test_exact_report_serializes_big_ints_as_strings(self, capsys, tmp_path):
        _, data, _ = self.report(capsys, tmp_path, complete_graph(5), "--exact")
        assert data["exact_count"] == "6"
        assert data["log_upper"] == pytest.approx(5.7054, abs=1e-3)

    def test_without_exact(self, capsys, tmp_path):
        _, data, _ = self.report(capsys, tmp_path, complete_graph(9))
        assert data["exact_count"] is None
        assert data["log_lower"] is not None

    def test_irregular_rejected(self, capsys, tmp_path):
        g = build_graph(4, [(0, 1), (1, 2)])
        code, data, err = self.report(capsys, tmp_path, g)
        assert (code, data) == (3, None)
        assert "count report needs a regular graph" in err
