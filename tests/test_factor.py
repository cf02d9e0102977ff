import hashlib
import json
import logging
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamdeck.errors import BudgetError, InfeasibleError, InputError
from hamdeck.factor import (
    TwoFactor,
    _random_perfect_matching,
    _validate_cover,
    component_budget,
    sample_le2_factor,
)
from hamdeck.graphs import build_graph, complete_graph, cycle_graph
from hamdeck.partition import default_params, tri_partition

from conftest import (
    build_partial,
    circulant,
    cover_edges,
    paley,
    random_graph,
    small_graphs,
)
from factor_oracle import count_factor_permutations, enumerate_le2_factors


def component_profile(f):
    """(total components, cycle components, isolated-edge components)."""
    return (f.component_count, len(f.cycles), len(f.pairs))


def _k101_core():
    k101 = complete_graph(101)
    return tri_partition(k101, default_params(k101, seed=0)).core


# sha256 of the factors drawn at seeds 0-2.  The draw is a greedy matching of
# the double cover in a random row order from random offsets, finished by
# augmenting paths, so any change to the draws, the greedy or the search
# order changes these digests.
@pytest.mark.parametrize(
    "make, digest",
    [
        pytest.param(
            lambda: complete_graph(201),
            "5a60784f7b7745388ff1e14ad0e073ffcc7caa544bbb5c8689a1ba682f445c70",
            id="k201",
        ),
        pytest.param(
            lambda: paley(197),
            "eab1ab1e87a59062d337890e7611352151efde12f042e39436cc0a1d00f08d12",
            id="paley197",
        ),
        pytest.param(
            _k101_core,
            "85a252a6322ea25fd151741a5657390984d08d0c800c2ca71c72f9267be53abc",
            id="k101-derived-core",
        ),
        pytest.param(
            lambda: circulant(300, (1, 2)),
            "fd437582093c8e1619af4a1a85793dd4baac288a9cf69d748e022c855b2026e8",
            id="c300-sparse",
        ),
    ],
)
def test_random_perfect_matching_is_pinned(make, digest):
    factors = [sample_le2_factor(make(), seed) for seed in (0, 1, 2)]
    blob = repr([(f.cycles, f.pairs) for f in factors])
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def _scipy_has_perfect_matching(g):
    """The reference: scipy's maximum bipartite matching of the double cover."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    biadjacency = csr_matrix(g.adjacency_matrix())
    return bool((maximum_bipartite_matching(biadjacency, perm_type="column") >= 0).all())


def _check_matching_against_scipy(g, seed):
    import numpy as np

    sigma = _random_perfect_matching(g, np.random.default_rng(seed))
    assert (sigma is not None) == _scipy_has_perfect_matching(g)
    if sigma is not None:
        assert sorted(sigma) == list(range(g.n))
        assert all(g.adj_bits[v] >> w & 1 for v, w in enumerate(sigma))


class TestMatchingAgainstScipy:
    @given(small_graphs(min_n=2, max_n=12), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_perfect_exactly_when_scipy_finds_one(self, g, seed):
        _check_matching_against_scipy(g, seed)

    @pytest.mark.parametrize("p", [0.04, 0.08, 0.15, 0.5, 0.9])
    @pytest.mark.parametrize("n", [9, 30, 61])
    def test_random_graphs_dense_and_sparse(self, n, p):
        # irregular throughout; the sparse ones mostly have no perfect matching
        for seed in range(8):
            _check_matching_against_scipy(random_graph(n, p, seed), seed)

    @pytest.mark.parametrize(
        "g",
        [
            build_graph(62, [(u, v) for u in range(30) for v in range(30, 62)]),
            build_graph(4, [(0, 1), (0, 2), (0, 3)]),
            build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (3, 5), (0, 3)]),
            circulant(3000, (1, 2)),
        ],
        ids=["k30-32", "star", "two-triangles", "c3000"],
    )
    def test_fixed_cases(self, g):
        _check_matching_against_scipy(g, 0)


class TestEnumeration:
    def test_k4_has_six_factors(self):
        factors = enumerate_le2_factors(complete_graph(4))
        assert len(factors) == 6
        profiles = sorted(component_profile(f) for f in factors)
        # 3 perfect matchings (two isolated edges) + 3 Hamilton 4-cycles
        assert profiles == [(1, 1, 0)] * 3 + [(2, 0, 2)] * 3

    def test_k4_permutation_count_is_nine(self):
        # derangement-style permutations supported on K4's edges
        assert count_factor_permutations(complete_graph(4)) == 9

    def test_k5_has_22_factors(self):
        factors = enumerate_le2_factors(complete_graph(5))
        assert len(factors) == 22
        profiles = [component_profile(f) for f in factors]
        assert profiles.count((1, 1, 0)) == 12  # Hamilton 5-cycles: 4!/2
        assert profiles.count((2, 1, 1)) == 10  # isolated edge + triangle: C(5,2)

    def test_c5_unique_factor(self):
        factors = enumerate_le2_factors(cycle_graph(5))
        assert len(factors) == 1
        assert factors[0].is_hamilton_cycle

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_permutations_match_orientation_weighted_factors(self, n):
        # each cycle component can be traversed two ways, so the factors
        # weighted by 2^(cycle components) recover the permutation count
        g = complete_graph(n)
        factors = enumerate_le2_factors(g)
        weighted = sum(2 ** len(f.cycles) for f in factors)
        assert weighted == count_factor_permutations(g)

    def test_max_components_filter(self):
        factors = enumerate_le2_factors(complete_graph(4), max_components=1)
        assert len(factors) == 3
        assert all(f.is_hamilton_cycle for f in factors)

    def test_size_cap(self):
        with pytest.raises(InputError):
            enumerate_le2_factors(complete_graph(15))


class TestSampling:
    def test_factors_are_valid(self):
        g = complete_graph(7)
        for seed in range(20):
            factor = sample_le2_factor(g, seed)
            _validate_cover(g, factor)

    def test_c5_forced_factor(self):
        factor = sample_le2_factor(cycle_graph(5), 0)
        assert factor.is_hamilton_cycle

    @pytest.mark.parametrize("n,budget", [(4, 2000), (5, 5000)])
    def test_support_covers_all_factors(self, n, budget):
        expected = {(f.cycles, f.pairs) for f in enumerate_le2_factors(complete_graph(n))}
        seen = set()
        for seed in range(budget):
            f = sample_le2_factor(complete_graph(n), seed)
            seen.add((f.cycles, f.pairs))
            if seen == expected:
                break
        assert seen == expected

    def test_path_has_no_factor(self):
        p3 = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InfeasibleError):
            sample_le2_factor(p3, 0)

    def test_star_has_no_factor(self):
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(InfeasibleError):
            sample_le2_factor(star, 0)

    def test_determinism(self):
        g = complete_graph(9)
        assert sample_le2_factor(g, 5) == sample_le2_factor(g, 5)

    def test_over_budget_factor_comes_from_one_draw(self, caplog, monkeypatch):
        # 8 disjoint edges form the only factor: 8 components > budget 7.
        # The cap is the rotation step's policy, so the sampler draws once.
        import hamdeck.factor as factor_mod

        calls = []
        real = factor_mod._random_perfect_matching
        monkeypatch.setattr(
            factor_mod,
            "_random_perfect_matching",
            lambda g, rng: calls.append(g) or real(g, rng),
        )
        matching = build_graph(16, [(2 * i, 2 * i + 1) for i in range(8)])
        assert component_budget(16) == 7
        with caplog.at_level(logging.WARNING):
            factor = sample_le2_factor(matching, 0)
        assert factor.component_count == 8
        assert len(calls) == 1
        assert not caplog.records

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_long_augmenting_paths_on_circulant_c3000(self, seed):
        # a recursive augmenting-path search hits the recursion limit here
        g = circulant(3000, (1, 2))
        _validate_cover(g, sample_le2_factor(g, seed))

    def test_unbalanced_complete_bipartite_has_no_factor(self):
        # K_{30,32}: a factor would match the 32-side into the 30-side
        k = build_graph(62, [(u, v) for u in range(30) for v in range(30, 62)])
        with pytest.raises(InfeasibleError):
            sample_le2_factor(k, 0)

    def test_k201_draws_stay_under_component_cap(self):
        g = complete_graph(201)
        for seed in range(10):
            assert sample_le2_factor(g, seed).component_count <= component_budget(201)

    def test_past_deadline_is_budget_error(self):
        with pytest.raises(BudgetError, match="factor sampling"):
            sample_le2_factor(complete_graph(9), 0, deadline=time.monotonic() - 1)


class TestComponentProfile:
    def test_hamilton_cycle(self):
        f = TwoFactor.build(complete_graph(7), [[0, 1, 2, 3, 4, 5, 6]], [])
        assert component_profile(f) == (1, 1, 0)

    def test_edge_plus_triangle(self):
        g = complete_graph(5)
        f = TwoFactor.build(g, [[2, 3, 4]], [(0, 1)])
        assert component_profile(f) == (2, 1, 1)

    def test_three_isolated_edges(self):
        g = build_graph(6, [(0, 1), (2, 3), (4, 5)])
        f = TwoFactor.build(g, [], [(0, 1), (2, 3), (4, 5)])
        assert component_profile(f) == (3, 0, 3)


class TestStructures:
    def test_two_factor_validation_catches_non_edges(self):
        with pytest.raises(InputError):
            TwoFactor.build(cycle_graph(5), [[0, 1, 3, 2, 4]], [])

    def test_two_factor_must_span(self):
        with pytest.raises(InputError):
            TwoFactor.build(complete_graph(5), [[0, 1, 2]], [])

    def test_partial_hc_validation(self):
        g = complete_graph(6)
        partial = build_partial(g, [0, 1, 2], [[3, 4, 5]], [])
        assert partial.component_count == 2
        assert len(cover_edges(partial)) == 5

    def test_partial_hc_rejects_overlap(self):
        with pytest.raises(InputError):
            build_partial(complete_graph(6), [0, 1, 2], [[2, 3, 4]], [])

    @pytest.mark.parametrize("bad", [-1, 6], ids=["minus-one", "n"])
    def test_vertices_out_of_range_are_rejected(self, bad):
        # the cover check reads bits from a table that a negative index
        # would wrap round in, so the range check must come first
        g = complete_graph(6)
        with pytest.raises(InputError):
            TwoFactor.build(g, [[0, 1, 2], [3, 4, bad]], [])
        with pytest.raises(InputError):
            TwoFactor.build(g, [[0, 1, 2, 3]], [(4, bad)])
        with pytest.raises(InputError):
            build_partial(g, (0, 1, bad), [(2, 3, 4)], [])

    def test_non_spanning_factor_rejected_at_build(self):
        with pytest.raises(InputError):
            TwoFactor.build(complete_graph(6), [[0, 2, 4]], [(1, 3)])

    def test_json_round_trip(self):
        # the JSON that ``sample-factor`` writes rebuilds the same factor
        g = complete_graph(6)
        f = TwoFactor.build(g, [[0, 2, 4], [1, 3, 5]], [])
        data = json.loads(json.dumps(f.to_json_dict()))
        assert data["n"] == 6
        assert TwoFactor.build(g, data["cycles"], data["edges"]) == f
