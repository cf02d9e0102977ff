import hashlib
import logging
import time

import pytest

from hamdeck.errors import BudgetError, InfeasibleError, InputError
from hamdeck.factor import (
    PartialHC,
    TwoFactor,
    component_budget,
    component_profile,
    count_factor_permutations,
    enumerate_le2_factors,
    sample_le2_factor,
)
from hamdeck.graphs import build_graph, complete_graph, cycle_graph
from hamdeck.partition import default_params, tri_partition

from conftest import circulant, paley


def _k101_core():
    k101 = complete_graph(101)
    return tri_partition(k101, default_params(k101, seed=0)).core


# sha256 of the factors drawn at seeds 0-2.  The double cover is built from
# bit rows, by a numpy unpack on dense graphs and by the O(m) route on
# sparse ones; the matching scipy returns depends only on that CSR, so any
# change to it changes these digests.
@pytest.mark.parametrize(
    "make, sparse, digest",
    [
        pytest.param(
            lambda: complete_graph(201),
            False,
            "4f8a3b44fa759c6aba06d9286b1c3eb7d3444a2b5ec63809fff77953c2fbe3d3",
            id="k201",
        ),
        pytest.param(
            lambda: paley(197),
            False,
            "4d9152586e1acff7332c1b1149b4adbf86781b2b7402576fa7729db3a6777a15",
            id="paley197",
        ),
        pytest.param(
            _k101_core,
            False,
            "565a07581f58cd19e80038f5d66c17b20d955f70d7f657265cf955a4d0138339",
            id="k101-derived-core",
        ),
        pytest.param(
            lambda: circulant(300, (1, 2)),
            True,
            "9c59a4a39b69f584707410cc8e60c078c147b63c5c5340097fb36faf7d0ef3c1",
            id="c300-sparse",
        ),
    ],
)
def test_random_perfect_matching_is_pinned(make, sparse, digest):
    g = make()
    assert g.is_sparse == sparse
    factors = [sample_le2_factor(g, seed) for seed in (0, 1, 2)]
    blob = repr([(f.cycles, f.pairs) for f in factors])
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


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
            factor.validate_in(g)

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
        sample_le2_factor(g, seed).validate_in(g)

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
        partial = PartialHC.build(g, [0, 1, 2], [[3, 4, 5]], [])
        assert partial.component_count == 2
        assert len(partial.edge_set()) == 5

    def test_partial_hc_rejects_overlap(self):
        with pytest.raises(InputError):
            PartialHC.build(complete_graph(6), [0, 1, 2], [[2, 3, 4]], [])

    def test_non_spanning_factor_rejected_at_build(self):
        with pytest.raises(InputError):
            TwoFactor.build(complete_graph(6), [[0, 2, 4]], [(1, 3)])

    def test_json_round_trip(self):
        g = complete_graph(6)
        f = TwoFactor.build(g, [[0, 2, 4], [1, 3, 5]], [])
        assert TwoFactor.from_json_dict(f.to_json_dict()) == f

    @pytest.mark.parametrize(
        "cycles, edges",
        [
            ([[0, 1, 2]], [[3, 3]]),
            ([[0, 1, -1]], [[2, 3]]),
            ([[0, 1, 5]], [[2, 3]]),
            ([[0, 1, 2]], [[3, 5]]),
            ([[0, 1, 2]], []),
        ],
        ids=["loop", "negative", "big-cycle-vertex", "big-pair-vertex", "too-few"],
    )
    def test_json_vertices_are_checked(self, cycles, edges):
        with pytest.raises(InputError, match="malformed factor JSON"):
            TwoFactor.from_json_dict({"n": 5, "cycles": cycles, "edges": edges})

    def test_json_with_an_overflowing_size_is_input_error(self):
        with pytest.raises(InputError, match="malformed factor JSON"):
            TwoFactor.from_json_dict({"n": 1e400, "cycles": [], "edges": []})
