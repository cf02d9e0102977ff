import dataclasses
import json
import math
import time

import pytest

from hamdeck import graphs
from hamdeck.errors import BudgetError, InfeasibleError, InputError
from hamdeck.graphs import Graph, complete_graph, cycle_graph, empty_graph
from hamdeck.partition import (
    PARTITION_RETRIES,
    PipelineParams,
    TriPartition,
    default_params,
    load_tri_partition,
    patch_probability,
    save_tri_partition,
    tri_partition,
    verify_partition,
)


def _with_params(payload, **changes):
    """The sidecar payload with its params edited; None drops a field."""
    params = {**payload["params"], **changes}
    return {**payload, "params": {k: v for k, v in params.items() if v is not None}}


class TestDeriveParams:
    def test_dense_example(self):
        p = PipelineParams(c=1.0, eps=0.05, gamma=0.01, tau=0.2)
        assert p.delta == pytest.approx(0.01)
        assert p.nu == pytest.approx(0.00025)

    def test_eps_range_enforced(self):
        with pytest.raises(InputError):
            PipelineParams(c=1.0, eps=0.2, gamma=0.01, tau=0.2)

    def test_delta_picks_the_minimum(self):
        p = PipelineParams(c=0.6, eps=0.05, gamma=0.05, tau=0.3)
        assert p.delta == pytest.approx(0.006)

    @pytest.mark.parametrize(
        "eps, tau", [(0.05, 0.2), (0.02, 0.5), (0.09, 0.01), (0.05, 1e-4)]
    )
    def test_default_gamma_comes_from_the_delta_property(self, eps, tau):
        g = complete_graph(21)
        p = default_params(g, eps=eps, tau=tau)
        delta = PipelineParams(c=p.c, eps=eps, gamma=p.gamma, tau=tau).delta
        assert p.gamma == max(delta**3 / 2, 1e-12)

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda p: _with_params(p, delta=p["params"]["delta"] * 2), "delta"),
            (lambda p: _with_params(p, nu=p["params"]["nu"] * 2), "nu"),
            (lambda p: _with_params(p, tau=None), "'tau'"),
            (lambda p: _with_params(p, eps="x"), "finite JSON numbers"),
            (lambda p: _with_params(p, gamma=math.nan), "finite JSON numbers"),
            (lambda p: _with_params(p, seed=1.5), "seed"),
            (lambda p: [p], "list indices"),
            (lambda p: json.dumps(p)[:-2], "Expecting"),
            (lambda p: {**p, "core_degree": str(p["core_degree"])}, "core_degree"),
            (lambda p: {**p, "core_degree": p["core_degree"] + 2}, "core_degree"),
            (lambda p: {**p, "n": p["n"] + 1}, "sidecar n"),
            (lambda p: {**p, "stats": []}, "stats"),
            # older sidecars carry alpha = 3 * eps * c, which is not read
            (lambda p: _with_params(p, alpha=0.15), None),
        ],
        ids=[
            "edited-delta", "edited-nu", "missing-tau", "string-eps", "nan-gamma",
            "float-seed", "top-level-list", "truncated-json", "string-core-degree",
            "wrong-core-degree", "wrong-n", "list-stats", "old-sidecar-with-alpha",
        ],
    )
    def test_sidecar_checked_on_load(self, tmp_path, edit, error):
        g = complete_graph(21)
        tp = tri_partition(g, default_params(g, seed=0))
        prefix = str(tmp_path / "part")
        save_tri_partition(tp, prefix)
        sidecar = tmp_path / "part.params.json"
        edited = edit(json.loads(sidecar.read_text()))
        sidecar.write_text(edited if isinstance(edited, str) else json.dumps(edited))
        if error is None:
            assert load_tri_partition(prefix) == tp
        else:
            with pytest.raises(InputError, match=error):
                load_tri_partition(prefix)

    def test_patch_probability_clamped(self):
        assert patch_probability(2) == 0.5
        assert patch_probability(3) == 0.5
        assert patch_probability(51) == pytest.approx(1 / math.log(51))


class TestTriPartition:
    def test_k21_partition_is_exact(self):
        g = complete_graph(21)
        tp = tri_partition(g, default_params(g, seed=0))
        union = tp.core.edges | tp.patch.edges | tp.residual.edges
        assert union == g.edges
        total = len(tp.core.edges) + len(tp.patch.edges) + len(tp.residual.edges)
        assert total == g.edge_count

    def test_core_is_even_regular(self):
        g = complete_graph(21)
        tp = tri_partition(g, default_params(g, seed=1))
        assert tp.core.regular_degree() == tp.core_degree
        assert tp.core_degree % 2 == 0

    def test_deterministic(self):
        g = complete_graph(21)
        a = tri_partition(g, default_params(g, seed=9))
        b = tri_partition(g, default_params(g, seed=9))
        assert (a.core, a.patch, a.residual) == (b.core, b.patch, b.residual)

    def test_seeds_differ(self):
        g = complete_graph(21)
        a = tri_partition(g, default_params(g, seed=0))
        b = tri_partition(g, default_params(g, seed=1))
        assert a.patch != b.patch

    def test_sparse_input_rejected(self):
        with pytest.raises(InputError):
            tri_partition(cycle_graph(6), PipelineParams(0.9, 0.05, 0.01, 0.2))

    def test_odd_degree_rejected(self):
        with pytest.raises(InputError):
            tri_partition(complete_graph(4), PipelineParams(0.5, 0.05, 0.01, 0.2))

    def test_irregular_rejected(self):
        g = Graph(4, frozenset({(0, 1), (1, 2)}))
        with pytest.raises(InputError):
            tri_partition(g, PipelineParams(0.1, 0.05, 0.01, 0.2))

    def test_infeasible_extraction_ends_the_split(self, monkeypatch):
        # an InfeasibleError holds for every target degree, so it costs one
        # extraction per split, not one per target
        import hamdeck.partition as partition

        calls = []

        def infeasible_extraction(g, params, *, d_override=None):
            calls.append(d_override)
            raise InfeasibleError("degree hypothesis violated")

        monkeypatch.setattr(partition, "extract_regular_subgraph", infeasible_extraction)
        g = complete_graph(21)
        with pytest.raises(BudgetError, match="degree hypothesis"):
            tri_partition(g, default_params(g, seed=0))
        assert len(calls) == PARTITION_RETRIES

    def test_k201_makes_no_validated_graph_builds(self, monkeypatch):
        # the raw core, patch, residual and core are derived from the
        # input's bit rows
        g = complete_graph(201)
        builds = []
        check = graphs._edge_rows

        def counting_check(n, pairs):
            builds.append(n)
            return check(n, pairs)

        monkeypatch.setattr(graphs, "_edge_rows", counting_check)
        tp = tri_partition(g, default_params(g, seed=0))
        assert tp.core.regular_degree() == tp.core_degree > 0
        assert builds == []

    def test_split_fractions_concentrate(self):
        # over seeds at n >= 50: |patch|/|E| within +-50% of 1/ln n, raw
        # residual fraction within +-50% of eps
        g = complete_graph(51)
        target = 1 / math.log(51)
        patch_fracs = []
        residual_fracs = []
        for seed in range(5):
            tp = tri_partition(g, default_params(g, seed=seed))
            patch_fracs.append(tp.patch.edge_count / g.edge_count)
            residual_fracs.append(tp.stats["raw_residual_edges"] / g.edge_count)
        patch_mean = sum(patch_fracs) / len(patch_fracs)
        residual_mean = sum(residual_fracs) / len(residual_fracs)
        assert 0.5 * target <= patch_mean <= 1.5 * target
        assert 0.025 <= residual_mean <= 0.075


class TestVerifyPartition:
    def test_valid_partition_passes_hard_bullets(self):
        g = complete_graph(21)
        tp = tri_partition(g, default_params(g, seed=0))
        report = verify_partition(tp, graph=g, seed=0)
        assert report.partition_exact
        assert report.core_regular and report.core_degree_even
        assert report.expander.holds
        assert report.ok

    def test_moved_core_edge_breaks_regularity(self):
        g = complete_graph(21)
        tp = tri_partition(g, default_params(g, seed=0))
        moved = sorted(tp.core.edges)[0]
        mutated = TriPartition(
            core=tp.core.subtract({moved}),
            patch=tp.patch.union({moved}),
            residual=tp.residual,
            params=tp.params,
            core_degree=tp.core_degree,
        )
        report = verify_partition(mutated, graph=g, seed=0)
        assert not report.core_regular
        assert not report.ok

    def test_emptied_residual_fails_expansion(self):
        g = complete_graph(21)
        tp = tri_partition(g, default_params(g, seed=0))
        mutated = TriPartition(
            core=tp.core,
            patch=Graph(g.n, tp.patch.edges | tp.residual.edges),
            residual=empty_graph(g.n),
            params=tp.params,
            core_degree=tp.core_degree,
        )
        report = verify_partition(mutated, graph=g, seed=0)
        assert not report.expander.holds
        assert report.expander.witness is not None
        assert not report.ok

    def test_exact_expander_check_honours_the_deadline(self):
        # n <= 14 takes the exact expander predicate, which must see the
        # pipeline's deadline
        g, core = complete_graph(13), cycle_graph(13)
        params = default_params(g, seed=0)
        tp = TriPartition(
            core=core,
            patch=empty_graph(13),
            residual=g.subtract(core.edges),
            params=dataclasses.replace(params, deadline=time.monotonic() - 1),
            core_degree=2,
        )
        with pytest.raises(BudgetError, match="expander"):
            verify_partition(tp, graph=g, seed=0)


def test_undecodable_edge_files_are_input_errors(tmp_path):
    g = complete_graph(21)
    prefix = str(tmp_path / "p")
    save_tri_partition(tri_partition(g, default_params(g, seed=0)), prefix)
    with open(f"{prefix}.patch.edges", "ab") as fh:
        fh.write(b"\xff\n")
    with pytest.raises(InputError, match="cannot read"):
        load_tri_partition(prefix)
    with pytest.raises(InputError, match="cannot read"):
        graphs.load_edge_list(f"{prefix}.patch.edges")


def test_save_load_round_trip(tmp_path):
    g = complete_graph(21)
    tp = tri_partition(g, default_params(g, seed=4))
    prefix = str(tmp_path / "part")
    paths = save_tri_partition(tp, prefix)
    assert len(paths) == 4
    loaded = load_tri_partition(prefix)
    assert (loaded.core, loaded.patch, loaded.residual) == (
        tp.core,
        tp.patch,
        tp.residual,
    )
    assert loaded.core_degree == tp.core_degree
