"""Acceptance gate: one test per release criterion, each printing a PASS
line with its measured numbers.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import math
import time

import pytest

from hamdeck.cli import main as cli_main
from hamdeck.counting import (
    bregman_log_bound,
    connected_regular_graphs,
    count_decompositions_exact,
    count_decompositions_ordered,
    count_hamilton_cycles_exact,
    decomposition_log_upper,
)
from hamdeck.decompose import decompose_odd, run_pipeline
from hamdeck.factor import component_budget, sample_le2_factor
from hamdeck.graphs import (
    build_graph,
    complete_graph,
    is_robust_expander,
    save_edge_list,
)
from hamdeck.partition import default_params, tri_partition
from hamdeck.regularize import extract_regular_subgraph
from hamdeck.rotation import extract_hamilton_step
from hamdeck.walecki import cycle_edges, verify_decomposition, walecki_decomposition

from conftest import two_disjoint_k4
from factor_oracle import enumerate_le2_factors
from oracles import enumerate_hamilton_cycles


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_walecki_suite():
    """Every odd n in [3, 201] verifies against K_n within 10 seconds."""
    start = time.perf_counter()
    for n in range(3, 202, 2):
        deco = walecki_decomposition(n)
        assert deco.cycle_count == (n - 1) // 2
        covered = set()
        for cyc in deco.cycles:
            covered |= cycle_edges(cyc)
        assert len(covered) == n * (n - 1) // 2
        result = verify_decomposition(complete_graph(n), deco)
        assert result.ok, f"n={n}: {result.violation}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("1 walecki", f"odd n in [3, 201] verified in {elapsed:.2f}s")


def test_criterion_2_oracle_values():
    """Exact cycle and decomposition counts, confirmed two ways, under 60 s."""
    start = time.perf_counter()
    assert count_hamilton_cycles_exact(complete_graph(5)) == 12
    assert count_hamilton_cycles_exact(complete_graph(7)) == 360
    assert 12 == math.factorial(4) // 2 and 360 == math.factorial(6) // 2

    # method one: canonical-order enumeration
    assert count_decompositions_exact(complete_graph(5)) == 6
    # method two: complement pairing of the 12 Hamilton cycles
    k5 = complete_graph(5)
    pairs = set()
    for cyc in enumerate_hamilton_cycles(k5):
        rest = k5.edges - cycle_edges(cyc)
        assert count_hamilton_cycles_exact(build_graph(5, rest)) == 1
        pairs.add(frozenset({frozenset(cycle_edges(cyc)), frozenset(rest)}))
    assert len(pairs) == 6

    # ordered/unordered consistency on every even-regular graph with n <= 8
    checked = 0
    for n in range(3, 9):
        for r in range(2, n, 2):
            for g in connected_regular_graphs(n, r):
                unordered = count_decompositions_exact(g)
                ordered = count_decompositions_ordered(g)
                assert ordered == unordered * math.factorial(r // 2), (n, r)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        "2 oracles",
        f"K5/K7 counts + consistency on {checked} graphs in {elapsed:.2f}s",
    )


def test_criterion_3_factor_oracle():
    """Factor enumeration counts and full sampler support within 30 s."""
    start = time.perf_counter()
    assert len(enumerate_le2_factors(complete_graph(4))) == 6
    assert len(enumerate_le2_factors(complete_graph(5))) == 22
    expected = {
        (f.cycles, f.pairs) for f in enumerate_le2_factors(complete_graph(4))
    }
    seen = set()
    draws = 0
    for seed in range(10_000):
        f = sample_le2_factor(complete_graph(4), seed)
        seen.add((f.cycles, f.pairs))
        draws += 1
        if seen == expected:
            break
    assert seen == expected, f"support missing {expected - seen}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("3 factors", f"6 + 22 factors, support in {draws} draws, {elapsed:.2f}s")


def test_criterion_4_bound_sanity():
    """Brégman bound dominates exact counts on all connected regular graphs
    with n <= 8; the K5 decomposition count sits under the finite product."""
    start = time.perf_counter()
    checked = 0
    for n in range(3, 9):
        for r in range(2, n):
            for g in connected_regular_graphs(n, r):
                count = count_hamilton_cycles_exact(g)
                bound = math.exp(bregman_log_bound(n, r))
                assert count <= bound + 1e-9, (n, r, count, bound)
                checked += 1
    upper = decomposition_log_upper(5, 4)
    assert upper == pytest.approx(5.705, abs=1e-3)
    assert math.log(6) <= upper
    elapsed = time.perf_counter() - start
    report("4 bounds", f"{checked} corpus graphs, ln6 <= {upper:.3f}, {elapsed:.1f}s")


def test_criterion_5_regularize_suite():
    """K9 extraction at half-degree 3, repeated 100 times: the extraction is
    deterministic (it draws no random numbers), so all 100 outputs are the
    same 6-regular subgraph; >= 95 runs finish under a second, with the flow
    self-checks silent."""
    k9 = complete_graph(9)
    successes = 0
    worst = 0.0
    outputs = []
    for _ in range(100):
        t0 = time.perf_counter()
        sub = extract_regular_subgraph(k9, 3)  # AssertionError if checks fire
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert set(sub.degrees()) == {6}
        assert sub.edges <= k9.edges
        outputs.append(sub.edges)
        if elapsed < 1.0:
            successes += 1
    assert all(edges == outputs[0] for edges in outputs)
    assert successes >= 95
    report("5 regularize", f"{successes}/100 under 1s (worst {worst:.3f}s)")


def test_criterion_6_rotation_steps():
    """100 seeded extractions on tri-partitioned K21: verified cycle,
    (d-2)-regular new core, exact accounting, move count within the cap."""
    g = complete_graph(21)
    params = default_params(g, seed=0)
    tp = tri_partition(g, params)
    cap = 2 * component_budget(21) + 1
    assert cap == 2 * math.ceil(math.sqrt(21 * math.log(21))) + 1
    host_edges = tp.core.edges | tp.patch.edges
    start = time.perf_counter()
    for seed in range(100):
        step = extract_hamilton_step(tp.core, tp.patch, seed)
        assert len(step.cycle) == 21
        assert len(set(step.cycle)) == 21
        assert step.cycle_edges() <= host_edges
        assert step.new_core.regular_degree() == tp.core_degree - 2
        union = (
            step.new_core.edges
            | step.new_patch.edges
            | step.cycle_edges()
            | step.dropped_core
        )
        parts_total = (
            len(step.new_core.edges)
            + len(step.new_patch.edges)
            + len(step.cycle_edges())
            + len(step.dropped_core)
        )
        assert union == host_edges and parts_total == len(union)
        assert len(step.moves) <= cap
    elapsed = time.perf_counter() - start
    report("6 rotation", f"100 steps, cap {cap}, {elapsed:.2f}s")


def test_criterion_7_end_to_end_pipeline():
    """K9, K21, K51 fully decomposed for 5 seeds each within 120 s total;
    odd-degree variant handles K6 and K12."""
    start = time.perf_counter()
    for n, expect in ((9, 4), (21, 10), (51, 25)):
        g = complete_graph(n)
        for seed in range(5):
            run = run_pipeline(g, seed=seed)
            assert run.decomposition.cycle_count == expect
            assert verify_decomposition(g, run.decomposition).ok
    for n, expect in ((6, 2), (12, 5)):
        g = complete_graph(n)
        deco = decompose_odd(g, seed=0)
        assert deco.cycle_count == expect
        assert deco.matching is not None
        assert verify_decomposition(g, deco).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report("7 pipeline", f"K9/K21/K51 x5 + odd K6/K12 in {elapsed:.1f}s")


def test_criterion_8_expander_predicates():
    """Exact verdicts on the two-K4 union and K8, plus 500 monotonicity
    pairs under edge addition at n <= 12."""
    import random

    verdict = is_robust_expander(two_disjoint_k4(), 0.2, 0.25, "exact")
    assert not verdict.holds and verdict.witness is not None
    assert is_robust_expander(complete_graph(8), 0.1, 0.25, "exact").holds

    rng = random.Random(0)
    checked = 0
    while checked < 500:
        n = rng.randint(5, 12)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [p for p in pairs if rng.random() < rng.uniform(0.55, 0.95)]
        g = build_graph(n, edges)
        if not is_robust_expander(g, 0.1, 0.3, "exact").holds:
            continue
        missing = [p for p in pairs if p not in g.edges]
        extra = rng.sample(missing, min(len(missing), rng.randint(1, 3)))
        bigger = build_graph(n, edges + extra)
        assert is_robust_expander(bigger, 0.1, 0.3, "exact").holds
        checked += 1
    report("8 expanders", f"two-K4 rejected, K8 accepted, {checked} monotone pairs")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    """Every subcommand is byte-stable across two runs with the same seed."""
    k9 = tmp_path / "k9.edges"
    save_edge_list(complete_graph(9), k9)
    k6 = tmp_path / "k6.edges"
    save_edge_list(complete_graph(6), k6)
    k8 = tmp_path / "k8.edges"
    save_edge_list(complete_graph(8), k8)
    k21 = tmp_path / "k21.edges"
    save_edge_list(complete_graph(21), k21)

    code = cli_main(["decompose", str(k9), "--seed", "1", "--no-meta"])
    deco_out = capsys.readouterr().out
    assert code == 0
    deco_file = tmp_path / "deco.json"
    deco_file.write_text(deco_out)

    commands = [
        ("walecki", "9"),
        ("decompose", str(k9), "--seed", "1"),
        ("decompose-odd", str(k6), "--seed", "1"),
        ("count", str(k9), "--eps", "0.05"),
        ("verify", str(k9), str(deco_file)),
        ("partition", str(k21), "--out", str(tmp_path / "p")),
        ("sample-factor", str(k9), "--seed", "4"),
        ("check-expander", str(k8), "--nu", "0.1", "--tau", "0.25", "--exact"),
        ("bounds", "60", "20"),
    ]

    stable = 0
    for argv in commands:
        outputs = []
        for _ in range(2):
            code = cli_main([*argv, "--no-meta"])
            outputs.append(capsys.readouterr().out)
            assert code == 0, argv
        assert outputs[0] == outputs[1], f"{argv[0]} output not byte-stable"
        stable += 1
    report("9 determinism", f"{stable} subcommands byte-stable")
