"""The benchmark's tracer and the scripts import package functions by
module and name, so a refactor that moves or renames one of them silently
breaks ``--trace 1`` or a script."""

import ast
import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import hamdeck

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "benchmark" / "spans.py"


def test_benchmark_trace_sites_resolve():
    # run_path compiles the source in memory, so nothing is written there
    sites = runpy.run_path(str(SPANS))["SITES"]
    assert sites
    for module_name, name, *_ in sites:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_package_exports_resolve():
    # a name left in __all__ after its definition goes breaks ``import *``
    assert len(set(hamdeck.__all__)) == len(hamdeck.__all__)
    missing = [name for name in hamdeck.__all__ if not hasattr(hamdeck, name)]
    assert missing == []
    # and a name __init__.py imports but leaves out of __all__ is a leftover
    # re-export, which test_src_has_no_unused_imports does not see
    tree = ast.parse((ROOT / "src" / "hamdeck" / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert sorted(imported - {"os"} - set(hamdeck.__all__)) == []


def test_benchmark_trace_hooks_record_their_counters(tmp_path, monkeypatch):
    # a hook that reads a renamed attribute of its call's result would fail
    # the run; one whose counter stops being fed would go unseen
    monkeypatch.chdir(tmp_path)
    tracer = runpy.run_path(str(SPANS))["Tracer"]()
    decompose = importlib.import_module("hamdeck.decompose")
    from hamdeck.graphs import complete_graph

    tracer.install()
    try:
        decompose.run_pipeline(complete_graph(21), seed=0)
    finally:
        tracer.uninstall()
    for counter in (
        "regularize.max_flow.saturated",
        "partition.split_attempts",
        "factor.components",
        "rotation.step_restarts",
        "decompose.run_pipeline.attempts",
    ):
        assert counter in tracer.counters, counter
    assert tracer.counters["regularize.max_flow.saturated"] >= 1
    assert list(tmp_path.iterdir()) == []


def test_bounds_table_script_runs():
    env = dict(os.environ, PYTHONPATH=str(Path(hamdeck.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bounds_table.py"), "--max-n", "5"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()[2:]]
    # K5: one graph, 12 Hamilton cycles, 6 decompositions into two of them
    n, r, graphs, cycles, _, decompositions, *_ = next(
        row for row in rows if row[:2] == ["5", "4"]
    )
    assert (graphs, cycles, decompositions) == ("1", "12", "6")


def test_bounds_table_refuses_rows_above_the_edge_cap():
    # n = 10 reaches 8-regular graphs with 40 edges, above the cap of 36
    env = dict(os.environ, PYTHONPATH=str(Path(hamdeck.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bounds_table.py"), "--max-n", "10"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert "40 edges, above the exact decomposition count's cap of 36" in out.stderr


def test_src_has_no_unused_imports():
    # a helper deleted without its import leaves a name nothing reads;
    # __init__.py imports names to re-export them, so it is skipped
    unused = []
    for path in sorted((ROOT / "src" / "hamdeck").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert unused == []


def test_src_defines_each_function_name_once():
    # two modules defining one name hold two copies of one job; the second
    # copy drifts from the first unseen
    defined = {}
    for path in sorted((ROOT / "src" / "hamdeck").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, []).append(path.name)
    twice = {name: files for name, files in defined.items() if len(files) > 1}
    assert twice == {}


# The hot bit-row loops take a vertex's bit from graphs.single_bits: a shift
# there builds a new int per edge on ~200-bit rows.
BIT_TABLE_LOOPS = {
    "decompose.py": {"_rotation_first_cycle"},
    "factor.py": {"_random_perfect_matching", "_validate_cover"},
    "regularize.py": {"balanced_orientation"},
    "rotation.py": {"_rotation_search", "_take", "_walk_cycle"},
    "walecki.py": {"verify_decomposition"},
}


def _bit_shift(node) -> bool:
    """``1 << x`` or ``row >> x & 1`` for a non-constant x."""
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.LShift):
        one, x = node.left, node.right
    elif isinstance(node.op, ast.BitAnd) and isinstance(node.left, ast.BinOp):
        one, x = node.right, node.left.right
        if not isinstance(node.left.op, ast.RShift):
            return False
    else:
        return False
    return (
        isinstance(one, ast.Constant)
        and one.value == 1
        and not isinstance(x, ast.Constant)
    )


def test_hot_loops_index_the_bit_table():
    shifts, found = set(), set()
    for path, names in BIT_TABLE_LOOPS.items():
        tree = ast.parse((ROOT / "src" / "hamdeck" / path).read_text(), path)
        for func in tree.body:
            if isinstance(func, ast.FunctionDef) and func.name in names:
                found.add(func.name)
                shifts.update(
                    f"{path}:{node.lineno} in {func.name}"
                    for loop in ast.walk(func)
                    if isinstance(loop, (ast.For, ast.While))
                    for node in ast.walk(loop)
                    if _bit_shift(node)
                )
    assert found == set().union(*BIT_TABLE_LOOPS.values())
    assert sorted(shifts) == []
