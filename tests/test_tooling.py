"""The benchmark's tracer wraps package functions by module and name, so a
refactor that moves or renames one of them silently breaks ``--trace 1``."""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def test_benchmark_trace_sites_resolve():
    # run_path compiles the source in memory, so nothing is written there
    sites = runpy.run_path(str(SPANS))["SITES"]
    assert sites
    for module_name, name, *_ in sites:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"
