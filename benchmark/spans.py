"""Per-layer tracing from outside the package.

Each public function of interest is wrapped where its caller looks it up
(``hamdeck.decompose.complete_residual``, ``hamdeck.rotation.sample_le2_factor``
and so on), so the program's source is untouched. A wrapper records one span
(name, start, end, parent, op id) per call and feeds exact counters from the
call's arguments and result. Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict


def _max_flow(c, args, result):
    net = args[0]
    c["regularize.max_flow.saturated"] += result.value == net.d * net.n


def _factor(c, args, result):
    c["factor.components"] += result.component_count


def _step(c, args, result):
    c["rotation.step_restarts"] += result.restarts


def _partition(c, args, result):
    c["partition.split_attempts"] += result.stats["attempts"]


def _pipeline(c, args, result):
    c["decompose.run_pipeline.attempts"] += result.attempts
    c["decompose.rotation_cycles"] += result.rotation_cycles
    c["decompose.completed_cycles"] += result.completed_cycles


def _residual(c, args, result):
    c["decompose.residual_degree_sum"] += args[0].regular_degree() or 0


# (module where the name is looked up, name, layer label, counter hook).
# A hook sees the result only when the call returned; the residual hook reads
# its argument, so it runs for failed calls too.
SITES = [
    ("hamdeck.decompose", "run_pipeline", "decompose.run_pipeline", _pipeline),
    ("hamdeck.decompose", "decompose_odd", "decompose.decompose_odd", None),
    ("hamdeck.decompose", "complete_residual", "decompose.complete_residual", _residual),
    ("hamdeck.decompose", "find_perfect_matching", "decompose.find_perfect_matching", None),
    ("hamdeck.decompose", "tri_partition", "partition.tri_partition", _partition),
    ("hamdeck.decompose", "extract_hamilton_step", "rotation.extract_hamilton_step", _step),
    ("hamdeck.decompose", "verify_decomposition", "walecki.verify_decomposition", None),
    ("hamdeck.walecki", "verify_decomposition", "walecki.verify_decomposition", None),
    ("hamdeck.partition", "extract_regular_subgraph", "regularize.extract_regular_subgraph", None),
    ("hamdeck.regularize", "random_orientation", "regularize.random_orientation", None),
    ("hamdeck.regularize", "balanced_orientation", "regularize.balanced_orientation", None),
    ("hamdeck.regularize", "build_flow_network", "regularize.build_flow_network", None),
    ("hamdeck.regularize", "max_flow", "regularize.max_flow", _max_flow),
    ("hamdeck.rotation", "sample_le2_factor", "factor.sample_le2_factor", _factor),
    ("hamdeck.rotation", "merge_step", "rotation.merge_step", None),
    ("hamdeck.rotation", "rotate_or_close", "rotation.rotate_or_close", None),
    ("hamdeck.rotation", "substitution_gadget", "rotation.substitution_gadget", None),
    ("hamdeck.counting", "count_decompositions_exact", "counting.count_decompositions_exact", None),
    ("hamdeck.counting", "count_decompositions_ordered", "counting.count_decompositions_ordered", None),
    ("hamdeck.counting", "count_hamilton_cycles_exact", "counting.count_hamilton_cycles_exact", None),
    ("hamdeck.counting", "connected_regular_graphs", "counting.connected_regular_graphs", None),
]

_ARG_HOOKS = {_residual}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, label, hook in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, label, hook))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, fn, label: str, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "op": self.op,
                "name": label,
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            result = None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if hook is not None and (result is not None or hook in _ARG_HOOKS):
                    hook(self.counters, args, result)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    def layer_metrics(self, op_seconds: float) -> dict[str, tuple[float, str]]:
        """calls / busy_s (outermost spans of a name) / self_s for every span
        name, the derived ratios, and the share of ``op_seconds`` (summed op
        wall time) that root spans cover."""
        spans = self.spans
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        calls: Counter = Counter()
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        root_s = 0.0
        for s in spans:
            name, dur = s["name"], s["end"] - s["start"]
            calls[name] += 1
            self_s[name] += dur - child_time[s["id"]]
            parent, nested = s["parent"], False
            while parent is not None and not nested:
                nested = spans[parent]["name"] == name
                parent = spans[parent]["parent"]
            if not nested:
                busy[name] += dur
            if s["parent"] is None and s["op"] != "setup":
                root_s += dur

        out: dict[str, tuple[float, str]] = {}
        for _, _, label, _ in SITES:
            out[f"{label}.calls"] = (calls[label], "count")
            out[f"{label}.busy_s"] = (busy[label], "s")
            out[f"{label}.self_s"] = (self_s[label], "s")
        c = self.counters

        def share(num: float, den: float) -> float:
            return num / den if den else 0.0

        rotation = c["decompose.rotation_cycles"]
        out.update(
            {
                "regularize.flow_saturation_ratio": (
                    share(c["regularize.max_flow.saturated"], calls["regularize.max_flow"]),
                    "ratio",
                ),
                "factor.components_mean": (
                    share(c["factor.components"], calls["factor.sample_le2_factor"]),
                    "count",
                ),
                "rotation.step_restarts": (c["rotation.step_restarts"], "count"),
                "rotation.cycle_share": (
                    share(rotation, rotation + c["decompose.completed_cycles"]),
                    "ratio",
                ),
                "partition.split_attempts": (c["partition.split_attempts"], "count"),
                "decompose.run_pipeline.attempts": (
                    c["decompose.run_pipeline.attempts"],
                    "count",
                ),
                "decompose.residual_degree_mean": (
                    share(
                        c["decompose.residual_degree_sum"],
                        calls["decompose.complete_residual"],
                    ),
                    "count",
                ),
                "span_coverage": (share(root_s, op_seconds), "s/s"),
            }
        )
        return out
