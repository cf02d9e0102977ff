"""Command-line front end.

Exit codes: 0 success; 1 verification failure or infeasibility; 2 budget
exhaustion; 3 input errors, usage errors and a non-finite HAMDECK_BUDGET_MS
included; 4 internal errors (a failed self-check or the recursion limit),
printed without a traceback.  Every subcommand takes a seed (default 0) and
echoes it in the output metadata, so artifacts are reproducible; --no-meta
drops the timestamp for byte-stable comparisons.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from datetime import datetime, timezone

from .counting import (
    bregman_log_bound,
    count_decompositions_exact,
    count_hamilton_cycles_exact,
    decomposition_log_lower,
    decomposition_log_upper,
    decomposition_log_upper_asymptotic,
)
from .decompose import decompose_odd, run_pipeline
from .errors import BudgetError, InfeasibleError, InputError
from .factor import sample_le2_factor
from .graphs import Graph, is_robust_expander, load_edge_list
from .partition import (
    PipelineParams,
    default_params,
    save_tri_partition,
    tri_partition,
    verify_partition,
)
from .walecki import Decomposition, verify_decomposition, walecki_decomposition

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _meta(args, extra: dict | None = None) -> dict:
    meta = {"seed": getattr(args, "seed", 0), "tool": "hamdeck"}
    if extra:
        meta.update(extra)
    if not args.no_meta:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def _emit(args, payload: dict) -> None:
    try:
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            _emit_text(payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: the rest, exit flush included, goes nowhere
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def _emit_text(payload: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], list):
            print(f"{pad}{key}: [{len(value)} entries]")
            for item in value:
                print(f"{pad}  {' '.join(str(x) for x in item)}")
        else:
            print(f"{pad}{key}: {value}")


def _load_graph(path: str) -> Graph:
    try:
        return load_edge_list(path)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _params_for(graph: Graph, args, deadline) -> PipelineParams:
    return default_params(
        graph, seed=args.seed, deadline=deadline, eps=args.eps,
        max_steps=getattr(args, "max_steps", None),
    )


def _decomposition_payload(deco: Decomposition, args, extra_meta=None) -> dict:
    payload = deco.to_json_dict()
    payload["meta"] = _meta(args, extra_meta)
    return payload


# -- subcommand handlers ------------------------------------------------------


def _cmd_walecki(args, deadline) -> int:
    deco = walecki_decomposition(args.n)
    _emit(args, _decomposition_payload(deco, args))
    return EXIT_OK


def _cmd_decompose(args, deadline) -> int:
    graph = _load_graph(args.graph)
    params = _params_for(graph, args, deadline)
    run = run_pipeline(graph, params, seed=args.seed)
    if args.trace:
        for entry in run.step_stats:
            for move in entry.get("moves", ()):
                print(
                    json.dumps({"stage": "move", "step": entry["step"], **move}),
                    file=sys.stderr,
                )
            summary = {k: v for k, v in entry.items() if k != "moves"}
            print(json.dumps({"stage": "step", **summary}), file=sys.stderr)
        print(
            json.dumps(
                {
                    "stage": "summary",
                    "rotation_cycles": run.rotation_cycles,
                    "completed_cycles": run.completed_cycles,
                    "attempts": run.attempts,
                    "fallback_whole_graph": run.fallback_whole_graph,
                    "elapsed_s": round(run.elapsed_s, 3),
                }
            ),
            file=sys.stderr,
        )
    extra = {
        "rotation_cycles": run.rotation_cycles,
        "completed_cycles": run.completed_cycles,
    }
    _emit(args, _decomposition_payload(run.decomposition, args, extra))
    return EXIT_OK


def _cmd_decompose_odd(args, deadline) -> int:
    graph = _load_graph(args.graph)
    params = _params_for(graph, args, deadline)
    deco = decompose_odd(graph, params, seed=args.seed)
    _emit(args, _decomposition_payload(deco, args))
    return EXIT_OK


def _cmd_count(args, deadline) -> int:
    graph = _load_graph(args.graph)
    r = graph.regular_degree()
    if r is None:
        raise InputError("count report needs a regular graph")
    if r % 2 != 0:
        raise InputError(f"degree {r} is odd")
    methods = ["finite-product-upper"]
    exact = None
    if args.exact:
        exact = str(count_decompositions_exact(graph, deadline=deadline))
        methods.append("anchored-recursion-class-memo")
    if r:  # even, so at least 2
        methods.append("constructive-lower")
    # the bounds are asymptotic and recorded, not enforced: at desk-scale n
    # they need not bracket the exact count
    payload = {
        "exact_count": exact,
        "log_lower": decomposition_log_lower(graph.n, r, args.eps) if r else None,
        "log_upper": decomposition_log_upper(graph.n, r) if r else 0.0,
        "formula_inputs": {"n": graph.n, "r": r, "eps": args.eps},
        "methods": methods,
    }
    if args.hamilton:
        payload["hamilton_cycles_exact"] = str(
            count_hamilton_cycles_exact(graph, deadline)
        )
    payload["meta"] = _meta(args)
    _emit(args, payload)
    return EXIT_OK


def _cmd_verify(args, deadline) -> int:
    graph = _load_graph(args.graph)
    try:
        with open(args.decomposition, "r", encoding="utf-8") as fh:
            deco = Decomposition.from_json_dict(json.load(fh))
    except OSError as exc:
        raise InputError(f"cannot read {args.decomposition}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InputError(f"bad JSON in {args.decomposition}: {exc}") from exc
    result = verify_decomposition(graph, deco)
    payload = {"ok": result.ok, "violation": result.violation, "meta": _meta(args)}
    _emit(args, payload)
    return EXIT_OK if result.ok else EXIT_FAIL


def _sorted_or_none(witness) -> list[int] | None:
    return None if witness is None else sorted(witness)


def _cmd_partition(args, deadline) -> int:
    graph = _load_graph(args.graph)
    params = _params_for(graph, args, deadline)
    tp = tri_partition(graph, params)
    # a budget that runs out in the check leaves no files behind
    report = verify_partition(tp, graph=graph, seed=args.seed)
    paths = save_tri_partition(tp, args.out)
    payload = {
        "files": paths,
        "core_degree": tp.core_degree,
        "report": {
            "ok": report.ok,
            "partition_exact": report.partition_exact,
            "core_regular": report.core_regular,
            "core_degree_even": report.core_degree_even,
            "asymptotic_degree_bound_met": report.asymptotic_degree_bound_met,
            "expander_holds": report.expander.holds,
            "expander_witness": _sorted_or_none(report.expander.witness),
            "issues": list(report.issues),
        },
        "meta": _meta(args),
    }
    _emit(args, payload)
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_sample_factor(args, deadline) -> int:
    graph = _load_graph(args.graph)
    factor = sample_le2_factor(graph, args.seed, deadline=deadline)
    payload = factor.to_json_dict()
    payload["meta"] = _meta(args)
    _emit(args, payload)
    return EXIT_OK


def _cmd_check_expander(args, deadline) -> int:
    graph = _load_graph(args.graph)
    mode = "exact" if args.exact else "sampled"
    verdict = is_robust_expander(
        graph, args.nu, args.tau, mode,
        trials=args.trials, seed=args.seed, deadline=deadline,
    )
    payload = {
        "holds": verdict.holds,
        "witness": _sorted_or_none(verdict.witness),
        "mode": verdict.mode,
        "meta": _meta(args),
    }
    _emit(args, payload)
    return EXIT_OK if verdict.holds else EXIT_FAIL


def _cmd_bounds(args, deadline) -> int:
    payload = {
        "n": args.n,
        "r": args.r,
        "eps": args.eps,
        "hamilton_log_upper": bregman_log_bound(args.n, args.r),
        "decomposition_log_upper": decomposition_log_upper(args.n, args.r)
        if args.r % 2 == 0
        else None,
        "decomposition_log_upper_asymptotic": decomposition_log_upper_asymptotic(
            args.n, args.r
        ),
        "decomposition_log_lower": decomposition_log_lower(args.n, args.r, args.eps),
        "meta": _meta(args),
    }
    _emit(args, payload)
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit EXIT_INPUT, not argparse's 2,
    which here means budget exhaustion; subparsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )
    p.add_argument(
        "--no-meta",
        action="store_true",
        help="omit the timestamp so outputs compare byte-for-byte",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hamdeck",
        description="Hamiltonian decompositions of dense regular graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("walecki", help="decompose K_n for odd n")
    p.add_argument("n", type=int)
    _add_common(p)
    p.set_defaults(handler=_cmd_walecki)

    p = sub.add_parser("decompose", help="decompose an even-regular graph")
    p.add_argument("graph", help="edge-list file")
    _add_common(p)
    p.add_argument("--eps", type=float, default=PipelineParams.eps, help="slack fraction")
    p.add_argument("--max-steps", type=int, default=None, help="cap rotation steps")
    p.add_argument("--trace", action="store_true", help="per-step stats to stderr")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser(
        "decompose-odd", help="decompose an odd-regular graph (cycles + matching)"
    )
    p.add_argument("graph", help="edge-list file")
    _add_common(p)
    p.add_argument("--eps", type=float, default=PipelineParams.eps, help="slack fraction")
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(handler=_cmd_decompose_odd)

    p = sub.add_parser("count", help="decomposition count report with bounds")
    p.add_argument("graph", help="edge-list file")
    _add_common(p)
    p.add_argument("--eps", type=float, default=PipelineParams.eps, help="slack fraction")
    p.add_argument("--exact", action="store_true", help="run the exact oracle")
    p.add_argument(
        "--hamilton", action="store_true", help="also count Hamilton cycles exactly"
    )
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("verify", help="verify a decomposition JSON against a graph")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("decomposition", help="decomposition JSON file")
    _add_common(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("partition", help="tri-partition a graph to files")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--out", required=True, help="output path prefix")
    _add_common(p)
    p.add_argument("--eps", type=float, default=PipelineParams.eps, help="slack fraction")
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("sample-factor", help="sample a random (<=2)-factor")
    p.add_argument("graph", help="edge-list file")
    _add_common(p)
    p.set_defaults(handler=_cmd_sample_factor)

    p = sub.add_parser("check-expander", help="robust-expander verdict")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--trials", type=int, default=100_000)
    _add_common(p)
    p.set_defaults(handler=_cmd_check_expander)

    p = sub.add_parser("bounds", help="bound formulas for (n, r)")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--eps", type=float, default=PipelineParams.eps, help="slack fraction")
    _add_common(p)
    p.set_defaults(handler=_cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    budget_ms = os.environ.get("HAMDECK_BUDGET_MS")
    try:
        budget = float(budget_ms) if budget_ms else None
        # NaN and infinity never expire, so either would mean no budget at all
        if budget is not None and not math.isfinite(budget):
            raise ValueError(budget_ms)
    except ValueError:
        print(f"error: bad HAMDECK_BUDGET_MS value {budget_ms!r}", file=sys.stderr)
        return EXIT_INPUT
    deadline = None if budget is None else time.monotonic() + budget / 1000.0
    try:
        return args.handler(args, deadline)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (AssertionError, RecursionError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
