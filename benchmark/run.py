#!/usr/bin/env python3
"""hamdeck benchmark: closed-loop, single-process, single-thread workloads
with an output check on every operation.

    python3 benchmark/run.py --workload kn-mid --seed 0 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all
    python3 benchmark/run.py --compare A.json B.json

``--seed`` draws the order in which a pass sends the workload's operations.
It picks neither the pipeline seeds nor the vertex labels, because both move
single op times by up to 4x and the run-to-run spread has to stay within the
bounds in BENCHMARK.json. ``--base`` (default 0) is the first pipeline seed,
so that a claim can be checked again on pipeline seeds it was not tuned on.

With ``--trace 0`` the run makes one pass over the workload's operations,
then keeps re-running, shortest first, each operation whose median time still
fits in ``--seconds``; it prints every end-to-end metric of BENCHMARK.json.
Its op and set-up times are seconds at a fixed reference speed of the host
(see hostclock.py): on a shared host the same work runs up to 2x slower for
minutes at a time, and the raw times, kept in the record, drift with it.
``setup_s`` is the median of several set-ups, each in a fresh interpreter.
With ``--trace 1`` it makes one untraced and one traced pass and prints every
per-layer metric. The last line of standard output is the result as one
JSON object. A record of the run (environment, per-op times, failures, every
layer row) and, when traced, its spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from hostclock import HostClock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Which end-to-end metric each per-layer metric should move, and on which
# workloads; the compare mode prints it beside each delta.
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
SETUP_REPEATS = 7
# Every op deadline is capped this long after measuring starts, so a run
# that hangs still ends, with its remaining ops counted as failed.
RUN_LIMIT_S = 150.0
COUNT_UNITS = ("count", "ratio")

# One set-up, as a user pays it: a fresh interpreter imports the package and
# builds the workload's inputs (the corpus cache starts empty). The child
# times itself from the parent's perf_counter reading taken just before the
# spawn (perf_counter is the system-wide monotonic clock on Linux, so the
# two processes share it), and prints its raw and reference-speed seconds.
SETUP_CODE = """\
import sys, time
started = float(sys.argv[5])
sys.path[:0] = sys.argv[1:3]
from hostclock import HostClock

def build():
    import workloads
    workloads.WORKLOADS[sys.argv[3]][0](int(sys.argv[4]))

before = time.perf_counter() - started
_, raw, norm = HostClock().time(build)
print(before + raw, (before + raw) * norm / raw)
"""


def environment() -> dict:
    import numpy
    import scipy

    cpu = next(
        (
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        ),
        platform.processor(),
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_seconds(args) -> list[tuple[float, float]]:
    """(raw, reference-speed) seconds of each set-up, from the spawn to
    the inputs being built; the child's exit is not counted."""
    times = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), args.workload, str(args.base)]
        out = subprocess.run(
            cmd + [repr(time.perf_counter())], check=True, stdout=subprocess.PIPE, text=True
        ).stdout
        raw, norm = map(float, out.split())
        times.append((raw, norm))
    return times


class Runner:
    """Runs ops under deadlines and files every failure: ``budget`` when a
    deadline or budget ran out, ``wrong`` for a wrong or missing answer."""

    def __init__(self, op_seconds: float, clock: HostClock | None):
        from hamdeck.errors import BudgetError

        self._budget_error = BudgetError
        self.op_seconds = op_seconds
        self.clock = clock
        self.deadline_cap = time.monotonic() + RUN_LIMIT_S
        self.failures: list[dict] = []
        self.attempted = 0

    def run(self, op) -> tuple[float, float]:
        """(raw, reference-speed) seconds of one run of ``op``; both are
        the raw time when the runner has no clock."""
        deadline = min(time.monotonic() + self.op_seconds, self.deadline_cap)
        self.attempted += 1
        gc.collect()
        t = time.perf_counter()
        try:
            if self.clock is None:
                problem = op.run(deadline)
                raw = norm = time.perf_counter() - t
            else:
                problem, raw, norm = self.clock.time(op.run, deadline)
        except self._budget_error as exc:
            problem, kind = str(exc), "budget"
            raw = norm = time.perf_counter() - t
        except Exception as exc:  # a crash inside an op is a wrong answer
            traceback.print_exc(file=sys.stderr)
            problem, kind = repr(exc), "wrong"
            raw = norm = time.perf_counter() - t
        else:
            kind = "wrong"
        if problem is not None:
            self.failures.append({"op": op.label, "kind": kind, "detail": problem})
        return raw, norm


def closed_loop(runner: Runner, ops, seconds: float) -> list[list[tuple[float, float]]]:
    """One pass, then rounds over the ops from the shortest up, re-running
    each whose median still fits in the time left, so that the short and
    relatively noisiest ops gain the most samples; returns each op's
    (raw, reference-speed) samples."""
    start = time.perf_counter()
    samples = [[runner.run(op)] for op in ops]
    order = sorted(range(len(ops)), key=lambda i: samples[i][0])
    ran = True
    while ran:
        ran = False
        for i in order:
            raw = statistics.median(r for r, _ in samples[i])
            if time.perf_counter() - start + raw <= seconds:
                samples[i].append(runner.run(ops[i]))
                ran = True
    return samples


def measure(args) -> dict:
    import workloads
    from spans import Tracer

    build, op_seconds = workloads.WORKLOADS[args.workload]
    setups = [] if args.trace else setup_seconds(args)
    ops = build(args.base)
    random.Random(args.seed).shuffle(ops)
    runner = Runner(op_seconds, None if args.trace else HostClock())
    seconds = min(args.seconds, RUN_LIMIT_S)
    samples = closed_loop(runner, ops, 0.0 if args.trace else seconds)
    per_op = [statistics.median(n for _, n in s) for s in samples]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "base": args.base,
        "seconds": args.seconds,
        "setups_raw_s": [r for r, _ in setups],
        "setups_s": [n for _, n in setups],
        "op_times_raw_s": {op.label: [r for r, _ in s] for op, s in zip(ops, samples)},
        "op_times_s": {op.label: [n for _, n in s] for op, s in zip(ops, samples)},
    }
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(n for _, n in setups), "s"),
            # time to all verified outputs of one pass, from per-op medians
            "wall_s": (sum(per_op), "s"),
            "seed_p50_s": (statistics.median(per_op), "s"),
            "seed_max_s": (max(per_op), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        tracer = Tracer()
        tracer.install()
        try:
            tracer.op = "setup"
            ops = build(args.base)
            random.Random(args.seed).shuffle(ops)
            traced = []
            for op in ops:
                tracer.op = op.label
                traced.append(runner.run(op)[0])
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(sum(traced))
        metrics["trace_overhead_s"] = (sum(traced) - sum(per_op), "s")
        metrics["fail_share"] = (len(runner.failures) / runner.attempted, "ratio")
        record["traced_op_times_s"] = {op.label: t for op, t in zip(ops, traced)}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    record.update(
        failures=runner.failures,
        attempted=runner.attempted,
        correct=not any(f["kind"] == "wrong" for f in runner.failures),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    return record


def report(record: dict, trace: int) -> dict:
    """Print the run for a reader and return the result object, holding
    exactly the metrics BENCHMARK.json declares for this mode."""
    declared = SPEC["per_layer" if trace else "end_to_end"]
    times, raw = record["op_times_s"], record["op_times_raw_s"]
    for label, samples in times.items():
        print(
            f"op {label}: median {statistics.median(samples):.3f} s at reference speed, "
            f"{statistics.median(raw[label]):.3f} s raw, over {len(samples)} run(s)"
        )
    print(f"seed_p50_s and seed_max_s over {len(times)} ops")
    for f in record["failures"]:
        print(f"FAILED {f['op']} ({f['kind']}): {f['detail']}")
    for name, m in sorted(record["metrics"].items()):
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    missing = [m["name"] for m in declared if m["name"] not in record["metrics"]]
    if missing:
        raise SystemExit(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {m["name"]: record["metrics"][m["name"]] for m in declared},
    }


def run_all(args) -> dict:
    """Every workload, each in a fresh process."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--base", str(args.base)]
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
        *lines, last = out.rstrip("\n").split("\n")
        print("\n".join(f"[{name}] {line}" for line in lines))
        sub = json.loads(last)
        result["correct"] &= sub["correct"]
        result["attempted"] += sub["attempted"]
        result["failed"] += sub["failed"]
        result["metrics"].update({f"{name}.{k}": v for k, v in sub["metrics"].items()})
    return result


def compare(path_a: str, path_b: str) -> int:
    """Per-layer deltas between two traced runs' records; returns 1 when a
    count or ratio differs, since those must repeat exactly on the same code."""
    a, b = (json.loads(Path(p).read_text())["metrics"] for p in (path_a, path_b))
    should = {
        name: f"moves {','.join(row['moves']) or '-'} on {','.join(row['on'])}"
        for row in LAYER_MAP
        for name in row["metrics"]
    }
    moved = []
    print(f"{'metric':<52} {'A':>12} {'B':>12} {'B-A':>12}")
    for name in sorted(a.keys() & b.keys()):
        va, vb, unit = a[name]["value"], b[name]["value"], a[name]["unit"]
        if unit in COUNT_UNITS and va != vb:
            moved.append(name)
        print(f"{name:<52} {va:>12.6g} {vb:>12.6g} {vb - va:>+12.6g} {unit:<6} {should.get(name, '')}")
    for name in sorted(a.keys() ^ b.keys()):
        print(f"{name}: only in {'A' if name in a else 'B'}")
    if moved:
        print(f"counts differ: {', '.join(moved)}")
    return 1 if moved else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--base", type=int, default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "hamdeck" / "__init__.py").is_file():
        print(f"no hamdeck sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.path.insert(0, str(SRC))
        import hamdeck

        if Path(hamdeck.__file__).resolve().parent != SRC / "hamdeck":
            print(f"imported hamdeck from {hamdeck.__file__}, not {SRC}", file=sys.stderr)
            return 2
        env = environment()
        print("env: " + json.dumps(env, sort_keys=True))
        record = measure(args)
        record["env"] = env
        OUT.mkdir(exist_ok=True)
        out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        result = report(record, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
