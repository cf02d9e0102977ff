#!/usr/bin/env python3
"""Tabulate exact counts against the log-scale bound formulas on tiny graphs.

The asymptotic bounds need not bracket exact counts at these sizes; the
table makes the gap visible.

Usage:
    python scripts/bounds_table.py [--max-n N]   (3 <= N <= 9, default 7)

--max-n 9 ends with the K9 row in a few seconds.  n = 10 is refused: its
8-regular graphs have 40 edges, above the exact decomposition count's edge
cap.
"""

from __future__ import annotations

import argparse
import math

from hamdeck.counting import (
    DECOMPOSITION_EDGE_CAP,
    bregman_log_bound,
    connected_regular_graphs,
    count_decompositions_exact,
    count_hamilton_cycles_exact,
    decomposition_log_lower,
    decomposition_log_upper,
)
from hamdeck.partition import PipelineParams


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--eps", type=float, default=PipelineParams.eps)
    args = parser.parse_args()
    # the largest even degree below n must fit the exact count's edge cap
    top = (args.max_n - 1) // 2 * 2
    if args.max_n * top // 2 > DECOMPOSITION_EDGE_CAP:
        parser.error(
            f"--max-n {args.max_n} reaches {top}-regular graphs with "
            f"{args.max_n * top // 2} edges, above the exact decomposition "
            f"count's cap of {DECOMPOSITION_EDGE_CAP}; use --max-n 9 or less"
        )

    header = (
        f"{'n':>3} {'r':>3} {'graphs':>6} {'max H-cycles':>12} "
        f"{'exp(bregman)':>13} {'max decomps':>11} {'exp(upper)':>11} {'exp(lower)':>11}"
    )
    print(header)
    print("-" * len(header))
    for n in range(3, args.max_n + 1):
        for r in range(2, n):
            reps = connected_regular_graphs(n, r)
            if not reps:
                continue
            cycle_counts = [count_hamilton_cycles_exact(g) for g in reps]
            bregman = math.exp(bregman_log_bound(n, r))
            if r % 2 == 0:
                deco_counts = [count_decompositions_exact(g) for g in reps]
                upper = math.exp(decomposition_log_upper(n, r))
                lower = math.exp(decomposition_log_lower(n, r, args.eps))
                deco_str = f"{max(deco_counts):>11} {upper:>11.1f} {lower:>11.1f}"
            else:
                deco_str = f"{'-':>11} {'-':>11} {'-':>11}"
            print(
                f"{n:>3} {r:>3} {len(reps):>6} {max(cycle_counts):>12} "
                f"{bregman:>13.1f} {deco_str}"
            )


if __name__ == "__main__":
    main()
