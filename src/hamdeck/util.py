"""Shared helpers: threshold rounding, seed derivation, wall-clock budgets."""

from __future__ import annotations

import hashlib
import math
import time

from .errors import BudgetError

# Tolerance used when comparing integers against fractional thresholds, so
# float noise (0.1 * 8 = 0.8000000000000001) cannot flip a verdict.
EPS = 1e-9


def ceil_frac(x: float) -> int:
    """Ceiling of a real threshold, snapped against float noise.

    Integer-vs-real comparisons like ``k >= x`` are equivalent to
    ``k >= ceil(x)``; this is the single rounding convention used for all
    fractional thresholds in the package.
    """
    return math.ceil(x - EPS)


def floor_frac(x: float) -> int:
    return math.floor(x + EPS)


def spawn_seed(seed: int, *tags: object) -> int:
    """Derive a reproducible 63-bit child seed from a parent seed and tags.

    Uses sha256, so results are stable across processes and platforms
    (unlike ``hash``).
    """
    text = repr((int(seed),) + tuple(str(t) for t in tags))
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def check_deadline(deadline: float | None, what: str = "operation") -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetError(f"wall-clock budget exhausted during {what}")
