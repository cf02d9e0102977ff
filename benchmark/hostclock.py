"""Op times corrected for the speed of a shared host.

On a host whose cores are shared with other tenants, the same pure-Python
work runs up to 2x slower for stretches of seconds to minutes, with CPU time
equal to wall time (the slowdown is not stolen time; the core itself runs
slower). A fixed reference kernel, made of the same kind of interpreter work
as the package (dict and set updates, tuple hashing, integer arithmetic),
slows by nearly the same factor. So each op is timed while an interval timer
samples the reference kernel every ``INTERVAL_S`` of wall time, inside the
op's own thread, and the op's time is scaled by

    REF_NOMINAL_S / mean(reference samples taken during the op)

which gives its time at a fixed reference speed, in seconds. The time the
samples themselves take is taken out of the op's time first. Samples are
equally spaced in wall time, so their mean weighs each stretch of the op by
its length; their median or minimum tracks the op's time worse. A few
samples are also taken just before and just after each op, so that ops
shorter than the interval get a speed too.

Set-up (a fresh interpreter importing the package and building inputs) is
timed the same way inside that interpreter, which then scales its whole time
since the spawn, start-up included. Samples taken in the parent instead,
around the child, track it worse: the parent sleeps while it waits, and a
sample taken just after it wakes reads slow.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.1
EDGE_SAMPLES = 3
# The reference kernel's time on an uncontended core of the machine the
# bounds were set on (Intel Xeon, 2 vCPUs, Python 3); only the scale of the
# reported seconds depends on it.
REF_NOMINAL_S = 0.0035


def reference_kernel() -> int:
    d: dict[int, int] = {}
    s: set[tuple[int, int]] = set()
    x = 0
    for i in range(10000):
        d[i & 511] = d.get((i * 31) & 511, 0) + i
        s.add((i & 255, (i * 7919) & 255))
        x += len(s) ^ i
    return x


def _sample() -> float:
    t = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t


class HostClock:
    """Times a call at reference speed; see the module docstring."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._sampling_s = 0.0

    def _on_timer(self, signum, frame) -> None:
        t = time.perf_counter()
        self._samples.append(_sample())
        self._sampling_s += time.perf_counter() - t

    def time(self, fn, *args):
        """Run ``fn(*args)``; return (its result, raw seconds, seconds at
        reference speed). Exceptions propagate after the timer is stopped."""
        self._samples = [_sample() for _ in range(EDGE_SAMPLES)]
        self._sampling_s = 0.0
        old = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - t
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        raw = elapsed - self._sampling_s
        self._samples += [_sample() for _ in range(EDGE_SAMPLES)]
        speed = REF_NOMINAL_S * len(self._samples) / sum(self._samples)
        return result, raw, raw * speed
