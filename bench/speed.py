"""Machine-speed sampling for the benchmark.

On the reference machine, a shared 2-vCPU virtual machine, the same Python
code runs up to 1.8x slower from one moment to the next, independently on
each core and on time scales from under a second to several seconds.  A
fixed slice of pure-Python work (``slice_s``) is timed in the same process
as the measured code, every 20 ms from a timer signal while it runs
(``Sampler``) or right after it.  Each measured time, less the time spent
in slices, is divided by the local slowness: the slice's time over
SLICE_REF_S.  Times are thus reported as they would read at the reference
speed.  The slice calls nothing in the program, so a change to the program
cannot move it.
"""

from __future__ import annotations

import bisect
import resource
import signal
import statistics
from time import perf_counter

# Median slice time on the reference machine (2 vCPUs, CPython 3.11.7), so
# that scaled figures read like its typical raw ones.  Slices there range
# from 0.26 ms on an uncontended core to about 0.7 ms.
SLICE_REF_S = 0.00045
# The same for the cache-resident half alone.
CORE_REF_S = 0.00027

_TABLE_SIZE = 1 << 15
_table: dict | None = None
_keys: list | None = None
# Peak resident memory the table added, which the child takes off its own.
table_mb = 0.0


def _build_table():
    global _table, _keys, table_mb
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _keys = [(i % 911, i // 911, i & 7) for i in range(_TABLE_SIZE)]
    _table = {key: i for i, key in enumerate(_keys)}
    table_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024.0


def _core_half():
    acc = {}
    for i in range(250):
        key = (i % 89, i % 7, i % 3)
        acc[key] = acc.get(key, 0) + i
        ordered = tuple(sorted(key, reverse=True))
        if ordered in acc:
            acc[ordered] += 1


def _table_half():
    idx, total = 1, 0
    for _ in range(200):
        idx = (idx * 1103515245 + 12345) & (_TABLE_SIZE - 1)
        key = _keys[idx]
        total += _table[key]
        _table[key] = total & 1023
        ordered = tuple(sorted(key))


def slice_s(with_table: bool = True) -> float:
    """Seconds one slice takes now.

    The slice has two halves: small-dict updates and sorts that stay in
    the core's caches, and random reads and writes in a table larger than
    them.  Contention slows the first about twice as much as the engine's
    library code and the second about half again as much; the sum follows
    the library code's slowdown on all three library workloads.  Start-up
    (set-up probes, CLI calls) follows the first half alone.
    """
    if with_table and _table is None:
        _build_table()
    start = perf_counter()
    _core_half()
    if with_table:
        _table_half()
    return perf_counter() - start


def mark() -> tuple[float, float]:
    """(mid-point time, seconds) of one slice timed now."""
    start = perf_counter()
    seconds = slice_s()
    return start + seconds / 2, seconds


def factor(slices: int = 25, with_table: bool = True) -> float:
    """Slowness right now: median slice time over the reference."""
    ref = SLICE_REF_S if with_table else CORE_REF_S
    return statistics.median(slice_s(with_table) for _ in range(slices)) / ref


def local_factors(spans: list[tuple[float, float]], marks: list[tuple[float, float]],
                  window: float = 0.05) -> list[float]:
    """Slowness during each (start, end) span, from slices given in
    ``marks`` as (time, slice seconds): the median of the slices timed
    within ``window`` seconds of the span, or of the nearest slice."""
    times = [t for t, _ in marks]
    out = []
    for start, end in spans:
        lo = bisect.bisect_left(times, start - window)
        hi = bisect.bisect_right(times, end + window)
        near = [s for _, s in marks[lo:hi]]
        if not near:
            near = [min(marks, key=lambda m: min(abs(m[0] - start), abs(m[0] - end)))[1]]
        out.append(statistics.median(near) / SLICE_REF_S)
    return out


class Sampler:
    """Times a slice every ``interval`` seconds from a SIGALRM handler, so
    that slowness is sampled during long calls too.  ``busy`` is the time
    spent in the handler; callers take it off what they measure."""

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.marks: list[tuple[float, float]] = []
        self.busy = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        self.marks.append(mark())
        self.busy += perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # At least one slice, however short the measured code; it is timed
        # after the code, so it is not part of ``busy``.
        self.marks.append(mark())
