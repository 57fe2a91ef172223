"""Summary statistics shared by run.py and the self-tests."""

from __future__ import annotations

import math
import re
import statistics

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# A tail percentile is only reported when at least this many samples lie
# beyond it, so that one slow outlier cannot set it on its own.
TAIL_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None and len(name) <= 64


def nearest_rank(p: float, n: int) -> int:
    """1-based rank of the p-th percentile among n sorted samples."""
    return max(1, math.ceil(p * n / 100))


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile from 50 to 99 with at least TAIL_BEYOND of
    n samples beyond its nearest rank, or None when no such percentile
    exists (fewer than 2 * TAIL_BEYOND samples)."""
    for p in range(99, 49, -1):
        if n - nearest_rank(p, n) >= TAIL_BEYOND:
            return p
    return None


def percentile(samples, p: float) -> float:
    ordered = sorted(samples)
    return ordered[nearest_rank(p, len(ordered)) - 1]


def tail(samples, n_plan: int) -> tuple[float, int]:
    """(value, percentile) of the latency tail.

    The percentile is fixed by the planned sample count ``n_plan``, not by
    how many samples a run happened to collect, so that every run of a
    workload reports the same percentile.  ``samples`` must hold at least
    ``n_plan`` values.  Below 2 * TAIL_BEYOND planned samples not even the
    median has enough samples beyond it; the tail is then not measurable
    and the median is reported, as percentile 50.
    """
    if len(samples) < n_plan:
        raise ValueError(f"{len(samples)} samples, fewer than the {n_plan} planned")
    p = tail_percentile(n_plan)
    if p is None:
        return statistics.median(samples), 50
    return percentile(samples, p), p


def median(values) -> float:
    return statistics.median(values)

