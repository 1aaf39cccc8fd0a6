"""Pure arithmetic of the benchmark: quantiles, tails, probe correction,
span self time and the comparer's verdicts.

Nothing here reads a clock or imports the program under test, so the
self-tests in ``test_capbench.py`` pin every formula exactly.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Sequence, Tuple

__all__ = [
    "TAIL_LADDER",
    "MIN_BEYOND",
    "median",
    "quartiles",
    "spread",
    "tail_percentile",
    "probe_corrected",
    "sampled_corrected",
    "self_time",
    "verdict",
]

#: Percentiles tried for the tail, highest first. The ladder stops at
#: 99: on a shared 2-vCPU host the 99.9th percentile of a 25 s service
#: run is set by its two or three worst scheduling stalls and did not
#: repeat (quartile spread 0.28-0.40 of the median over sets of 10 runs,
#: against 0.12-0.17 for the 99th), and a fixed top rung keeps the
#: percentile from flipping when a faster build completes more queries.
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (its default ``exclusive`` method); a single value is
    its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile of :data:`TAIL_LADDER` that leaves at
    least :data:`MIN_BEYOND` samples strictly beyond its rank.

    Nearest-rank definition: percentile ``p`` of ``n`` sorted samples is
    the sample at 1-based rank ``ceil(p * n / 100)``, which leaves
    ``n - rank`` samples beyond it. Returns ``(p, value, beyond)``.
    With too few samples for any rung the median is returned, and
    ``beyond`` shows the reader how few samples back it.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("tail of no samples")
    ordered = sorted(samples)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p * n / 100.0))
        if n - rank >= MIN_BEYOND:
            return p, float(ordered[rank - 1]), n - rank
    rank = max(1, math.ceil(0.5 * n))
    return 50.0, float(ordered[rank - 1]), n - rank


def probe_corrected(
    wall: float, probe_before: float, probe_after: float, reference: float
) -> float:
    """Wall time rescaled to the reference host speed.

    ``wall * reference / mean(probe_before, probe_after)``: a unit that
    ran while the host was slow (the probe took longer than its
    reference time) is scaled down by the same factor.
    """
    mean_probe = 0.5 * (probe_before + probe_after)
    if mean_probe <= 0 or reference <= 0:
        raise ValueError("probe times must be positive")
    return wall * reference / mean_probe


def sampled_corrected(
    wall: float, probes: Sequence[float], reference: float
) -> float:
    """Wall time rescaled by the host speed averaged over the unit.

    ``wall * reference * mean(1 / p for p in probes)``, for probe times
    taken at even intervals through the unit: ``1 / p`` is the speed a
    probe saw, so a unit that spent part of its time on a slow host is
    scaled by the mean speed over its whole span, not by its endpoints.
    """
    if not probes or min(probes) <= 0 or reference <= 0:
        raise ValueError("probe times must be positive")
    return wall * reference * sum(1.0 / p for p in probes) / len(probes)


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(
    span: Tuple[float, float], children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the union of its children's intervals,
    each child clipped to the span (children may overlap each other,
    as concurrent coroutines' spans do)."""
    start, end = span
    clipped: List[Tuple[float, float]] = [
        (max(start, c0), min(end, c1)) for c0, c1 in children
    ]
    return (end - start) - _union_length(clipped)


def verdict(
    base: Sequence[float],
    new: Sequence[float],
    bound: float,
    better: str,
) -> str:
    """Judge run set *new* against run set *base* for one metric.

    * ``unresolved`` — either side's quartile spread exceeds *bound*,
      unless every new run beats (or loses to) every base run;
    * ``worse`` — the median moved the wrong way by more than *bound*;
    * ``better`` — the median moved the right way by more than the
      base's own spread, and at least nine tenths of all (new, base)
      pairs favour new;
    * ``same`` — otherwise.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    m_base, m_new = median(base), median(new)
    if m_base == 0:
        raise ValueError("base median is 0; no relative change")
    # Positive = worse, in the metric's own direction.
    change = sign * (m_new - m_base) / abs(m_base)
    wins = sum(1 for b in base for x in new if sign * (x - b) < 0)
    losses = sum(1 for b in base for x in new if sign * (x - b) > 0)
    pairs = len(base) * len(new)
    if max(spread(base), spread(new)) > bound:
        if wins == pairs:
            return "better"
        if losses == pairs:
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > spread(base) and wins >= 0.9 * pairs:
        return "better"
    return "same"
