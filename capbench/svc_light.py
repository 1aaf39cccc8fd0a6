"""Workload ``svc-light``: a closed loop against the query service.

Coroutine clients in one event loop drive one
:class:`repro.service.CapacityService` (one worker process, store off)
with the closed-form kinds only — ``estimate``, ``bounds``, ``erasure``
— drawn by the seed from a coarse grid. Each client sends its next
query only when the previous one has reached a terminal status, so a
slower service receives less load. Solver time is negligible: the
front end (normalization, keys, coalescing, admission, batching, pool
pickling and IPC) does nearly all the work.

The timed loop runs in windows of a few seconds with the drift probe
between them (clients drain, the probe runs, the loop resumes), and
each window's latencies and wall time are probe-corrected: on a shared
host the raw service metrics swing with the host's speed.

Every answer is checked against a direct in-process call of the
library function the kind names; the service's code path is not
trusted for the expected value.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.capacity import erasure_upper_bound
from repro.core.estimation import CapacityEstimator
from repro.core.events import ChannelParameters
from repro.core.theorems import capacity_bracket
from repro.service import CapacityService, QueryStatus

from .host import probe_ms
from .stats import median, tail_percentile
from .units import Outcome, ProbedTimer

__all__ = ["Inputs", "make_inputs", "setup_once", "run", "run_traced"]

KINDS = ("estimate", "bounds", "erasure")
DELETIONS = tuple(round(0.05 * i, 2) for i in range(10))
INSERTIONS = (0.0, 0.05, 0.1, 0.15, 0.2)
BITS = (1, 2, 3)
#: Closed-loop client coroutines; below the admission controller's
#: cache-only threshold (0.6 x 128), so no query is shed by design.
CLIENTS = 64
BATCH_SIZE = 32
WORKERS = 1
#: Queries sent before timing, so the worker is forked and warm.
WARMUP_QUERIES = 500
#: Length of one probe-corrected window of the timed loop.
WINDOW_SECONDS = 2.5
#: Length of the seeded query stream (indices wrap past the end).
STREAM_LENGTH = 1 << 17
#: Queries in each phase of a traced run (untraced, then traced).
TRACED_QUERIES = 4000

Query = Dict[str, Any]


class Inputs:
    """The grid, the seeded stream over it, and each point's expected
    answer from a direct library call."""

    def __init__(self, seed: int) -> None:
        self.grid: List[Query] = [
            {"kind": kind, "deletion": pd, "insertion": pi, "bits_per_symbol": n}
            for kind in KINDS
            for pd in DELETIONS
            for pi in INSERTIONS
            for n in BITS
        ]
        rng = random.Random(seed)
        self.stream: List[int] = [
            rng.randrange(len(self.grid)) for _ in range(STREAM_LENGTH)
        ]
        self.expected: List[Dict[str, float]] = [
            expected_answer(q) for q in self.grid
        ]

    def digest_material(self) -> bytes:
        return repr((self.grid, self.stream)).encode()


def make_inputs(seed: int) -> Inputs:
    return Inputs(seed)


def expected_answer(query: Query) -> Dict[str, float]:
    """The answer for *query* from the library function itself."""
    n, pd, pi = query["bits_per_symbol"], query["deletion"], query["insertion"]
    if query["kind"] == "estimate":
        params = ChannelParameters(
            deletion=pd, insertion=pi, transmission=max(0.0, 1.0 - pd - pi)
        )
        report = CapacityEstimator(n).estimate(params)
        return {
            "corrected_capacity": report.corrected_capacity,
            "feedback_lower": report.feedback_lower,
        }
    if query["kind"] == "bounds":
        lower, upper = capacity_bracket(n, pd, pi)
        return {"lower": lower, "upper": upper}
    return {"upper": erasure_upper_bound(n, pd)}


def _full_answer(result: Any, expected: Dict[str, float]) -> bool:
    return (
        result.status in (QueryStatus.OK, QueryStatus.CACHED)
        and result.value == expected
    )


def _new_service() -> CapacityService:
    return CapacityService(workers=WORKERS, batch_size=BATCH_SIZE)


async def _closed_loop(
    service: Any,
    inputs: Inputs,
    outcome: Outcome,
    first: int,
    *,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
) -> Tuple[List[float], float, List[Any]]:
    """Run the closed loop from stream position *first* until *seconds*
    have passed or *count* queries were sent, checking every answer as
    it arrives. Returns the latencies (s), the wall time until the last
    query terminated, and the terminal results when *count* is given
    (a timed loop keeps no result objects)."""
    latencies: List[float] = []
    results: List[Any] = []
    cursor = first
    t_start = time.perf_counter()
    stop_at = None if seconds is None else t_start + seconds
    end = None if count is None else first + count

    async def client() -> None:
        nonlocal cursor
        while True:
            if end is not None and cursor >= end:
                return
            if stop_at is not None and time.perf_counter() >= stop_at:
                return
            position = cursor
            cursor += 1
            index = inputs.stream[position % STREAM_LENGTH]
            t0 = time.perf_counter()
            result = await service.submit(
                inputs.grid[index], query_id=f"c{position}"
            )
            latencies.append(time.perf_counter() - t0)
            if count is not None:
                results.append(result)
            ok = _full_answer(result, inputs.expected[index])
            outcome.check(ok, "" if ok else (
                f"{inputs.grid[index]} -> {result.status.value} {result.value}"
            ))

    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    return latencies, time.perf_counter() - t_start, results


def setup_once() -> None:
    """Import, construct, start, and answer one checked query."""
    query = {"kind": "bounds", "deletion": 0.1, "insertion": 0.05,
             "bits_per_symbol": 2}

    async def main() -> None:
        async with _new_service() as service:
            result = await service.submit(query, query_id="setup")
            if not _full_answer(result, expected_answer(query)):
                raise RuntimeError(f"setup answer wrong: {result}")

    asyncio.run(main())


def run(inputs: Inputs, seconds: float, timer: ProbedTimer) -> Outcome:
    """The untraced run: warm up, then probe-corrected windows of the
    closed loop until *seconds* have passed."""
    outcome = Outcome()
    raw_ms: List[float] = []
    corrected_ms: List[float] = []
    raw_s = corrected_s = 0.0

    async def main() -> Dict[str, Any]:
        nonlocal raw_s, corrected_s
        async with _new_service() as service:
            await _closed_loop(service, inputs, outcome, 0, count=WARMUP_QUERIES)
            position = WARMUP_QUERIES
            stop_at = time.perf_counter() + seconds
            while time.perf_counter() < stop_at:
                before = probe_ms()
                t0 = time.perf_counter()
                latencies, elapsed, _ = await _closed_loop(
                    service, inputs, outcome, position,
                    seconds=min(WINDOW_SECONDS, stop_at - t0),
                )
                corrected = timer.note(t0, elapsed, before, probe_ms())
                factor = corrected / elapsed
                position += len(latencies)
                raw_s += elapsed
                corrected_s += corrected
                raw_ms.extend(t * 1e3 for t in latencies)
                corrected_ms.extend(t * 1e3 * factor for t in latencies)
        return service.stats_snapshot()

    snapshot = asyncio.run(main())
    pct, tail, beyond = tail_percentile(corrected_ms)
    outcome.metrics["unit_ms"] = (median(corrected_ms), "ms")
    outcome.record.update(
        qps=len(corrected_ms) / corrected_s,
        tail_ms=tail,
        queries=len(corrected_ms),
        windows=len(timer.log),
        elapsed_s=raw_s,
        qps_raw=len(raw_ms) / raw_s,
        p50_raw_ms=median(raw_ms),
        tail_raw_ms=tail_percentile(raw_ms)[1],
        p999_ms=sorted(corrected_ms)[int(0.999 * len(corrected_ms))],
        tail_percentile=pct,
        tail_samples=len(corrected_ms),
        tail_samples_beyond=beyond,
        service_stats=snapshot,
    )
    return outcome


def run_traced(inputs: Inputs, tracer: Any, timer: ProbedTimer) -> Outcome:
    """The traced run: the same query slice untraced, then traced. The
    phases are compared with each other, so *timer* takes no probes."""
    outcome = Outcome()
    first = WARMUP_QUERIES

    async def main() -> None:
        async with _new_service() as service:
            await _closed_loop(service, inputs, outcome, 0, count=WARMUP_QUERIES)
            _, plain_s, _ = await _closed_loop(
                service, inputs, outcome, first, count=TRACED_QUERIES
            )
            before = service.stats_snapshot()
            with tracer.active():
                _, traced_s, results = await _closed_loop(
                    service, inputs, outcome, first, count=TRACED_QUERIES
                )
            after = service.stats_snapshot()
        dispatched = after["batches"] - before["batches"]
        statuses = [r.status.value for r in results]
        outcome.record["layer"] = {
            "service.batches": dispatched,
            "service.batch_fill": (
                sum(1 for r in results if r.source == "solver")
                / (dispatched * BATCH_SIZE)
                if dispatched else 0.0
            ),
            "service.coalesced_share": sum(
                1 for r in results if r.source == "inflight"
            ) / len(results),
            "service.queue_depth_peak": after["queue_depth_peak"],
            "service.degraded_or_shed": statuses.count("degraded")
            + statuses.count("shed"),
        }
        outcome.record.update(untraced_s=plain_s, traced_s=traced_s)

    asyncio.run(main())
    return outcome
