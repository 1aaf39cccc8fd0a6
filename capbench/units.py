"""Unit bookkeeping shared by the workloads: probed timing and checks."""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from .host import REFERENCE_PROBE_MS, probe_ms, probe_once_ms
from .stats import probe_corrected, sampled_corrected

__all__ = ["ProbedTimer", "Outcome"]

#: Failure descriptions kept in a run record (the count is always exact).
_MAX_FAILURES_KEPT = 20
#: Wall time between the probes taken inside one unit. One probe costs
#: about 2 ms, so they add about 2% to a unit and are taken out of its
#: raw time.
SAMPLE_INTERVAL_S = 0.1


class _ProbesInside:
    """Probe the host every :data:`SAMPLE_INTERVAL_S` while a unit runs.

    ``SIGALRM`` runs the handler in this process's main thread between
    two bytecodes of the unit, so the probe runs on the core the unit
    runs on. The host switches speed on a scale of seconds, so the
    probes before and after a multi-second unit miss what it saw.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        self.busy_s = 0.0

    def _handler(self, signum: int, frame: Any) -> None:
        t0 = time.perf_counter()
        self.probes.append(probe_once_ms())
        self.busy_s += time.perf_counter() - t0

    def __enter__(self) -> "_ProbesInside":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class ProbedTimer:
    """Times CPU-bound units with the drift probe interleaved.

    :meth:`time` runs the probe right before and right after the unit
    and every :data:`SAMPLE_INTERVAL_S` inside it, in this process, and
    returns the raw wall time (without the probes inside) together with
    the corrected one (:func:`sampled_corrected`). The probes before and
    after each unit are kept for the host record's ``host.probe_ms``.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        #: ``(start, raw_s, probe_before_ms, probe_after_ms,
        #: probes_inside, corrected_s)`` per unit.
        self.log: List[Tuple[float, float, float, float, int, float]] = []

    def time(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """``(result, raw_seconds, corrected_seconds)`` of ``fn()``."""
        before = probe_ms()
        with _ProbesInside() as inside:
            t0 = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - t0
        after = probe_ms()
        raw = wall - inside.busy_s
        corrected = sampled_corrected(
            raw, [before, *inside.probes, after], REFERENCE_PROBE_MS
        )
        self.probes += [before, after]
        self.log.append((t0, raw, before, after, len(inside.probes), corrected))
        return result, raw, corrected

    def note(self, start: float, raw: float, before: float, after: float) -> float:
        """Log one unit timed elsewhere; return its corrected seconds."""
        corrected = probe_corrected(raw, before, after, REFERENCE_PROBE_MS)
        self.probes += [before, after]
        self.log.append((start, raw, before, after, 0, corrected))
        return corrected


@dataclass
class Outcome:
    """What one workload run produced.

    ``attempted``/``passed`` count checked units; ``metrics`` maps a
    metric name to ``(value, unit)``; ``record`` carries everything
    else the run record keeps (raw times, sample counts, percentiles).
    """

    attempted: int = 0
    passed: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    record: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Count one unit's answer; remember *what* when it failed."""
        self.attempted += 1
        if ok:
            self.passed += 1
        elif len(self.failures) < _MAX_FAILURES_KEPT:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return self.attempted - self.passed

    @property
    def full_answer_share(self) -> float:
        return self.passed / self.attempted if self.attempted else 0.0
