"""Host record: the drift probe, steal share, fingerprint and digests.

The probe is a fixed pure-Python loop. Timed right before and right
after a CPU-bound unit in the same process, and at intervals inside it
(:class:`capbench.units.ProbedTimer`), it measures how fast this core
runs Python *now*; :func:`capbench.stats.sampled_corrected` rescales
the unit's wall time by it. A probe on another core does not track the
workload, so it always runs interleaved, never concurrently.
"""

from __future__ import annotations

import hashlib
import os
import platform
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

__all__ = [
    "PROBE_LOOPS",
    "REFERENCE_PROBE_MS",
    "THREAD_VARS",
    "probe_ms",
    "probe_once_ms",
    "cpu_snapshot",
    "steal_share",
    "fingerprint",
    "tree_digest",
    "commit",
]

#: Iterations of one probe loop (about 2.2 ms on a 2-vCPU cloud host).
PROBE_LOOPS = 7_500
#: Probe time that a probe-corrected duration is scaled to: corrected
#: times read as if every unit ran while the probe took this long.
REFERENCE_PROBE_MS = 2.2
_PROBE_REPEATS = 3

#: BLAS/OpenMP thread-count variables; `run.py` pins each to 1.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _probe_loop(n: int) -> int:
    # Integer arithmetic, one tuple allocated and one store into a
    # 4096-slot table per step: with the allocation and the table the
    # probe tracked the Monte-Carlo and solver units better than with
    # arithmetic alone.
    table = {}
    acc = 0
    for i in range(n):
        acc = (acc + i * i) % 1_000_003
        table[i & 4095] = (acc, i)
    return acc + len(table)


def probe_ms() -> float:
    """Fastest of three timings of the fixed loop, in milliseconds.

    The minimum drops the odd interrupt that lands inside one timing;
    a host that is slower throughout raises all three.
    """
    best = float("inf")
    for _ in range(_PROBE_REPEATS):
        t0 = time.perf_counter()
        _probe_loop(PROBE_LOOPS)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def probe_once_ms() -> float:
    """One timing of the fixed loop, in milliseconds (taken inside a
    unit, where three in a row would cost too much)."""
    t0 = time.perf_counter()
    _probe_loop(PROBE_LOOPS)
    return (time.perf_counter() - t0) * 1e3


CpuTimes = Tuple[int, int]


def cpu_snapshot() -> Optional[CpuTimes]:
    """``(steal, total)`` jiffies from the aggregate ``/proc/stat`` line,
    or ``None`` where the file is missing."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    values = [int(v) for v in fields[1:]]
    # guest and guest_nice are already counted in user and nice.
    total = sum(values[:8])
    steal = values[7] if len(values) > 7 else 0
    return steal, total


def steal_share(start: Optional[CpuTimes], end: Optional[CpuTimes]) -> float:
    """Share of host CPU time stolen by the hypervisor between two
    :func:`cpu_snapshot` readings (0 when ``/proc/stat`` is missing)."""
    if start is None or end is None or end[1] <= start[1]:
        return 0.0
    return (end[0] - start[0]) / (end[1] - start[1])


def fingerprint() -> Dict[str, object]:
    """What a reader needs to know the two run sets ran alike."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def tree_digest(root: Path) -> str:
    """sha256 over every file under *root* (path and bytes), skipping
    byte-code caches, so two checkouts of one commit digest alike."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()[:16]


def commit(repo_root: Path) -> str:
    """The checked-out commit read from ``.git`` (no subprocess), or
    ``"unknown"`` in an export that carries no git metadata."""
    git = repo_root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = git / "packed-refs"
        for line in packed.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return "unknown"
