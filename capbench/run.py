"""Benchmark runner: one workload, one run, one JSON line.

Usage, from the repository root::

    python3 capbench/run.py --workload svc-light --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that reports the per-layer metrics and writes a
Chrome trace. Each run also writes a run record (host record, raw and
probe-corrected times, checks) under ``--out``; ``capbench/compare.py``
compares two such directories. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every checked answer was right.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
for _path in (str(ROOT), str(SRC)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from capbench import host  # noqa: E402
from capbench.stats import median  # noqa: E402
from capbench.units import Outcome, ProbedTimer  # noqa: E402

#: Workload name -> module under ``capbench``.
WORKLOADS = {"svc-light": "svc_light", "solve": "solve", "reproduce": "reproduce"}
#: Every end-to-end metric an untraced run reports, on every workload,
#: with its unit. Each workload measures ``unit_ms``, the median time of
#: its unit of work; the runner measures the other three the same way
#: for all of them.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "unit_ms": "ms",
    "full_answer_share": "share",
    "peak_rss_mb": "MiB",
}
#: Setups measured per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

_MC = ("coding", "sync", "os_model", "network", "faults", "timing")
#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER: Dict[str, str] = {
    "infotheory.ba_calls": "count",
    "infotheory.ba_iterations": "count",
    "infotheory.ba_self_ms": "ms",
    "infotheory.us_per_iteration": "us",
    "infotheory.nonconverged_share": "share",
    "infotheory.straggler_ratio": "ratio",
    **{
        f"numerics.status.{s}": "count"
        for s in ("converged", "max_iter", "stalled", "diverged", "aborted")
    },
    "bounds.sweep_calls": "count",
    "bounds.table_ms": "ms",
    "bounds.sweep_self_ms": "ms",
    "estimation.calls": "count",
    "estimation.optimizer_iterations": "count",
    "estimation.knn_calls": "count",
    "estimation.knn_ms": "ms",
    "estimation.knn_points": "count",
    "store.key_calls": "count",
    "store.key_ms": "ms",
    "store.fetch_calls": "count",
    "store.fetch_ms": "ms",
    "store.put_ms": "ms",
    "store.hit_ratio": "share",
    "store.bytes_read": "bytes",
    "service.normalize_ms": "ms",
    "service.key_ms": "ms",
    "service.submit_self_ms": "ms",
    "service.batches": "count",
    "service.batch_fill": "share",
    "service.coalesced_share": "share",
    "service.queue_depth_peak": "count",
    "service.degraded_or_shed": "count",
    "simulation.pool_calls": "count",
    "simulation.pool_roundtrip_ms": "ms",
    "simulation.pool_payload_bytes": "bytes",
    "simulation.runner_runs": "count",
    "simulation.runner_ms": "ms",
    **{f"experiments.E{i}_ms": "ms" for i in range(1, 18)},
    "experiments.cold_pass_s": "s",
    **{f"{layer}.calls": "count" for layer in _MC},
    **{f"{layer}.self_ms": "ms" for layer in _MC},
    "host.probe_ms": "ms",
    "host.steal_share": "share",
    "trace.spans": "count",
    "trace.overhead": "ratio",
}


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=ROOT / "capbench" / "out" / "records",
        help="directory for run records and traces",
    )
    parser.add_argument(
        "--setup-child", action="store_true",
        help="internal: time one set-up and print it (used by the runner itself)",
    )
    return parser.parse_args(argv)


def _scratch(name: str) -> Path:
    return ROOT / "capbench" / "out" / "tmp" / f"{name}-{os.getpid()}"


def _workload_args(workload: str, timer: ProbedTimer) -> Tuple[Any, ...]:
    if workload == "reproduce":
        return (timer, _scratch("store"))
    return (timer,)


def setup_child(workload: str) -> None:
    """Time import, construction and the first checked answer as one
    probed unit in this fresh process."""

    def setup() -> None:
        module = importlib.import_module(f"capbench.{WORKLOADS[workload]}")
        if workload == "reproduce":
            module.setup_once(_scratch("setup"))
        else:
            module.setup_once()

    _, raw, corrected = ProbedTimer().time(setup)
    print(json.dumps({"raw_s": raw, "setup_s": corrected}))


def measure_setup(workload: str, outcome: Outcome) -> float:
    """Median probe-corrected set-up time over fresh processes, run one
    at a time while this process waits."""
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--setup-child"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        ok = proc.returncode == 0
        outcome.check(ok, f"set-up failed: {proc.stderr.strip()[-500:]}")
        if ok:
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    outcome.record["setup_s_each"] = [r["setup_s"] for r in runs]
    outcome.record["setup_raw_s_each"] = [r["raw_s"] for r in runs]
    return median([r["setup_s"] for r in runs]) if runs else float("nan")


def _merge(outcome: Outcome, part: Outcome) -> None:
    outcome.attempted += part.attempted
    outcome.passed += part.passed
    outcome.failures += part.failures
    outcome.metrics.update(part.metrics)
    outcome.record.update(part.record)


def _pin_environment() -> None:
    """Before a workload loads numpy: one BLAS thread, so the benchmark
    process and the service's one worker stay within two cores, and no
    result store unless a workload opens one. Set-up children and pool
    workers inherit both."""
    for var in host.THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("REPRO_STORE_DIR", None)


def main(argv: List[str]) -> int:
    args = _parse(argv)
    _pin_environment()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"capbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.setup_child:
        setup_child(args.workload)
        return 0

    started = time.time()
    cpu_start = host.cpu_snapshot()
    timer = ProbedTimer()
    timer.probes.append(host.probe_ms())
    module = importlib.import_module(f"capbench.{WORKLOADS[args.workload]}")
    inputs = module.make_inputs(args.seed)
    outcome = Outcome()
    extra = _workload_args(args.workload, timer)
    tracer = None
    if args.trace:
        from capbench.tracer import Tracer

        tracer = Tracer(f"{args.workload}-s{args.seed}")
        _merge(outcome, module.run_traced(inputs, tracer, *extra))
    else:
        setup_s = measure_setup(args.workload, outcome)
        _merge(outcome, module.run(inputs, args.seconds, *extra))
    timer.probes.append(host.probe_ms())
    probe = median(timer.probes)
    steal = host.steal_share(cpu_start, host.cpu_snapshot())

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "full_answer_share": outcome.full_answer_share,
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
            **{name: value for name, (value, _) in outcome.metrics.items()},
        }
        metrics: Dict[str, Tuple[float, str]] = {
            name: (values[name], unit) for name, unit in END_TO_END.items()
        }
    else:
        values = tracer.layer_metrics()
        values.update(outcome.record.pop("layer", {}))
        values["host.probe_ms"] = probe
        values["host.steal_share"] = steal
        values["trace.overhead"] = (
            outcome.record["traced_s"] / outcome.record["untraced_s"] - 1.0
        )
        outcome.record["absent_on_this_workload"] = sorted(
            name for name in PER_LAYER if not values.get(name)
        )
        metrics = {
            name: (float(values.get(name, 0.0)), PER_LAYER[name])
            for name in PER_LAYER
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "commit": host.commit(ROOT),
        "src_digest": host.tree_digest(SRC),
        "inputs_digest": hashlib.sha256(inputs.digest_material()).hexdigest()[:16],
        "host": host.fingerprint(),
        "host.probe_ms": probe,
        "host.probe_samples": len(timer.probes),
        "host.steal_share": steal,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "record": outcome.record,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{int(started)}-{os.getpid()}"
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        tracer.write_chrome_trace(args.out / f"{stem}.trace.json")

    for failure in outcome.failures:
        print(f"capbench: check failed: {failure}", file=sys.stderr)
    correct = outcome.attempted > 0 and outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
