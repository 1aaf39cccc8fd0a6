"""Outside-in tracer for the benchmark's traced runs.

The tracer wraps public functions and methods of the ``repro``
subpackages, at every binding site, for the length of a
:meth:`Tracer.active` block, then restores the originals. Each call
becomes a span ``(id, layer, start, end, parent, thread, data)`` kept in
memory; :meth:`Tracer.write_chrome_trace` writes them once, at the end,
as Chrome trace-event JSON (open it in Perfetto or chrome://tracing).

Parents follow a context variable, so spans of concurrent coroutines
nest under their own task. Work inside pool worker processes is not
traced; the parent-side ``simulation.pool`` span covers it.

Only traced runs of ``run.py`` import this module: untraced runs load no
tracer and pay nothing for it.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import pickle
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .stats import self_time

__all__ = ["FUNCTIONS", "METHODS", "MC_LAYERS", "Tracer"]

Span = Tuple[int, str, float, float, int, int, Optional[Dict[str, Any]]]
DataFn = Callable[[tuple, dict, Any], Optional[Dict[str, Any]]]


def _ba_scalar(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    bad = result.status.value in ("max_iter", "stalled")
    return {"iters": [int(result.iterations)], "nonconverged": int(bad)}


def _ba_batch(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    statuses = [s.value for s in result.statuses]
    return {
        "iters": [int(i) for i in result.iterations],
        "nonconverged": statuses.count("max_iter") + statuses.count("stalled"),
        "batched": True,
    }


def _ba_penalized(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {
        "iters": [int(i) for i in result.iterations],
        "nonconverged": int((~result.converged).sum()),
        "batched": True,
    }


def _estimate(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"iters": [int(result.iterations)]}


def _knn(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"points": int(len(args[0]))}


def _fetch(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    if result is None:
        return {"hit": False, "bytes": 0}
    return {"hit": True, "bytes": int(result[1].nbytes)}


def _pool(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    # args = (pool, fn, *fn_args): the bytes the pool pickles per task.
    return {"payload": len(pickle.dumps(args[1:]))}


#: ``(layer, module, function, data)``: module-level functions, wrapped
#: in every module that binds them.
FUNCTIONS: Tuple[Tuple[str, str, str, Optional[DataFn]], ...] = (
    ("infotheory", "repro.infotheory.blahut_arimoto", "blahut_arimoto", _ba_scalar),
    ("infotheory", "repro.infotheory.blahut_arimoto", "blahut_arimoto_guarded",
     _ba_scalar),
    ("infotheory", "repro.infotheory.kernels", "blahut_arimoto_batch", _ba_batch),
    ("infotheory", "repro.infotheory.kernels", "penalized_blahut_arimoto_batch",
     _ba_penalized),
    ("bounds.table", "repro.bounds.indel", "indel_block_transition_stack", None),
    ("bounds.table", "repro.bounds.deletion", "deletion_block_transition_stack",
     None),
    ("bounds.sweep", "repro.bounds.indel", "indel_block_bound_sweep", None),
    ("bounds.sweep", "repro.bounds.deletion", "block_bound_sweep", None),
    ("estimation", "repro.estimation.optimize", "estimate_sample_capacity",
     _estimate),
    ("estimation.knn", "repro.estimation.knn", "mixed_mutual_information", _knn),
    ("estimation.knn", "repro.estimation.knn", "ksg_mutual_information", _knn),
    # The optimizer scores inputs through the per-sample form.
    ("estimation.knn", "repro.estimation.knn", "mixed_mi_contributions", _knn),
    ("store.key", "repro.store.keys", "canonical_key", None),
    ("service.normalize", "repro.service.query", "normalize_query", None),
    ("service.key", "repro.service.query", "query_key", None),
    ("network", "repro.network.packet_channel", "transmit_flow", None),
    ("faults", "repro.faults.injector", "run_under_faults", None),
    ("timing", "repro.timing.timed_dmc", "timed_dmc_capacity", None),
)

#: ``(layer, module, class, method, data)``: wrapped on the class and on
#: every loaded subclass that overrides the method.
METHODS: Tuple[Tuple[str, str, str, str, Optional[DataFn]], ...] = (
    ("store.fetch", "repro.store.result_store", "ResultStore", "fetch", _fetch),
    ("store.put", "repro.store.result_store", "ResultStore", "put", None),
    ("service.submit", "repro.service.service", "CapacityService", "submit", None),
    ("simulation.pool", "repro.simulation.pool", "SupervisedPool", "run", _pool),
    ("simulation.runner", "repro.simulation.runner", "ExperimentRunner", "run",
     None),
    ("coding", "repro.coding.forward_backward", "DriftChannelModel", "decode",
     None),
    ("coding", "repro.coding.iterative", "IterativeWatermarkCode",
     "simulate_frame", None),
    ("sync", "repro.sync.protocols", "SynchronizationProtocol", "run", None),
    ("os_model", "repro.os_model.kernel", "UniprocessorKernel", "run", None),
)

#: Monte-Carlo layers reported as ``<layer>.calls`` and ``<layer>.self_ms``.
MC_LAYERS = ("coding", "sync", "os_model", "network", "faults", "timing")

_EXPERIMENT_IDS = tuple(f"E{i}" for i in range(1, 18))


def _data(span: Span) -> Dict[str, Any]:
    return span[6] or {}


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if klass not in found:
            found.append(klass)
            todo.extend(klass.__subclasses__())
    return found


class Tracer:
    """Spans in memory plus the solver-status and store-event counts
    observed while :meth:`active`."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.statuses: Dict[str, int] = defaultdict(int)
        self.store_events: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "capbench_span", default=0
        )
        self._undo: List[Tuple[Any, str, Any]] = []
        self._origin = time.perf_counter()

    # ------------------------------------------------------------------
    # wrapping

    def _wrap(
        self, layer: str, fn: Callable[..., Any], data_fn: Optional[DataFn],
        extra: Optional[Dict[str, Any]] = None,
    ) -> Callable[..., Any]:
        spans, ids, current = self.spans, self._ids, self._current

        def record(sid: int, parent: int, t0: float, args: tuple, kwargs: dict,
                   result: Any, error: Optional[str] = None) -> None:
            t1 = time.perf_counter()
            data = dict(extra) if extra else {}
            if error is not None:
                data["error"] = error
            elif data_fn is not None:
                data.update(data_fn(args, kwargs, result))
            spans.append(
                (sid, layer, t0, t1, parent, threading.get_ident(), data or None)
            )

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                sid, parent = next(ids), current.get()
                token = current.set(sid)
                t0 = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                except BaseException as exc:
                    current.reset(token)
                    record(sid, parent, t0, args, kwargs, None, type(exc).__name__)
                    raise
                current.reset(token)
                record(sid, parent, t0, args, kwargs, result)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid, parent = next(ids), current.get()
            token = current.set(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                current.reset(token)
                record(sid, parent, t0, args, kwargs, None, type(exc).__name__)
                raise
            current.reset(token)
            record(sid, parent, t0, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every binding site."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        replace: Dict[int, Any] = {}
        for layer, module, name, data_fn in FUNCTIONS:
            original = getattr(importlib.import_module(module), name)
            replace[id(original)] = self._wrap(layer, original, data_fn)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, value))
        for layer, module, cls_name, method, data_fn in METHODS:
            base = getattr(importlib.import_module(module), cls_name)
            for klass in _subclasses(base):
                original = klass.__dict__.get(method)
                if original is None:
                    continue
                setattr(klass, method, self._wrap(layer, original, data_fn))
                self._undo.append((klass, method, original))
        registry = importlib.import_module("repro.experiments.registry")
        for key in _EXPERIMENT_IDS:
            original = registry.EXPERIMENTS[key]
            registry.EXPERIMENTS[key] = self._wrap(
                "experiments", original, None, {"id": key}
            )
            self._undo.append((registry.EXPERIMENTS, key, original))

    def uninstall(self) -> None:
        """Restore every original, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self) -> Iterator["Tracer"]:
        """Trace the block; count solver statuses and store events."""
        from repro.numerics import collect_solver_statuses, collect_store_events

        self.install()
        try:
            with collect_solver_statuses() as statuses, \
                    collect_store_events() as events:
                yield self
        finally:
            self.uninstall()
        for key, count in statuses.items():
            self.statuses[key] += count
        for key, count in events.items():
            self.store_events[key] += count

    # ------------------------------------------------------------------
    # analysis

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics from the spans and the counters."""
        by_layer: Dict[str, List[Span]] = defaultdict(list)
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            by_layer[span[1]].append(span)
            children[span[4]].append(span)

        def total_ms(layer: str) -> float:
            return sum(s[3] - s[2] for s in by_layer[layer]) * 1e3

        def self_ms(layer: str) -> float:
            return sum(
                self_time((s[2], s[3]), [(c[2], c[3]) for c in children[s[0]]])
                for s in by_layer[layer]
            ) * 1e3

        def descendants(span: Span) -> Iterator[Span]:
            todo = list(children[span[0]])
            while todo:
                child = todo.pop()
                yield child
                todo.extend(children[child[0]])

        def data_sum(layer: str, key: str) -> float:
            return sum(_data(s).get(key, 0) for s in by_layer[layer])

        def computed(span: Span) -> bool:
            # A result replayed from the store carries the iteration count
            # of the solve that stored it; this call ran none.
            return not any(
                c[1] == "store.fetch" and _data(c).get("hit")
                for c in descendants(span)
            )

        m: Dict[str, float] = {}

        # infotheory: iterations and statuses come from the innermost
        # solve of each call that was not answered from the store.
        solves = [
            span[6]
            for span in by_layer["infotheory"]
            if "iters" in _data(span)
            and computed(span)
            and not any(c[1] == "infotheory" for c in descendants(span))
        ]
        iterations = sum(sum(d["iters"]) for d in solves)
        channels = sum(len(d["iters"]) for d in solves)
        ba_self = self_ms("infotheory")
        m["infotheory.ba_calls"] = len(by_layer["infotheory"])
        m["infotheory.ba_iterations"] = iterations
        m["infotheory.ba_self_ms"] = ba_self
        m["infotheory.us_per_iteration"] = (
            ba_self * 1e3 / iterations if iterations else 0.0
        )
        m["infotheory.nonconverged_share"] = (
            sum(d["nonconverged"] for d in solves) / channels if channels else 0.0
        )
        ratios = [
            max(d["iters"]) / statistics.median(d["iters"])
            for d in solves
            if d.get("batched") and d["iters"] and statistics.median(d["iters"])
        ]
        m["infotheory.straggler_ratio"] = max(ratios) if ratios else 0.0

        for status in ("converged", "max_iter", "stalled", "diverged", "aborted"):
            m[f"numerics.status.{status}"] = sum(
                n for k, n in self.statuses.items() if k.endswith(f":{status}")
            )

        m["bounds.sweep_calls"] = len(by_layer["bounds.sweep"])
        m["bounds.table_ms"] = total_ms("bounds.table")
        m["bounds.sweep_self_ms"] = self_ms("bounds.sweep")

        m["estimation.calls"] = len(by_layer["estimation"])
        m["estimation.optimizer_iterations"] = sum(
            sum(_data(s).get("iters", ())) for s in by_layer["estimation"]
            if computed(s)
        )
        m["estimation.knn_calls"] = len(by_layer["estimation.knn"])
        m["estimation.knn_ms"] = total_ms("estimation.knn")
        m["estimation.knn_points"] = data_sum("estimation.knn", "points")

        hits = sum(n for k, n in self.store_events.items() if k.endswith(":hit"))
        misses = sum(n for k, n in self.store_events.items() if k.endswith(":miss"))
        m["store.key_calls"] = len(by_layer["store.key"])
        m["store.key_ms"] = total_ms("store.key")
        m["store.fetch_calls"] = len(by_layer["store.fetch"])
        m["store.fetch_ms"] = total_ms("store.fetch")
        m["store.put_ms"] = total_ms("store.put")
        m["store.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        m["store.bytes_read"] = data_sum("store.fetch", "bytes")

        m["service.normalize_ms"] = total_ms("service.normalize")
        m["service.key_ms"] = total_ms("service.key")
        m["service.submit_self_ms"] = self_ms("service.submit")

        m["simulation.pool_calls"] = len(by_layer["simulation.pool"])
        m["simulation.pool_roundtrip_ms"] = total_ms("simulation.pool")
        m["simulation.pool_payload_bytes"] = data_sum("simulation.pool", "payload")
        m["simulation.runner_runs"] = len(by_layer["simulation.runner"])
        m["simulation.runner_ms"] = total_ms("simulation.runner")

        for key in _EXPERIMENT_IDS:
            m[f"experiments.{key}_ms"] = sum(
                (s[3] - s[2]) * 1e3
                for s in by_layer["experiments"]
                if s[6]["id"] == key
            )

        for layer in MC_LAYERS:
            m[f"{layer}.calls"] = len(by_layer[layer])
            m[f"{layer}.self_ms"] = self_ms(layer)

        m["trace.spans"] = len(self.spans)
        return m

    def write_chrome_trace(self, path: Path) -> None:
        """All spans as Chrome trace-event JSON ("X" complete events)."""
        pid = os.getpid()
        events = [
            {
                "name": layer,
                "cat": layer.split(".")[0],
                "ph": "X",
                "ts": (t0 - self._origin) * 1e6,
                "dur": (t1 - t0) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {"id": sid, "parent": parent, "run": self.run_id,
                         **(data or {})},
            }
            for sid, layer, t0, t1, parent, tid, data in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
        )
