"""Workload ``reproduce``: ``run_all`` over E1-E17 against a fresh store.

One cold pass fills a store made for this run; its time is kept only
as the per-layer ``experiments.cold_pass_s``. Warm passes follow until
``--seconds`` have passed (at least two). A warm pass replays memoized
solves as store reads and re-runs the Monte-Carlo layers (``coding``,
``sync``, ``os_model``, ``network``, ``faults``, the ``simulation``
runner) that no other workload touches.

A pass calls each runner of :data:`repro.experiments.EXPERIMENTS` with
no arguments, which is what ``run_all()`` does, one experiment per
probe-corrected unit. The experiments keep their default seeds:
passing a seed changes how much work they do (``run_all(seed=7)``
warm passes take 52 s against 6 s at ``seed=0``), so the run seed only
orders each warm pass's experiments. Every experiment must pass, and
every warm result must equal its cold result.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List

from repro.experiments import EXPERIMENTS
from repro.store import ResultStore, use_store

from .stats import median
from .units import Outcome, ProbedTimer

__all__ = ["Inputs", "make_inputs", "setup_once", "run", "run_traced"]

#: Warm passes a run makes at least, however short ``--seconds`` is.
MIN_WARM_PASSES = 2


def _order(key: str) -> int:
    return int(key[1:])


class Inputs:
    """Experiment ids in ``run_all`` order, and the seeded warm orders."""

    def __init__(self, seed: int) -> None:
        self.ids: List[str] = sorted(EXPERIMENTS, key=_order)
        self._rng = random.Random(seed)

    def warm_order(self) -> List[str]:
        order = list(self.ids)
        self._rng.shuffle(order)
        return order

    def digest_material(self) -> bytes:
        return repr(self.ids).encode()


def make_inputs(seed: int) -> Inputs:
    return Inputs(seed)


def _run_experiment(key: str) -> Any:
    # Looked up per call, so a traced run sees the traced registry entry.
    return EXPERIMENTS[key]()


def _canonical(result: Any) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _fresh_store(scratch: Path) -> ResultStore:
    if scratch.exists():
        shutil.rmtree(scratch)
    return ResultStore(scratch)


def setup_once(scratch: Path) -> None:
    """Open a fresh store and run E1 cold to a checked pass."""
    try:
        with use_store(_fresh_store(scratch)):
            result = _run_experiment("E1")
        if not result.passed:
            raise RuntimeError("setup answer wrong: E1 did not pass")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


class _Passes:
    """Cold results and the per-pass unit times of one store."""

    def __init__(self, inputs: Inputs, outcome: Outcome, timer: ProbedTimer):
        self.inputs, self.outcome, self.timer = inputs, outcome, timer
        self.cold: Dict[str, str] = {}

    def cold_pass(self) -> float:
        t0 = time.perf_counter()
        for key in self.inputs.ids:
            result = _run_experiment(key)
            self.cold[key] = _canonical(result)
            self.outcome.check(bool(result.passed), f"{key} cold pass failed")
        return time.perf_counter() - t0

    def warm_pass(self, timed: bool = True) -> Dict[str, List[float]]:
        """One warm pass; ``{id: [raw_s, corrected_s]}``."""
        units: Dict[str, List[float]] = {}
        for key in self.inputs.warm_order():
            if timed:
                result, raw, corrected = self.timer.time(
                    lambda: _run_experiment(key)
                )
                units[key] = [raw, corrected]
                self.outcome.record.setdefault("unit_log", []).append(
                    (key,) + self.timer.log[-1]
                )
            else:
                result = _run_experiment(key)
            self.outcome.check(
                bool(result.passed) and _canonical(result) == self.cold[key],
                f"{key} warm result failed or differs from its cold result",
            )
        return units


def run(inputs: Inputs, seconds: float, timer: ProbedTimer, scratch: Path) -> Outcome:
    """The untraced run: one cold pass, then warm passes for *seconds*."""
    outcome = Outcome()
    passes = _Passes(inputs, outcome, timer)
    warm: List[Dict[str, List[float]]] = []
    try:
        with use_store(_fresh_store(scratch)):
            outcome.record["cold_pass_s"] = passes.cold_pass()
            stop_at = time.perf_counter() + seconds
            while len(warm) < MIN_WARM_PASSES or time.perf_counter() < stop_at:
                warm.append(passes.warm_pass())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    corrected = [sum(u[1] for u in p.values()) for p in warm]
    raw = [sum(u[0] for u in p.values()) for p in warm]
    each = {key: median([p[key][1] for p in warm]) for key in inputs.ids}
    slowest = max(each, key=each.get)
    outcome.metrics["unit_ms"] = (median(corrected) * 1e3, "ms")
    outcome.record.update(
        warm_passes=len(warm), warm_s=median(corrected), warm_raw_s=median(raw),
        warm_pass_s=corrected, slowest_experiment=slowest,
        slowest_experiment_ms=each[slowest] * 1e3,
    )
    return outcome


def run_traced(
    inputs: Inputs, tracer: Any, timer: ProbedTimer, scratch: Path
) -> Outcome:
    """The traced run: cold pass, one warm pass untraced, one traced."""
    outcome = Outcome()
    passes = _Passes(inputs, outcome, timer)
    try:
        with use_store(_fresh_store(scratch)):
            outcome.record["layer"] = {
                "experiments.cold_pass_s": passes.cold_pass()
            }
            t0 = time.perf_counter()
            passes.warm_pass(timed=False)
            untraced = time.perf_counter() - t0
            t0 = time.perf_counter()
            with tracer.active():
                passes.warm_pass(timed=False)
            traced = time.perf_counter() - t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    outcome.record.update(untraced_s=untraced, traced_s=traced)
    return outcome
