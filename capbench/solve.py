"""Workload ``solve``: an in-process stream of solver calls.

Store off, no pool. Three unit families, all CPU-bound in this process
and so timed with the drift probe interleaved (:class:`ProbedTimer`):

* ``ba``: scalar :func:`repro.infotheory.blahut_arimoto` at
  ``tol=1e-9``, one unit per channel of the seeded 48-channel random
  8x10 stack of ``benchmarks/test_bench_kernels.py`` (its stragglers end
  ``MAX_ITER`` or ``STALLED``);
* ``block``: single-point :func:`repro.bounds.indel_block_bound_sweep`
  calls at the service's block shape, over a ``(P_d, P_i)`` grid that
  keeps the slow corner ``(0.3, 0.1)``;
* ``sample``: :func:`repro.estimation.estimate_sample_capacity` on the
  ``bsc``, ``mary`` and ``scheduler`` reference samplers.

The unit set is fixed so that every run measures the same work; the
seed orders the units within each cycle. A run repeats cycles until
``--seconds`` have passed and every unit has run once; each unit's
time is the median of its repeats, and a pass is the sum of its units.

Checks recompute each answer by a path the solver does not share:
the BA duality bound from the returned input, the block bound's
Theorem-1 upper edge, and closed-form capacities for the DMC samplers.
"""

from __future__ import annotations

import math
import random
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

import numpy as np
from repro.bounds.indel import indel_block_bound_sweep
from repro.estimation import (
    SchedulerTimingSampler,
    bsc_sampler,
    estimate_sample_capacity,
    mary_sampler,
)
from repro.infotheory.blahut_arimoto import blahut_arimoto
from repro.service.workers import (
    BLOCK_BOUND_LENGTH,
    BLOCK_BOUND_MAX_EXTRA,
    SAMPLE_CAPACITY_K,
    SAMPLE_CAPACITY_SEED,
    SCHEDULER_BURSTS,
)

from .stats import median
from .units import Outcome, ProbedTimer

__all__ = ["Inputs", "make_inputs", "setup_once", "run", "run_traced"]

#: The kernel benchmark's stack: 48 random 8x10 channels from seed 6.
STACK_SEED = 6
CHANNELS, NX, NY = 48, 8, 10
BA_TOL = 1e-9
GRID = tuple((pd, pi) for pd in (0.0, 0.1, 0.2, 0.3) for pi in (0.0, 0.05, 0.1))
#: Reference samplers: (name, noise knob, alphabet size).
SAMPLERS = (("bsc", 0.1, 2), ("mary", 0.1, 4), ("scheduler", 0.1, 3))
#: At n = 1024 the kNN estimate sits 0.06-0.09 bits above the
#: closed-form capacity of the bsc/mary channels, outside the 0.05-bit
#: check; from 2048 samples on it is within it.
SAMPLE_SIZES = (2048, 4096)
#: Largest gap allowed between a DMC estimate and its capacity (bits).
SAMPLE_TOLERANCE = 0.05

Unit = Tuple[str, Any]


def channel_stack() -> np.ndarray:
    rng = np.random.default_rng(STACK_SEED)
    stack = rng.random((CHANNELS, NX, NY))
    stack /= stack.sum(axis=2, keepdims=True)
    return stack


class Inputs:
    """The fixed unit set and the seeded order of each cycle."""

    def __init__(self, seed: int) -> None:
        self.stack = channel_stack()
        self.units: List[Unit] = (
            [("ba", i) for i in range(CHANNELS)]
            + [("block", point) for point in GRID]
            + [("sample", (name, knob, m, n))
               for name, knob, m in SAMPLERS for n in SAMPLE_SIZES]
        )
        self._rng = random.Random(seed)

    def cycle(self) -> List[Unit]:
        order = list(self.units)
        self._rng.shuffle(order)
        return order

    def digest_material(self) -> bytes:
        return self.stack.tobytes() + repr(self.units).encode()


def make_inputs(seed: int) -> Inputs:
    return Inputs(seed)


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def symmetric_capacity(alphabet: int, error: float) -> float:
    """Capacity of the M-ary symmetric channel (M = 2 is the BSC)."""
    return (
        math.log2(alphabet)
        - _binary_entropy(error)
        - error * math.log2(alphabet - 1)
    )


def noiseless_timed_capacity(durations: Tuple[int, ...]) -> float:
    """Shannon's noiseless timed capacity ``log2 x``, where ``x`` is the
    root of ``sum_d x**-d = 1``, found by bisection (bits per time unit)."""
    lo, hi = 1.0, float(len(durations)) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sum(mid ** -d for d in durations) > 1.0:
            lo = mid
        else:
            hi = mid
    return math.log2(0.5 * (lo + hi))


def duality_upper(w: np.ndarray, p: np.ndarray) -> float:
    """``max_x D(W(.|x) || pW)`` in bits, recomputed from scratch."""
    q = p @ w
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0, w * np.log2(w / q[None, :]), 0.0)
    return float(terms.sum(axis=1).max())


def _solver(inputs: Inputs, unit: Unit) -> Callable[[], Any]:
    family, arg = unit
    if family == "ba":
        return lambda: blahut_arimoto(inputs.stack[arg], tol=BA_TOL)
    if family == "block":
        return lambda: indel_block_bound_sweep(
            [arg], block_length=BLOCK_BOUND_LENGTH, max_extra=BLOCK_BOUND_MAX_EXTRA
        )[0]
    name, knob, alphabet, n = arg
    if name == "bsc":
        sampler = bsc_sampler(knob)
    elif name == "mary":
        sampler = mary_sampler(alphabet, knob)
    else:
        sampler = SchedulerTimingSampler(SCHEDULER_BURSTS, knob)
    return lambda: estimate_sample_capacity(
        sampler, n_samples=n, seed=SAMPLE_CAPACITY_SEED, k=SAMPLE_CAPACITY_K
    )


def check_unit(inputs: Inputs, unit: Unit, result: Any) -> Tuple[bool, str]:
    """Whether *result* is right for *unit*, and what was compared."""
    family, arg = unit
    if family == "ba":
        upper = duality_upper(inputs.stack[arg], result.input_distribution)
        gap = upper - result.capacity
        ok = -1e-12 <= gap <= result.gap + 1e-12
        return ok, f"ba[{arg}] capacity {result.capacity} max-D {upper} gap {result.gap}"
    if family == "block":
        pd, _ = arg
        ok = (
            abs(result.erasure_upper - (1.0 - pd)) <= 1e-12
            and result.lower_bound <= result.erasure_upper
        )
        return ok, f"block{arg} [{result.lower_bound}, {result.erasure_upper}]"
    name, knob, alphabet, n = arg
    if name == "scheduler":
        # Preemption noise can only lower the noiseless timed capacity.
        ceiling = noiseless_timed_capacity(SCHEDULER_BURSTS)
        ok = 0.0 < result.capacity <= ceiling + SAMPLE_TOLERANCE
        return ok, f"scheduler n={n} capacity {result.capacity} ceiling {ceiling}"
    exact = symmetric_capacity(alphabet, knob)
    ok = abs(result.capacity - exact) <= SAMPLE_TOLERANCE
    return ok, f"{name} n={n} estimate {result.capacity} exact {exact}"


def setup_once() -> None:
    """Import, build the inputs, and solve one checked unit."""
    inputs = Inputs(0)
    unit = ("ba", 0)
    ok, what = check_unit(inputs, unit, _solver(inputs, unit)())
    if not ok:
        raise RuntimeError(f"setup answer wrong: {what}")


def _run_cycle(
    inputs: Inputs, outcome: Outcome, timer: ProbedTimer,
    times: Dict[Unit, List[Tuple[float, float]]], order: List[Unit],
    stop_at: float = math.inf,
) -> bool:
    """Run *order*'s units until *stop_at*; False if it stopped early."""
    for unit in order:
        if time.perf_counter() >= stop_at and all(u in times for u in inputs.units):
            return False
        result, raw, corrected = timer.time(_solver(inputs, unit))
        ok, what = check_unit(inputs, unit, result)
        outcome.check(ok, what)
        times[unit].append((raw, corrected))
        outcome.record.setdefault("unit_log", []).append(
            (f"{unit[0]}:{unit[1]}",) + timer.log[-1]
        )
    return True


def run(inputs: Inputs, seconds: float, timer: ProbedTimer) -> Outcome:
    """The untraced run: cycles until *seconds* pass and each unit ran."""
    outcome = Outcome()
    times: Dict[Unit, List[Tuple[float, float]]] = defaultdict(list)
    stop_at = time.perf_counter() + seconds
    while _run_cycle(inputs, outcome, timer, times, inputs.cycle(), stop_at):
        if time.perf_counter() >= stop_at:
            break

    def unit_median(unit: Unit, which: int) -> float:
        return median([t[which] for t in times[unit]])

    def family(name: str) -> List[Unit]:
        return [u for u in inputs.units if u[0] == name]

    for which, suffix in ((1, ""), (0, "_raw")):
        medians = {u: unit_median(u, which) for u in inputs.units}
        outcome.record.update({
            f"ba{suffix}_s": sum(medians[u] for u in family("ba")),
            f"block{suffix}_s": sum(medians[u] for u in family("block")),
            f"sample{suffix}_ms": median(
                [medians[u] for u in family("sample")]
            ) * 1e3,
        })
        if not suffix:
            slowest = max(medians, key=medians.get)
            outcome.metrics["unit_ms"] = (sum(medians.values()) * 1e3, "ms")
            outcome.record.update(
                slowest_unit=f"{slowest[0]}:{slowest[1]}",
                slowest_unit_ms=medians[slowest] * 1e3,
            )
    outcome.record["repeats"] = {
        name: min(len(times[u]) for u in family(name))
        for name in ("ba", "block", "sample")
    }
    return outcome


def run_traced(inputs: Inputs, tracer: Any, timer: ProbedTimer) -> Outcome:
    """The traced run: one cycle untraced, the same cycle traced."""
    outcome = Outcome()
    order = inputs.cycle()
    times: Dict[Unit, List[Tuple[float, float]]] = defaultdict(list)
    t0 = time.perf_counter()
    _run_cycle(inputs, outcome, timer, times, order)
    untraced = time.perf_counter() - t0
    t0 = time.perf_counter()
    with tracer.active():
        _run_cycle(inputs, outcome, timer, times, order)
    outcome.record.update(untraced_s=untraced, traced_s=time.perf_counter() - t0)
    return outcome
