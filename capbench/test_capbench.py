"""Self-tests of the benchmark's own arithmetic and wiring.

Run from the repository root: ``python3 -m pytest capbench -q``. They
import nothing from the program under test.
"""

import asyncio
import json
import statistics
from pathlib import Path

import pytest

from capbench import run
from capbench.compare import report
from capbench.stats import (
    probe_corrected,
    sampled_corrected,
    quartiles,
    self_time,
    spread,
    tail_percentile,
    verdict,
)
from capbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


# --- tail percentile -------------------------------------------------------

def test_tail_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(1, 101))) == (90.0, 90.0, 10)
    assert tail_percentile(list(range(1, 1001))) == (99.0, 990.0, 10)
    # The ladder tops out at 99 however many samples there are.
    assert tail_percentile(list(range(1, 10001))) == (99.0, 9900.0, 100)


def test_tail_ignores_input_order():
    values = [float(v) for v in range(200, 0, -1)]
    assert tail_percentile(values) == (95.0, 190.0, 10)


def test_tail_with_too_few_samples_falls_back_to_the_median():
    assert tail_percentile([5.0, 1.0, 4.0, 2.0, 3.0]) == (50.0, 3.0, 2)


def test_tail_of_nothing_raises():
    with pytest.raises(ValueError):
        tail_percentile([])


# --- quartiles and spread ----------------------------------------------------

def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles(list(range(1, 11))) == (2.75, 5.5, 8.25)


def test_single_value_is_its_own_quartiles():
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert spread([7.0]) == 0.0


def test_spread_is_quartile_distance_over_median():
    assert spread(list(range(1, 11))) == pytest.approx(5.5 / 5.5)
    assert spread([10.0, 10.0, 10.0, 10.0]) == 0.0


# --- probe correction --------------------------------------------------------

def test_probe_correction_scales_by_reference_over_mean_probe():
    assert probe_corrected(2.0, 3.0, 5.0, 2.0) == pytest.approx(1.0)
    # A host running at reference speed leaves the time unchanged.
    assert probe_corrected(1.5, 2.2, 2.2, 2.2) == pytest.approx(1.5)
    # A slow host (long probes) shrinks the time, a fast one grows it.
    assert probe_corrected(1.0, 4.4, 4.4, 2.2) == pytest.approx(0.5)
    assert probe_corrected(1.0, 1.1, 1.1, 2.2) == pytest.approx(2.0)


def test_probe_correction_rejects_empty_probes():
    with pytest.raises(ValueError):
        probe_corrected(1.0, 0.0, 0.0, 2.2)


def test_sampled_correction_averages_the_speed_each_probe_saw():
    # Steady probes agree with the two-probe correction.
    assert sampled_corrected(1.5, [4.4] * 5, 2.2) == pytest.approx(
        probe_corrected(1.5, 4.4, 4.4, 2.2)
    )
    # Half the unit at twice the reference speed, half at the reference:
    # the mean speed is 1.5x, not 1 / mean(1.1, 2.2) = 1.33x.
    assert sampled_corrected(2.0, [1.1, 2.2], 2.2) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        sampled_corrected(1.0, [], 2.2)
    with pytest.raises(ValueError):
        sampled_corrected(1.0, [2.2, 0.0], 2.2)


def test_probed_timer_probes_inside_a_long_unit_and_excludes_them():
    import time

    from capbench.units import SAMPLE_INTERVAL_S, ProbedTimer

    def busy():
        end = time.perf_counter() + 3.5 * SAMPLE_INTERVAL_S
        while time.perf_counter() < end:
            pass
        return "done"

    timer = ProbedTimer()
    result, raw, corrected = timer.time(busy)
    start, logged_raw, before, after, inside, logged = timer.log[-1]
    assert result == "done" and inside >= 2
    assert logged_raw == raw < 3.5 * SAMPLE_INTERVAL_S + 0.005
    assert logged == corrected > 0


# --- self time ---------------------------------------------------------------

def test_self_time_subtracts_the_union_of_overlapping_children():
    # [1, 5] and [8, 10] after clipping: 6 of the 10 units are covered.
    children = [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]
    assert self_time((0.0, 10.0), children) == pytest.approx(4.0)


def test_self_time_edge_cases():
    assert self_time((0.0, 10.0), []) == 10.0
    assert self_time((0.0, 10.0), [(0.0, 10.0), (2.0, 3.0)]) == 0.0
    assert self_time((0.0, 10.0), [(-5.0, -1.0), (11.0, 12.0)]) == 10.0
    assert self_time((0.0, 10.0), [(2.0, 4.0), (2.0, 4.0)]) == 8.0


# --- verdicts ----------------------------------------------------------------

BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]


def test_verdict_worse_same_better():
    assert verdict(BASE, [v * 1.2 for v in BASE], 0.1, "lower") == "worse"
    assert verdict(BASE, [v * 1.01 for v in BASE], 0.1, "lower") == "same"
    assert verdict(BASE, [v * 0.8 for v in BASE], 0.1, "lower") == "better"
    # The direction flips with "higher".
    assert verdict(BASE, [v * 1.2 for v in BASE], 0.1, "higher") == "better"
    assert verdict(BASE, [v * 0.8 for v in BASE], 0.1, "higher") == "worse"


def test_verdict_unresolved_when_spread_exceeds_the_bound():
    wide = [5.0, 10.0, 15.0, 20.0, 8.0]
    shifted = [6.0, 11.0, 14.0, 19.0, 9.0]
    assert verdict(wide, shifted, 0.1, "lower") == "unresolved"


def test_verdict_separated_sets_resolve_despite_spread():
    wide = [10.0, 11.0, 12.0, 13.0, 14.0]
    assert verdict(wide, [v + 10 for v in wide], 0.1, "lower") == "worse"
    assert verdict(wide, [v - 5 for v in wide], 0.1, "lower") == "better"


def test_verdict_small_gain_within_base_spread_is_same():
    base = [9.0, 9.5, 10.0, 10.5, 11.0]
    new = [v - 0.2 for v in base]
    assert verdict(base, new, 0.25, "lower") == "same"


def test_comparer_prints_one_row_per_workload_metric():
    spec = {"end_to_end": [
        {"name": "ba_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
    ]}
    base = {"solve": {"ba_s": BASE, "host.probe_ms": [2.0] * 10}}
    new = {"solve": {"ba_s": [v * 1.5 for v in BASE], "host.probe_ms": [3.0] * 10}}
    lines = report(base, new, spec)
    rows = [line for line in lines[1:] if "HOST DRIFT" not in line]
    assert len(rows) == 1 and rows[0].split()[-1] == "worse"
    assert any("HOST DRIFT" in line for line in lines)


# --- tracer spans ------------------------------------------------------------

def test_spans_nest_by_caller_and_by_task():
    tracer = Tracer("t")

    def leaf():
        return 1

    traced_leaf = tracer._wrap("leaf", leaf, None)
    outer = tracer._wrap("outer", lambda: traced_leaf() + traced_leaf(), None)
    assert outer() == 2
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[1], []).append(span)
    (root,) = by_name["outer"]
    assert root[4] == 0
    assert [s[4] for s in by_name["leaf"]] == [root[0], root[0]]

    async def work():
        await asyncio.sleep(0.001)
        return traced_leaf()

    traced_work = tracer._wrap("task", work, None)

    async def main():
        return await asyncio.gather(traced_work(), traced_work())

    tracer.spans.clear()
    assert asyncio.run(main()) == [1, 1]
    tasks = {s[0] for s in tracer.spans if s[1] == "task"}
    leaves = [s for s in tracer.spans if s[1] == "leaf"]
    assert len(tasks) == 2 and {s[4] for s in leaves} == tasks


# --- the benchmark's declaration --------------------------------------------

def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_a_raising_call_keeps_its_span_and_the_error():
    tracer = Tracer("t")

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer._wrap("boom", boom, None)()
    (span,) = tracer.spans
    assert span[1] == "boom" and span[6] == {"error": "KeyError"}
    assert tracer._current.get() == 0
