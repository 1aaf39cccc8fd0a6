"""Compare two run sets, one row per workload x end-to-end metric.

Usage, from the repository root::

    python3 capbench/compare.py BASE_DIR NEW_DIR

Each directory holds the run records ``capbench/run.py --out DIR``
wrote. Untraced records are grouped by workload; for each end-to-end
metric of ``BENCHMARK.json`` the report gives each side's median and
quartiles over its runs, its spread (quartile distance over median),
the signed change of the new median against the base median and a
verdict from :func:`capbench.stats.verdict`. A workload whose median
``host.probe_ms`` moved by more than the smallest bound of a timing or
rate metric is flagged: the host itself changed speed between the sets.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from capbench.stats import median, quartiles, spread, verdict  # noqa: E402

Runs = Dict[str, Dict[str, List[float]]]  # workload -> metric -> values


def load(directory: Path) -> Runs:
    runs: Runs = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        if record.get("trace") != 0:
            continue
        values = runs[record["workload"]]
        for name, metric in record["metrics"].items():
            values[name].append(float(metric["value"]))
        values["host.probe_ms"].append(float(record["host.probe_ms"]))
    return runs


def report(base: Runs, new: Runs, spec: dict) -> List[str]:
    metrics = spec["end_to_end"]
    # Host speed moves the timings and rates, not counts or shares.
    drift_bound = min(
        m["bound"] for m in metrics if m["unit"] in ("s", "ms", "1/s")
    )
    lines = [
        f"{'workload':10} {'metric':18} {'n':>5} "
        f"{'base q1/med/q3':>28} {'sprd':>6} {'new q1/med/q3':>28} "
        f"{'sprd':>6} {'change':>8} {'bound':>6} verdict"
    ]
    for workload in sorted(set(base) | set(new)):
        side_a, side_b = base.get(workload, {}), new.get(workload, {})
        for m in metrics:
            a, b = side_a.get(m["name"]), side_b.get(m["name"])
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("nan")
            lines.append(
                f"{workload:10} {m['name']:18} {len(a):>2}/{len(b):<2} "
                f"{qa[0]:>9.4g}/{qa[1]:<8.4g}/{qa[2]:<9.4g} {spread(a):6.3f} "
                f"{qb[0]:>9.4g}/{qb[1]:<8.4g}/{qb[2]:<9.4g} {spread(b):6.3f} "
                f"{change:+8.3f} {m['bound']:6.2f} "
                f"{verdict(a, b, m['bound'], m['better'])}"
            )
        pa, pb = side_a.get("host.probe_ms"), side_b.get("host.probe_ms")
        if pa and pb:
            moved = (median(pb) - median(pa)) / median(pa)
            if abs(moved) > drift_bound:
                lines.append(
                    f"{workload:10} HOST DRIFT: median host.probe_ms moved "
                    f"{moved:+.3f} ({median(pa):.3f} -> {median(pb):.3f} ms)"
                )
    return lines


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    print("\n".join(report(load(args.base), load(args.new), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
