"""Repository benchmark: steady end-to-end and per-layer measurements.

Run ``python3 capbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``capbench/README.md``.
"""
