"""End-to-end benchmark of the repro-solar package.

Run ``python3 perfbench/run.py --workload <name>`` from the repository
root; ``perfbench/README.md`` describes the workloads, the metrics and
the traced run.
"""
