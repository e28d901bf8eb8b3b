"""Frozen reference implementations the runtime kernels are pinned to.

Nothing under ``src/`` imports these: they exist so the parity tests
and the benchmarks can compare the fast paths against an exact
"before".  ``sweep`` holds the pre-v2 WCMA sweep loops, ``learn`` the
per-node ridge/GBM training loops, ``midc`` the list-based MIDC parser.
"""
