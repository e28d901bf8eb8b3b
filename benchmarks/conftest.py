"""Benchmark fixtures: full-scale (365-day) experiment reproductions.

Each bench regenerates one of the paper's tables/figures at the paper's
scale, prints the regenerated rows, and asserts the qualitative shape
claims recorded in DESIGN.md.  ``benchmark.pedantic(..., rounds=1)`` is
used throughout: these are end-to-end reproductions, not microbenches,
and a single round is what "regenerate the table" costs.

Run with::

    pytest benchmarks/ --benchmark-only

Benches that keep a ``BENCH_<name>.json`` record at the repo root write
it through :func:`record`, and only when ``REPRO_BENCH_RECORD=1`` is
set, so a plain test run never rewrites the tracked records::

    REPRO_BENCH_RECORD=1 pytest benchmarks/test_bench_sweep.py -q -s
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

FULL_DAYS = 365

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def full_days():
    """Trace length of the paper's setup."""
    return FULL_DAYS


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def record(name: str, key: str, payload: dict) -> None:
    """Merge one benchmark's numbers into ``BENCH_<name>.json``.

    A no-op unless ``REPRO_BENCH_RECORD=1``.  Machine context is stored
    per entry, not at the top level: partial runs (e.g. a ``-k`` subset)
    must not re-attribute numbers measured elsewhere to this machine.
    """
    if os.environ.get("REPRO_BENCH_RECORD") != "1":
        return
    path = REPO_ROOT / f"BENCH_{name}.json"
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (ValueError, OSError):
            data = {}
    payload = dict(payload)
    payload["machine"] = {"cpu_count": os.cpu_count(), "ci": bool(os.environ.get("CI"))}
    data.pop("machine", None)  # drop the legacy top-level key
    data[key] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
