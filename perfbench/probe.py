"""Host-speed probe: a fixed reference kernel timed on the passes' CPU.

On a shared host the same pass runs up to twice as slow when other
tenants are busy, and the slowdown comes and goes over seconds to
minutes.  It is not steal time (the pass keeps its CPU) but the core
itself running slower.  So ``run.py`` runs this probe beside the passes
on their CPU: every ``INTERVAL_S`` it wakes, runs a fixed kernel of
about half a millisecond, and records the kernel's CPU time.  Every
pass's CPU time is then scaled by how fast the kernel ran during it::

    wall_s = CPU time of the timed phase * REFERENCE_KERNEL_S / mean kernel CPU time

That is how long the phase would take on a host where the kernel takes
``REFERENCE_KERNEL_S``.  CPU time, not wall time, on both sides: a pass
is single-threaded and never waits, so its CPU time is its wall time
minus the moments the probe held the CPU, and the kernel's CPU time
leaves out any moment the pass held it.  The kernel is benchmark code
that never changes, so a change to the program moves the pass and not
the probe.

Run as ``python3 -m perfbench.probe OUT.json``; it samples until SIGTERM
(or until its parent exits), then writes its samples to ``OUT.json``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Sequence

#: The kernel CPU time that scaled times refer to.  Chosen so that
#: ``reproduce`` reads about 3.7 s, its time on a calm 2-core shared VM
#: (Python 3.11); on the same VM the kernel took 0.43-0.55 ms beside
#: the passes while the host was slow.
REFERENCE_KERNEL_S = 0.00032

#: Sleep between kernels: the probe takes about 5% of the CPU.
INTERVAL_S = 0.01

#: A window holding fewer kernels is scaled by the kernels nearest it.
MIN_WINDOW_SAMPLES = 20


def _kernel() -> int:
    """About half a millisecond of interpreter work: arithmetic, dict and list stores.

    Of the kernels tried beside the passes (this one, small-array numpy,
    an L3-sized gather, an L2-sized numpy stream), plain interpreter
    work tracked the passes' slowdowns best: the passes spend most of
    their time in the interpreter.
    """
    total, slots, trail = 0, {}, []
    for i in range(2700):
        total += i * 3 % 7
        slots[i & 127] = total
        trail.append(total)
    return total + len(trail)


def speed_scale(samples: Sequence[tuple], start: float, end: float) -> float:
    """``REFERENCE_KERNEL_S`` over the mean kernel CPU time in [start, end].

    Uses the kernels that started inside the window; when fewer than
    ``MIN_WINDOW_SAMPLES`` did, the ``MIN_WINDOW_SAMPLES`` kernels that
    started nearest the window's middle.
    """
    starts = [s[0] for s in samples]
    inside = samples[bisect_left(starts, start):bisect_right(starts, end)]
    if len(inside) < MIN_WINDOW_SAMPLES:
        middle = (start + end) / 2.0
        inside = sorted(samples, key=lambda s: abs(s[0] - middle))[:MIN_WINDOW_SAMPLES]
    return REFERENCE_KERNEL_S * len(inside) / sum(s[1] for s in inside)


def main(argv) -> int:
    out = Path(argv[0])
    parent = os.getppid()
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    samples = []  # (start on the monotonic clock, kernel CPU seconds)
    while not stopping and os.getppid() == parent:
        start, cpu = time.monotonic(), time.thread_time()
        _kernel()
        samples.append((start, time.thread_time() - cpu))
        if len(samples) == 1:
            print("ready", flush=True)
        time.sleep(INTERVAL_S)
    out.write_text(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
