"""Order statistics for benchmark samples (stdlib only)."""

from __future__ import annotations

import math
from typing import Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that, one outlier decides the value.
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Raises ``ValueError`` when fewer than :data:`MIN_TAIL_SAMPLES`
    samples lie above the returned rank (p99 needs 1000 samples, p50
    needs 20).
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    return sorted(samples)[rank - 1]

