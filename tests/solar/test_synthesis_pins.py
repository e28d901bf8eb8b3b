"""Byte pins of the synthesized traces.

Each pin is the first 16 hex digits of the sha256 of a trace's float64
bytes.  Trace synthesis must reproduce them exactly: the goldens, the
cache keys' assumptions and every BENCH record downstream take the
traces as fixed data, so a change that moves a pin changes the data,
not just the speed.  The pins also hold across ``PYTHONHASHSEED``.
"""

import hashlib

import numpy as np
import pytest

from repro.solar.datasets import build_dataset
from repro.solar.scenarios import make_scenario
from repro.solar.sites import get_site
from repro.solar.synthetic import generate_trace

#: ``generate_trace(get_site(site), 365)`` at each site's default seed.
YEAR_PINS = {
    "SPMD": "eeef1d56ef28a338",
    "ECSU": "9044d27411d58879",
    "ORNL": "d8247697ccd46caf",
    "HSU": "4ba9bd7fe7929074",
    "NPCS": "a1d3db37d3b8c2b0",
    "PFCI": "ce2ad20f35dc3666",
}

#: ``make_scenario("regime-shift", seed=20100308)`` applied to
#: ``build_dataset(site, n_days=n)``.
REGIME_SHIFT_PINS = {
    ("PFCI", 45): "5463412533508ce8",
    ("HSU", 45): "ec1f2213ca4dc3a2",
    ("SPMD", 45): "b9e2bd06f470bf34",
    ("ORNL", 365): "1a6984e6f53a653b",
}


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("site", sorted(YEAR_PINS))
def test_year_trace_bytes(site):
    assert digest(generate_trace(get_site(site), 365).values) == YEAR_PINS[site]


def test_seeded_trace_bytes():
    assert digest(generate_trace(get_site("HSU"), 45, seed=7).values) == "72bbe3f12e7428fe"


@pytest.mark.parametrize("site, n_days", sorted(REGIME_SHIFT_PINS))
def test_regime_shift_bytes(site, n_days):
    shifted = make_scenario("regime-shift", seed=20100308).apply(build_dataset(site, n_days=n_days))
    assert digest(shifted.values) == REGIME_SHIFT_PINS[site, n_days]
