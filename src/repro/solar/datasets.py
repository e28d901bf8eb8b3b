"""Dataset front-end: the six synthetic traces plus measured sites.

``build_dataset("PFCI")`` returns the one-year synthetic trace standing
in for the corresponding NREL MIDC download (see Table I of the paper
and the substitution table in DESIGN.md).  Traces are memoised per
``(site, n_days, seed)`` because generating a 1-minute year still takes
about a tenth of a second (mostly scalar transient draws and per-day
clear-sky envelopes) and the experiment suite requests the same trace
many times.

Measured sites registered through
:func:`repro.solar.ingest.sites.register_measured_site` resolve through
the same front door: ``build_dataset(name)`` serves the ingested
*clean* trace (truncated to ``n_days``), so the experiment layer is
agnostic to whether a site name is synthetic or measured.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.solar.sites import SITE_ORDER, get_site
from repro.solar.synthetic import generate_trace
from repro.solar.trace import SolarTrace

__all__ = [
    "available_datasets",
    "build_dataset",
    "dataset_summary",
    "dataset_token",
    "samples_per_day_for",
    "clear_cache",
]

_CACHE: Dict[Tuple[str, int, Optional[int]], SolarTrace] = {}


def _measured_registry():
    # Lazy import: the ingest package sits above this module in the
    # solar layering (it consumes trace/scenarios), so datasets reaches
    # for it only at call time.
    from repro.solar.ingest import sites as measured

    return measured


def available_datasets() -> tuple:
    """Synthetic site codes in table order, then measured sites."""
    return SITE_ORDER + _measured_registry().measured_site_names()


def build_dataset(
    name: str, n_days: int = 365, seed: Optional[int] = None
) -> SolarTrace:
    """Return the trace for site ``name`` (synthetic or measured).

    Parameters
    ----------
    name:
        Synthetic site code (``SPMD``, ``ECSU``, ``ORNL``, ``HSU``,
        ``NPCS``, ``PFCI``) or a registered measured site,
        case-insensitive.
    n_days:
        Days to generate (synthetic) or serve (measured; must not
        exceed the ingested length).  365 reproduces the paper's setup.
    seed:
        Optional override of a synthetic site's default seed; measured
        sites are data, not generators, so a seed is rejected.
    """
    key_name = name.upper()
    if key_name not in SITE_ORDER:
        measured = _measured_registry()
        if key_name in measured.measured_site_names():
            if seed is not None:
                raise ValueError(
                    f"measured site {key_name} is data, not a generator; "
                    "seed is not applicable"
                )
            return measured.measured_site(key_name).build(n_days)
    site = get_site(name)
    key = (site.name, n_days, seed)
    if key not in _CACHE:
        _CACHE[key] = generate_trace(site, n_days=n_days, seed=seed)
    return _CACHE[key]


def dataset_token(name: str):
    """Identity token of what ``build_dataset(name)`` would serve.

    ``None`` for synthetic sites (their data is a pure function of the
    name); for measured sites, the registered (hashable)
    :class:`~repro.solar.ingest.sites.MeasuredSite` spec.  Cache layers
    that memoise traces by site name include this token in their keys,
    so re-registering a name against a different file can never serve a
    stale memo.
    """
    key = name.upper()
    if key in SITE_ORDER:
        return None
    measured = _measured_registry()
    if key in measured.measured_site_names():
        return measured.measured_site(key)
    return None


def samples_per_day_for(name: str) -> int:
    """Native samples per day of a synthetic or measured site."""
    key = name.upper()
    if key in SITE_ORDER:
        return get_site(key).samples_per_day
    measured = _measured_registry()
    if key in measured.measured_site_names():
        return measured.measured_site(key).samples_per_day
    raise KeyError(
        f"unknown site {name!r}; available: {', '.join(available_datasets())}"
    )


def dataset_summary(name: str, n_days: int = 365) -> dict:
    """Table I row for one site: observations, days, resolution."""
    site = get_site(name)
    return {
        "data_set": site.name,
        "location": site.location,
        "observations": site.samples_per_day * n_days,
        "days": n_days,
        "resolution_minutes": site.resolution_minutes,
    }


def clear_cache() -> None:
    """Drop all memoised traces (mainly for tests)."""
    _CACHE.clear()
