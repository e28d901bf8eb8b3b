"""Measured-site registration: ingested files as first-class sites.

The experiment layer selects data by *site name* (``trace_for``,
``sweep_for``, ``FleetPlan`` sites, the robustness matrix).
Registering a measured file here makes its name resolvable through
:func:`repro.solar.datasets.build_dataset` exactly like the synthetic
six, so every experiment accepts ingested traces with no further
plumbing:

>>> site = register_measured_site("pfci_march.csv")
>>> build_dataset(site.name, n_days=14)        # the *clean* trace
>>> make_scenario(f"{site.name.lower()}-defects")  # its replayed defects

A :class:`MeasuredSite` is a small picklable spec (path + ingest
options + resolved geometry), not the data itself: ingestion is lazy
and memoised per process, so worker processes of the parallel
robustness runner can rebuild the trace from the spec
(:func:`install_measured_sites` is the pool initializer hook).

Registration also registers the file's replayed-defects scenario under
``<name>-defects`` in the scenario registry, so the measured defects
can ride the robustness matrix next to the synthetic degradations
(geometry-bound: it only applies to this site's full-length trace).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.solar.ingest import IngestResult, ingest_csv
from repro.solar.scenarios.registry import register_scenario, unregister_scenario
from repro.solar.trace import MINUTES_PER_DAY, SolarTrace

__all__ = [
    "MeasuredSite",
    "register_measured_site",
    "unregister_measured_site",
    "measured_site",
    "measured_site_names",
    "measured_specs_for",
    "install_measured_sites",
    "clear_measured_sites",
]


@dataclass(frozen=True)
class MeasuredSite:
    """Picklable spec of one registered measured site.

    Attributes
    ----------
    name:
        Registry key (upper-case), also the clean trace's label.
    path:
        Source CSV path; workers re-ingest from it lazily.
    channel / resolution_minutes:
        Ingest options (None = the ingest defaults).
    samples_per_day / n_days:
        Resolved geometry, so validation (N divisibility, day budgets)
        needs no ingestion.
    """

    name: str
    path: str
    channel: Optional[str]
    resolution_minutes: Optional[int]
    samples_per_day: int
    n_days: int

    @property
    def defects_scenario_name(self) -> str:
        """Registry key of the site's replayed-defects scenario."""
        return f"{self.name.lower()}-defects"

    def ingest(self) -> IngestResult:
        """The full ingestion result (memoised per process).

        Thread-safe: under the thread backend (and the serve daemon's
        HTTP threads) two threads can request the same site at once;
        the double-checked lock makes sure the file is ingested exactly
        once and the memo write is never racing a concurrent read.
        """
        key = (self.path, self.channel, self.resolution_minutes, self.name)
        result = _INGEST_CACHE.get(key)
        if result is None:
            with _INGEST_LOCK:
                result = _INGEST_CACHE.get(key)
                if result is None:
                    result = ingest_csv(
                        self.path,
                        channel=self.channel,
                        resolution_minutes=self.resolution_minutes,
                        name=self.name,
                    )
                    _INGEST_CACHE[key] = result
        return result

    def build(self, n_days: Optional[int] = None) -> SolarTrace:
        """The clean trace, optionally truncated to the first ``n_days``."""
        clean = self.ingest().clean
        if n_days is None or n_days == clean.n_days:
            return clean
        if n_days > clean.n_days:
            raise ValueError(
                f"measured site {self.name} has {clean.n_days} days; "
                f"requested {n_days} (measured data cannot be extended)"
            )
        return clean.select_days(0, n_days)


_REGISTRY: Dict[str, MeasuredSite] = {}
_INGEST_CACHE: Dict[Tuple, IngestResult] = {}
#: Serialises ingest-memo fills; reads stay lock-free (GIL-atomic get).
_INGEST_LOCK = threading.Lock()


def register_measured_site(
    path,
    name: Optional[str] = None,
    channel: Optional[str] = None,
    resolution_minutes: Optional[int] = None,
    overwrite: bool = False,
) -> MeasuredSite:
    """Ingest ``path`` and register it as a site.

    The file is ingested eagerly (validating it and resolving the
    geometry); the default ``name`` derives from the file name.  The
    replayed-defects scenario is registered as ``<name>-defects``.
    Raises ``ValueError`` on a name collision (synthetic site, or an
    already-registered measured site without ``overwrite``).
    """
    from repro.solar.sites import SITE_ORDER

    result = ingest_csv(
        path, channel=channel, resolution_minutes=resolution_minutes, name=name
    )
    key = result.clean.name.upper()
    if key in SITE_ORDER:
        raise ValueError(
            f"measured site name {key!r} collides with a synthetic site; "
            "pass an explicit name="
        )
    if key in _REGISTRY and not overwrite:
        raise ValueError(
            f"measured site {key!r} is already registered "
            "(pass overwrite=True to replace it)"
        )
    site = MeasuredSite(
        name=key,
        path=str(path),
        channel=channel,
        resolution_minutes=resolution_minutes,
        samples_per_day=MINUTES_PER_DAY // result.resolution_minutes,
        n_days=result.n_days,
    )
    _INGEST_CACHE[(site.path, site.channel, site.resolution_minutes, site.name)] = (
        result
    )
    _install(site)
    return site


def _install(site: MeasuredSite) -> None:
    _REGISTRY[site.name] = site

    def _defects_factory(seed: int, _site=site):
        # The replay scenario is deterministic; the seed is accepted for
        # registry-signature compatibility and ignored.
        return _site.ingest().scenario

    register_scenario(
        site.defects_scenario_name,
        _defects_factory,
        f"replayed measured defects of {site.name} (geometry-bound)",
        overwrite=True,
    )


def install_measured_sites(sites: Sequence[MeasuredSite]) -> None:
    """(Re-)install measured-site specs in this process.

    Used as a process-pool initializer so spawned workers resolve the
    same site names as the parent; ingestion stays lazy in the worker.
    """
    for site in sites:
        _install(site)


def unregister_measured_site(name: str) -> None:
    """Remove a measured site (and its defects scenario)."""
    key = name.upper()
    if key not in _REGISTRY:
        raise KeyError(f"measured site {name!r} is not registered")
    site = _REGISTRY.pop(key)
    try:
        unregister_scenario(site.defects_scenario_name)
    except KeyError:
        pass


def measured_site(name: str):
    """Look up a measured site spec by (case-insensitive) name."""
    key = name.upper()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown measured site {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY)) or '(none)'}"
        )


def measured_site_names() -> tuple:
    """Registered measured-site names, sorted."""
    return tuple(sorted(_REGISTRY))


def measured_specs_for(names: Sequence[str]) -> Tuple[MeasuredSite, ...]:
    """The measured specs among ``names`` (synthetic names pass through)."""
    return tuple(
        _REGISTRY[n.upper()] for n in names if n.upper() in _REGISTRY
    )


def clear_measured_sites() -> None:
    """Drop every measured registration and ingest memo (tests)."""
    for name in list(_REGISTRY):
        unregister_measured_site(name)
    _INGEST_CACHE.clear()
