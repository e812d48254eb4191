"""Workload generation: realistic client populations for the service.

The paper motivates the system with hotel / cable-TV / ISP deployments;
this package models those populations so experiments can go beyond the
single-client measurement runs of Section 6:

* :mod:`repro.workloads.arrivals` — Poisson and burst arrival processes;
* :mod:`repro.workloads.popularity` — Zipf movie selection (VoD
  catalogs are famously head-heavy);
* :mod:`repro.workloads.viewer` — per-viewer behaviour scripts (watch
  through, channel-surf with seeks and pauses, abandon early);
* :mod:`repro.workloads.driver` — attaches the generated population to
  a :class:`~repro.service.deployment.Deployment` and collects
  population-level quality-of-experience statistics.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".arrivals": ("burst_arrivals", "diurnal_arrivals", "poisson_arrivals"),
    ".driver": ("PopulationStats", "WorkloadDriver"),
    ".popularity": ("ZipfCatalogSampler",),
    ".viewer": ("CHANNEL_SURFER", "COUCH_POTATO", "VCR_STORM", "ViewerProfile"),
})
