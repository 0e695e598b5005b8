"""`repro.obs` — live observability for the serving layer.

Three pieces, layered strictly *outside* the deterministic core:

* :mod:`repro.obs.registry` — a unified metrics registry.  Counters,
  gauges, and fixed-bucket histograms are standalone publisher
  primitives; the registry is the namespace view over them, and
  ``Service.stats()`` is a registry read (keys, order and composite
  sections pinned by ``tests/test_obs.py``).
* :mod:`repro.obs.trace` — per-ticket trace spans on the virtual
  clock, kept in a bounded ring buffer with a ``Service.trace(id)``
  accessor and JSONL export.
* :mod:`repro.obs.server` / :mod:`repro.obs.client` — an asyncio
  front door (stdlib only) whose event loop pumps the virtual-clock
  core: ``POST /query``, ``GET /stats``, ``GET /trace/<id>``, and a
  streaming ``GET /watch``.  Wall-clock time exists *only* in this
  layer — recording metrics and spans never changes a winner, a step
  bill, or a digest.

This package must not import :mod:`repro.service` at module level
(the service modules publish into it); the server/client modules,
which sit above the service, are imported explicitly as
``repro.obs.server`` / ``repro.obs.client``.
"""

from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .trace import Span, TicketTrace, Tracer

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TicketTrace",
    "Tracer",
]
