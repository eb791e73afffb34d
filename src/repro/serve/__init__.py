"""The persistent simulation service (``repro serve``).

A long-lived asyncio daemon over the orchestration stack: JSON-over-
HTTP submission of cells and sweeps, single-flight coalescing keyed by
the result cache's content hash, a warm worker pool that amortizes
process startup and prep loading across requests, bounded-queue
backpressure, and first-class observability (``/healthz``,
``/metrics``, per-request JSONL audit logs).

Layers (dependency order):

* :mod:`repro.serve.http` — minimal HTTP/1.1 framing over asyncio
  streams (the stdlib has no asyncio HTTP server; zero new deps).
* :mod:`repro.serve.metrics` — counters + latency windows behind
  ``/metrics``.
* :mod:`repro.serve.service` — the daemon itself: routes, admission,
  single-flight table, batching dispatcher, drain contract.  Its cells
  run on one :class:`~repro.bench.pool.WarmPool`, the failure policy
  (retries, timeouts, pool rebuilds) every process fan-out shares.
* :mod:`repro.serve.client` — blocking stdlib client
  (``repro submit``, tests).
* :mod:`repro.serve.load` — loopback load harness (tests, CI smoke).

One daemon is the whole service: scale it with ``--jobs N`` (DESIGN.md
§9 records why there is no sharded cluster in front of it).

Responses are bit-identical to direct
:func:`repro.analysis.experiment.run_version` calls; the equivalence
suite pins this against the frozen fixture.
"""

from repro.serve.client import ServiceClient, ServiceError
from repro.serve.service import (
    AuditEvent,
    BackgroundService,
    ServeConfig,
    SimulationService,
    normalize_cell,
)

__all__ = [
    "AuditEvent",
    "BackgroundService",
    "ServeConfig",
    "ServiceClient",
    "ServiceError",
    "SimulationService",
    "normalize_cell",
]
