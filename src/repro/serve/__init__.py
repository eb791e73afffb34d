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
* :mod:`repro.serve.load` — loopback load harness (tests, CI smoke),
  including the supervised-cluster harness.

Cluster layer (``repro cluster``), built on the same framing:

* :mod:`repro.serve.ring` — consistent-hash ring (stable blake2b
  points, virtual nodes, minimal remapping on membership change).
* :mod:`repro.serve.router` — the router daemon: places each cell on
  the ring by its result-cache content hash, so single-flight
  coalescing stays exactly-once across the whole cluster; failover to
  ring successors is idempotent by construction.
* :mod:`repro.serve.supervisor` — local shard supervisor (spawn,
  monitor, restart with exponential backoff).

Responses are bit-identical to direct
:func:`repro.analysis.experiment.run_version` calls; the equivalence
suite pins this against the frozen fixture.
"""

from repro.serve.client import ServiceClient, ServiceError
from repro.serve.ring import HashRing
from repro.serve.router import BackgroundRouter, Router, RouterConfig
from repro.serve.service import (
    AuditEvent,
    BackgroundService,
    ServeConfig,
    SimulationService,
    normalize_cell,
)
from repro.serve.supervisor import ClusterSupervisor

__all__ = [
    "AuditEvent",
    "BackgroundRouter",
    "BackgroundService",
    "ClusterSupervisor",
    "HashRing",
    "Router",
    "RouterConfig",
    "ServeConfig",
    "ServiceClient",
    "ServiceError",
    "SimulationService",
    "normalize_cell",
]
