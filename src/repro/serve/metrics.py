"""Service-side counters and latency tracking for ``/metrics``.

Same philosophy as :mod:`repro.trace`: plain counters on the hot path,
aggregation only when somebody asks.  Everything here is touched from
the service's event loop thread only, so there are no locks; the
snapshot is a plain dict ready for JSON.

Latencies go into fixed-size reservoirs (last ``N`` observations) —
a long-lived daemon must report *recent* p50/p99, not a lifetime
average diluted by yesterday's traffic.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional

__all__ = ["LatencyWindow", "ServiceMetrics"]


class LatencyWindow:
    """Sliding window of the most recent ``size`` latencies (seconds)."""

    def __init__(self, size: int = 1024):
        self.size = int(size)
        self._ring: List[float] = []
        self._next = 0
        self.count = 0          # lifetime observations
        self.total = 0.0        # lifetime sum (for the mean)

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if len(self._ring) < self.size:
            self._ring.append(seconds)
        else:
            self._ring[self._next] = seconds
            self._next = (self._next + 1) % self.size

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile over the window (``None`` if empty)."""
        if not self._ring:
            return None
        ordered = sorted(self._ring)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def snapshot(self) -> dict:
        n = self.count
        return {
            "count": n,
            "mean_s": (self.total / n) if n else None,
            "p50_s": self.percentile(50),
            "p99_s": self.percentile(99),
        }


class ServiceMetrics:
    """Counters for every way a request can travel through the service.

    Request *sources* (mutually exclusive per request):

    * ``cache`` — served from the on-disk :class:`ResultCache` without
      touching the pool;
    * ``coalesced`` — piggybacked on an identical in-flight computation
      (single-flight);
    * ``computed`` — caused an actual simulation;
    * ``rejected_busy`` — bounced with 429 (bounded queue full);
    * ``rejected_draining`` — bounced with 503 (shutdown in progress);
    * ``invalid`` — 4xx (unknown matrix, malformed body, bad route);
    * ``error`` — the computation it waited on failed (500).
    """

    SOURCES = ("cache", "coalesced", "computed", "rejected_busy",
               "rejected_draining", "invalid", "error")

    def __init__(self):
        self.started_at = time.time()
        self.requests: Dict[str, int] = {s: 0 for s in self.SOURCES}
        #: Distinct simulations dispatched to the pool (per key, not
        #: per request) — the single-flight tests pin this.
        self.computations = 0
        self.worker_restarts = 0
        self.worker_retries = 0
        self.queue_high_water = 0
        self.request_latency = LatencyWindow()
        self.compute_latency = LatencyWindow()

    # ------------------------------------------------------------------
    def count_request(self, source: str, latency_s: float) -> None:
        self.requests[source] += 1
        self.request_latency.add(latency_s)

    def count_computation(self, seconds: float) -> None:
        self.computations += 1
        self.compute_latency.add(seconds)

    def note_queue_depth(self, depth: int) -> None:
        if depth > self.queue_high_water:
            self.queue_high_water = depth

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        total = sum(self.requests.values())
        served = (self.requests["cache"] + self.requests["coalesced"]
                  + self.requests["computed"])
        hit_rate = lambda n: (n / served) if served else None  # noqa: E731
        return {
            "uptime_s": time.time() - self.started_at,
            "requests_total": total,
            "requests": dict(self.requests),
            "computations": self.computations,
            "hit_rates": {
                "cache": hit_rate(self.requests["cache"]),
                "coalesced": hit_rate(self.requests["coalesced"]),
            },
            "worker_restarts": self.worker_restarts,
            "worker_retries": self.worker_retries,
            "queue_high_water": self.queue_high_water,
            "latency": {
                "request": self.request_latency.snapshot(),
                "compute": self.compute_latency.snapshot(),
            },
        }

