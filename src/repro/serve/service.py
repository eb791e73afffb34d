"""The persistent simulation service (``repro serve``).

One asyncio daemon turns the batch orchestration stack into a
long-lived, many-client system: requests arrive as JSON over HTTP,
results leave bit-identical to what a direct
:func:`repro.analysis.experiment.run_version` call produces, and the
expensive middles — compiled prep, finished summaries, even the worker
processes themselves — are shared across every request that can share
them.

Request lifecycle (``POST /v1/cell``)::

    normalize -> cache probe -> single-flight probe -> admission -> queue
        |            |               |                    |
        400       200 "cache"   200 "coalesced"      429 if >= backlog
                                                          |
                            dispatcher batch -> prep prebuild -> pool
                                                          |
                                      cache.put -> 200 "computed" (all
                                      coalesced waiters resolve together)

* **Single-flight**: identical in-flight cells (same
  :func:`repro.bench.cache.cache_key` of the normalized config — the
  exact key the result cache uses) share one computation.  A duplicate
  of a queued-or-running cell never consumes pool or queue capacity.
* **Backpressure**: admission is bounded by ``backlog`` *distinct*
  pending computations; beyond it, single-cell submits fail fast with
  429 plus a ``Retry-After`` estimate.  Sweeps opt into waiting
  (``wait=True`` internally) instead of failing — a sweep is one
  client prepared to sit on the connection.
* **Cache-aware coalescing**: the dispatcher drains the queue in small
  batches and prebuilds each distinct prep artifact once (in the
  parent, via :func:`~repro.analysis.experiment.prebuild_prep`) before
  fanning cells to the warm pool — workers load census/DAG/plans from
  the prep store instead of rebuilding them per cell.
* **Drain contract** (SIGTERM/SIGINT): stop admitting (503
  ``draining``), finish everything already admitted, flush and publish
  the audit log, close the pool, exit 0.

Observability: ``GET /healthz`` (liveness + drain state),
``GET /metrics`` (queue depth, hit rates, latency percentiles, worker
restarts — :class:`~repro.serve.metrics.ServiceMetrics`), and a
per-request JSONL audit stream written through
:class:`~repro.trace.sink.JSONLSink` (crash-safe ``.part`` + atomic
publish on drain).
"""

from __future__ import annotations

import asyncio
import json
import os
import reprlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Optional

from repro.bench.cache import ResultCache
from repro.bench.pool import WarmPool
from repro.bench.runner import (
    Cell,
    DEFAULT_BLOCK_COUNT,
    REGENT_BLOCK_COUNT,
    WorkerFailure,
    _pool_worker,
    expand_grid,
    prebuild_cell_config,
)
from repro.serve.http import (
    HttpError,
    Request,
    handle_http_connection,
    json_response,
)
from repro.serve.metrics import ServiceMetrics
from repro.sim.cost import COST_MODEL_VERSION
from repro.sim.engine import RunResultSummary
from repro.trace.events import EVENT_KINDS
from repro.trace.sink import JSONLSink

__all__ = [
    "AuditEvent",
    "BackgroundService",
    "ServeConfig",
    "SimulationService",
    "cell_to_doc",
    "normalize_cell",
    "serve_worker",
    "sweep_cells_from_doc",
]

_MACHINES = ("broadwell", "epyc")
_SOLVERS = ("lanczos", "lobpcg")
_VERSIONS = ("libcsr", "libcsb", "deepsparse", "hpx", "regent")

_CELL_FIELDS = {"machine", "matrix", "solver", "version", "block_count",
                "iterations", "width", "first_touch", "seed"}


class AuditEvent(NamedTuple):
    """One line of the service's JSONL audit log.

    Reuses the trace-event serialization contract
    (:func:`repro.trace.events.event_to_dict`), so
    :class:`~repro.trace.sink.JSONLSink` streams it unchanged and
    :func:`repro.trace.sink.read_jsonl` loads audit files back.
    ``wall`` is wall-clock epoch seconds — the only timestamp that
    makes sense for a daemon — unlike simulation events, whose times
    are simulated seconds.
    """

    kind = "audit"

    wall: float
    method: str
    path: str
    key: Optional[str]
    source: str
    status: int
    latency_s: float
    error: Optional[str] = None
    cells: int = 1


# Let read_jsonl() round-trip audit files like any other event stream.
EVENT_KINDS.setdefault("audit", AuditEvent)


def _require_int(doc: dict, name: str, default, minimum: int,
                 maximum: int = 1 << 31):
    value = doc.get(name, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise HttpError(400, f"{name!r} must be an integer")
    if not minimum <= value <= maximum:
        raise HttpError(400, f"{name!r} out of range [{minimum}, "
                             f"{maximum}]: {value}")
    return value


def normalize_cell(doc: dict) -> Cell:
    """Validate a request body into a canonical :class:`Cell`.

    Every reachable failure is an :class:`HttpError` 400 with a
    message naming the offending field — a typo must never reach a
    worker process as an exception.  Offending values are echoed
    through :func:`reprlib.repr`, which bounds their depth and length.
    """
    from repro.matrices.suite import SUITE

    unknown = set(doc) - _CELL_FIELDS
    if unknown:
        raise HttpError(400, f"unknown cell field(s): "
                             f"{', '.join(sorted(unknown))}")
    matrix = doc.get("matrix")
    if not isinstance(matrix, str) or matrix not in SUITE:
        raise HttpError(400, f"'matrix' must be one of the Table 1 "
                             f"suite, got {reprlib.repr(matrix)}")
    machine = doc.get("machine", "broadwell")
    if machine not in _MACHINES:
        raise HttpError(400, f"'machine' must be one of {_MACHINES}, "
                             f"got {reprlib.repr(machine)}")
    solver = doc.get("solver", "lanczos")
    if solver not in _SOLVERS:
        raise HttpError(400, f"'solver' must be one of {_SOLVERS}, "
                             f"got {reprlib.repr(solver)}")
    version = doc.get("version", "deepsparse")
    if version not in _VERSIONS:
        raise HttpError(400, f"'version' must be one of {_VERSIONS}, "
                             f"got {reprlib.repr(version)}")
    block_count = _require_int(doc, "block_count", None, 1, 1 << 20)
    if block_count is None:
        table = (REGENT_BLOCK_COUNT if version == "regent"
                 else DEFAULT_BLOCK_COUNT)
        block_count = table.get(machine, 64)
    iterations = _require_int(doc, "iterations", 2, 1, 10000)
    width = _require_int(doc, "width", None, 1, 4096)
    seed = _require_int(doc, "seed", 0, 0)
    first_touch = doc.get("first_touch", True)
    if not isinstance(first_touch, bool):
        raise HttpError(400, "'first_touch' must be a boolean")
    return Cell(machine=machine, matrix=matrix, solver=solver,
                version=version, block_count=block_count,
                iterations=iterations, width=width,
                first_touch=first_touch, seed=seed)


def sweep_cells_from_doc(doc: dict, max_cells: int):
    """Validate a ``/v1/sweep`` body into a list of :class:`Cell`.

    Enforces ``max_cells`` before expanding the grid.  Every reachable
    failure is an :class:`HttpError` 400.
    """
    grid_fields = {"machines", "matrices", "solvers", "versions",
                   "block_counts", "iterations", "width",
                   "first_touch", "seed"}
    unknown = set(doc) - grid_fields
    if unknown:
        raise HttpError(400, f"unknown sweep field(s): "
                             f"{', '.join(sorted(unknown))}")
    if not doc.get("matrices"):
        raise HttpError(400, "'matrices' (non-empty list) required")
    axes = {
        "machines": doc.get("machines", ["broadwell"]),
        "matrices": doc["matrices"],
        "solvers": doc.get("solvers", ["lanczos"]),
        "versions": doc.get("versions", list(_VERSIONS)),
        "block_counts": doc.get("block_counts"),  # None: rule of thumb
    }
    # Sized before expansion: five long axes would otherwise multiply
    # into billions of cells before the limit check could refuse them.
    n_cells = 1
    for name, axis in axes.items():
        if axis is None and name == "block_counts":
            continue
        if not isinstance(axis, list):
            raise HttpError(400, f"{name!r} must be a list")
        n_cells *= len(axis)
    if n_cells > max_cells:
        raise HttpError(400, f"sweep of {n_cells} cells exceeds "
                             f"the {max_cells}-cell limit")
    try:
        cells = expand_grid(
            **axes,
            iterations=int(doc.get("iterations", 2)),
            width=doc.get("width"),
            first_touch=bool(doc.get("first_touch", True)),
            seed=int(doc.get("seed", 0)),
        )
    except (TypeError, ValueError, OverflowError) as e:
        # OverflowError: int() of a JSON 1e400 (infinity).
        raise HttpError(400, f"bad sweep grid: {e}") from None
    return cells


def cell_to_doc(cell: Cell) -> dict:
    """One grid cell as a ``/v1/cell`` request body."""
    return {
        "machine": cell.machine, "matrix": cell.matrix,
        "solver": cell.solver, "version": cell.version,
        "block_count": cell.block_count,
        "iterations": cell.iterations,
        **({"width": cell.width} if cell.width is not None else {}),
        "first_touch": cell.first_touch, "seed": cell.seed,
    }


def serve_worker(config: dict) -> tuple:
    """Per-request worker entry (module-level: must pickle).

    Delegates to the bench pool worker — same stderr capture, same
    :class:`WorkerFailure` contract — after an optional artificial
    delay.  ``REPRO_SERVE_TEST_DELAY`` (seconds) exists so the
    concurrency tests and the drain test can hold a request in flight
    deterministically; it is never set in production.
    """
    delay = float(os.environ.get("REPRO_SERVE_TEST_DELAY", "0") or 0.0)
    if delay > 0:
        time.sleep(delay)
    return _pool_worker(config)


@dataclass
class ServeConfig:
    """Everything ``repro serve`` can be told from the command line."""

    host: str = "127.0.0.1"
    port: int = 8477          # 0 = ephemeral (the bound port is reported)
    jobs: int = 0             # 0 = inline worker threads (no fork)
    backlog: int = 64         # max distinct pending computations
    batch_max: int = 8        # dispatcher batch size (prep coalescing)
    timeout: Optional[float] = None   # per-cell pool budget, seconds
    attempts: int = 2
    backoff: float = 0.25
    audit_path: Optional[str] = None
    cache: Optional[ResultCache] = None   # default: process-wide cache
    max_sweep_cells: int = 1024
    worker: Callable[[dict], tuple] = field(default=serve_worker,
                                            repr=False)


class _Pending(NamedTuple):
    """One admitted computation travelling queue -> pool."""

    key: str
    config: dict
    future: asyncio.Future


class SimulationService:
    """The daemon: routes, queue, single-flight table, dispatcher."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.cache = self.config.cache
        if self.cache is None:
            from repro.bench.cache import default_cache

            self.cache = default_cache()
        self.metrics = ServiceMetrics()
        self.pool = WarmPool(jobs=self.config.jobs,
                             timeout=self.config.timeout,
                             attempts=self.config.attempts,
                             backoff=self.config.backoff,
                             worker=self.config.worker,
                             metrics=self.metrics)
        self.port: Optional[int] = None      # resolved after start()
        self._active_requests = 0
        self._draining = False
        self._stopped = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: set = set()
        self._audit: Optional[JSONLSink] = None
        if self.config.audit_path:
            self._audit = JSONLSink(self.config.audit_path)
        self._inflight: Dict[str, asyncio.Future] = {}
        self._queue: asyncio.Queue = asyncio.Queue()
        self._space = asyncio.Condition()
        self._pending_compute = 0
        self._dispatcher: Optional[asyncio.Task] = None
        self._compute_tasks: set = set()
        self._sem = asyncio.Semaphore(max(1, self.config.jobs))
        self._prebuilt: set = set()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self.pool.start()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_stopped(self) -> None:
        await self._stopped.wait()

    async def _close_server(self) -> None:
        """Stop accepting, then reap idle keep-alive connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)

    async def drain(self) -> None:
        """Graceful shutdown: finish admitted work, refuse the rest.

        Idempotent; safe to call from a signal handler via
        ``asyncio.create_task``.
        """
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        async with self._space:
            self._space.notify_all()   # wake queued sweep admissions
        # Everything admitted before the flag flipped must finish —
        # including cells still sitting in the dispatcher queue.
        while self._inflight:
            await asyncio.gather(*list(self._inflight.values()),
                                 return_exceptions=True)
        # Let responders holding freshly-resolved futures write their
        # responses and audit lines before the sink closes.
        while self._active_requests:
            await asyncio.sleep(0.01)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        if self._compute_tasks:
            await asyncio.gather(*list(self._compute_tasks),
                                 return_exceptions=True)
        self.pool.close()
        if self._audit is not None:
            self._audit.close()
        await self._close_server()
        self._stopped.set()

    # -- the single-flight submit path ---------------------------------
    async def submit_cell(self, doc: dict, wait: bool = False) -> tuple:
        """(status, payload, source) for one cell request.

        ``wait=False`` (single-cell API) fails fast with 429 when the
        backlog is full; ``wait=True`` (sweep cells) blocks for space.
        Counts itself into the metrics exactly once, whatever path the
        request takes.
        """
        t0 = time.perf_counter()
        status, payload, source = await self._submit_inner(doc, wait)
        self.metrics.count_request(source, time.perf_counter() - t0)
        return status, payload, source

    async def _submit_inner(self, doc: dict, wait: bool) -> tuple:
        try:
            cell = normalize_cell(doc)
        except HttpError as e:
            return e.status, {"error": e.detail}, "invalid"
        config = cell.config()
        key = self.cache.key(config)
        if self._draining:
            return 503, {"error": "draining", "key": key}, \
                "rejected_draining"

        hit = self.cache.get(config)
        if hit is not None:
            return 200, self._ok_payload(key, "cache", hit), "cache"

        fut = self._inflight.get(key)
        if fut is not None:
            return await self._await_result(key, fut, "coalesced")

        admitted = await self._admit(wait)
        if not admitted:
            retry_after = self._retry_after_estimate()
            return 429, {"error": "queue full", "key": key,
                         "pending": self._pending_compute,
                         "retry_after_s": retry_after}, "rejected_busy"
        if self._draining:   # flag may have flipped while waiting
            await self._release_slot()
            return 503, {"error": "draining", "key": key}, \
                "rejected_draining"

        fut = asyncio.get_running_loop().create_future()
        # Mark the exception retrieved even if every waiter got
        # cancelled, so a failed cell never logs "exception was never
        # retrieved" at GC time.
        fut.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None)
        self._inflight[key] = fut
        self._queue.put_nowait(_Pending(key, config, fut))
        self.metrics.note_queue_depth(self._pending_compute)
        return await self._await_result(key, fut, "computed")

    async def _await_result(self, key: str, fut: asyncio.Future,
                            source: str) -> tuple:
        try:
            summary = await fut
        except WorkerFailure as e:
            return 500, {"error": e.error, "key": key,
                         "stderr_tail": e.stderr_tail or None}, "error"
        except Exception as e:  # pragma: no cover - defensive
            return 500, {"error": f"{type(e).__name__}: {e}",
                         "key": key}, "error"
        return 200, self._ok_payload(key, source, summary), source

    def _ok_payload(self, key: str, source: str,
                    summary: RunResultSummary) -> dict:
        return {"key": key, "source": source,
                "summary": summary.to_dict()}

    # -- admission / backpressure --------------------------------------
    async def _admit(self, wait: bool) -> bool:
        if self._pending_compute < self.config.backlog:
            self._pending_compute += 1
            return True
        if not wait:
            return False
        async with self._space:
            await self._space.wait_for(
                lambda: self._pending_compute < self.config.backlog
                or self._draining)
            if self._draining:
                # Caller re-checks the flag; take no slot.
                self._pending_compute += 1
                return True
            self._pending_compute += 1
            return True

    async def _release_slot(self) -> None:
        self._pending_compute -= 1
        async with self._space:
            self._space.notify(1)

    def _retry_after_estimate(self) -> float:
        mean = self.metrics.compute_latency.snapshot()["mean_s"] or 0.5
        lanes = max(1, self.config.jobs)
        return round(max(0.1, self._pending_compute * mean / lanes), 2)

    # -- dispatcher / computation --------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.config.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            await self._prebuild_batch(batch)
            for item in batch:
                task = asyncio.create_task(self._compute(item))
                self._compute_tasks.add(task)
                task.add_done_callback(self._compute_tasks.discard)

    async def _prebuild_batch(self, batch) -> None:
        """Build each distinct prep artifact of the batch once, here.

        The cache-aware half of batching: cells sharing a decomposition
        (same matrix/block size/solver/options) share a prep artifact,
        so the parent builds it once and every pool worker *loads* it.
        Only worth the thread hop when real worker processes exist, and
        a failure is deliberately swallowed — the cell's own run will
        surface it through the retry machinery with full diagnostics.
        """
        if self.config.jobs <= 0:
            return
        from repro.bench.prep import default_prep_store

        if not default_prep_store().enabled:
            return
        for item in batch:
            c = item.config
            sig = (c["machine"], c["matrix"], c["solver"], c["version"],
                   c.get("block_count"), c.get("width"),
                   c.get("first_touch", True))
            if sig in self._prebuilt:
                continue
            self._prebuilt.add(sig)
            try:
                await asyncio.to_thread(prebuild_cell_config, c)
            except Exception:
                self._prebuilt.discard(sig)

    async def _compute(self, item: _Pending) -> None:
        async with self._sem:
            try:
                summary_dict, dt = await self.pool.run(item.config)
            except Exception as e:
                await self._release_slot()
                self._inflight.pop(item.key, None)
                if not item.future.done():
                    item.future.set_exception(e)
                return
        summary = RunResultSummary.from_dict(summary_dict)
        self.cache.put(item.config, summary)
        self.metrics.count_computation(dt)
        await self._release_slot()
        self._inflight.pop(item.key, None)
        if not item.future.done():
            item.future.set_result(summary)

    # -- HTTP layer ----------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        await handle_http_connection(reader, writer, self._respond,
                                     self._conn_tasks)

    async def _respond(self, req: Request) -> bytes:
        t0 = time.perf_counter()
        self._active_requests += 1
        headers = None
        key = None
        cells = 1
        try:
            try:
                status, payload, source, key, cells = \
                    await self._route(req)
            except HttpError as e:
                status, payload, source = e.status, \
                    {"error": e.detail}, "invalid"
                self.metrics.count_request(
                    source, time.perf_counter() - t0)
            except Exception as e:
                status, payload, source = 500, \
                    {"error": f"{type(e).__name__}: {e}"}, "error"
                self.metrics.count_request(
                    source, time.perf_counter() - t0)
            if status == 429 and "retry_after_s" in payload:
                headers = {"Retry-After":
                           str(max(1, int(payload["retry_after_s"])))}
            if source is not None and not req.path.startswith(
                    ("/healthz", "/metrics")):
                self._audit_emit(req, key, source, status,
                                 time.perf_counter() - t0,
                                 payload.get("error"), cells)
            _, wire = json_response(status, payload,
                                    extra_headers=headers,
                                    keep_alive=req.keep_alive)
            return wire
        finally:
            self._active_requests -= 1

    def _audit_emit(self, req: Request, key, source, status, latency,
                    error, cells) -> None:
        if self._audit is None:
            return
        try:
            self._audit.emit(AuditEvent(
                wall=time.time(), method=req.method, path=req.path,
                key=key, source=source, status=status,
                latency_s=latency,
                error=str(error) if error else None, cells=cells))
        except Exception:
            pass  # the audit stream must never take a request down

    async def _route(self, req: Request) -> tuple:
        """-> (status, payload, source, key, n_cells)."""
        if req.path == "/healthz":
            return 200, self._healthz_payload(), None, None, 0
        if req.path == "/metrics":
            return 200, self.metrics_payload(), None, None, 0
        if req.path == "/v1/cell":
            if req.method != "POST":
                raise HttpError(405, "POST required")
            doc = req.json()
            status, payload, source = await self.submit_cell(doc)
            return status, payload, source, payload.get("key"), 1
        if req.path == "/v1/sweep":
            if req.method != "POST":
                raise HttpError(405, "POST required")
            return await self._route_sweep(req.json())
        raise HttpError(404, f"no route for {req.path}")

    async def _route_sweep(self, doc: dict) -> tuple:
        cells = sweep_cells_from_doc(doc, self.config.max_sweep_cells)
        # Every cell goes through the one submit path, so dedupe,
        # caching, and single-flight apply exactly as for single
        # requests — a sweep racing identical single submits coalesces
        # with them.  Cells *wait* for backlog space rather than 429.
        results = await asyncio.gather(*[
            self.submit_cell(cell_to_doc(c), wait=True)
            for c in cells
        ])
        entries = []
        worst = 200
        for (status, payload, _source), cell in zip(results, cells):
            entries.append({"cell": cell.label(), "status": status,
                            **payload})
            worst = max(worst, status)
        return 200, {"n_cells": len(entries),
                     "worst_status": worst,
                     "cells": entries}, "sweep", None, len(entries)

    # -- observability -------------------------------------------------
    def _healthz_payload(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": time.time() - self.metrics.started_at,
            "pending_compute": self._pending_compute,
            "inflight_keys": len(self._inflight),
            "jobs": self.config.jobs,
        }

    def metrics_payload(self) -> dict:
        snap = self.metrics.snapshot()
        snap["queue"] = {
            "depth": self._queue.qsize(),
            "pending_compute": self._pending_compute,
            "backlog": self.config.backlog,
            "high_water": self.metrics.queue_high_water,
        }
        snap["pool"] = self.pool.stats()
        snap["result_cache"] = self.cache.stats()
        snap["draining"] = self._draining
        snap["cost_model_version"] = COST_MODEL_VERSION
        return snap


# ----------------------------------------------------------------------
def install_signal_handlers(service: SimulationService,
                            loop: asyncio.AbstractEventLoop) -> None:
    """SIGTERM/SIGINT -> graceful drain (the contract CI relies on)."""
    import signal

    def _begin_drain():
        asyncio.ensure_future(service.drain())

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, _begin_drain)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-Unix fallback: default handlers remain


async def serve_main(config: ServeConfig,
                     announce: Optional[Callable[[str], None]] = None
                     ) -> int:
    """Run the daemon until drained; returns the process exit code."""
    service = SimulationService(config)
    await service.start()
    install_signal_handlers(service, asyncio.get_running_loop())
    if announce is not None:
        announce(f"repro serve: listening on "
                 f"http://{config.host}:{service.port} "
                 f"(jobs={config.jobs}, backlog={config.backlog}, "
                 f"pid={os.getpid()})")
    await service.serve_until_stopped()
    return 0


class BackgroundService:
    """Run a :class:`SimulationService` on a thread-owned event loop.

    The loopback test harness and embedding callers use this to stand
    a real daemon up inside the current process::

        with BackgroundService(ServeConfig(port=0)) as bg:
            client = ServiceClient(port=bg.port)
            ...

    ``stop()`` performs the same graceful drain as SIGTERM.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig(port=0)
        self.service: Optional[SimulationService] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "BackgroundService":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") \
                from self._startup_error
        if self.port is None:
            raise RuntimeError("service did not come up within 30 s")
        return self

    def _run(self) -> None:
        async def main():
            self.service = SimulationService(self.config)
            try:
                await self.service.start()
            except BaseException as e:
                self._startup_error = e
                self._ready.set()
                raise
            self.port = self.service.port
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self.service.serve_until_stopped()

        try:
            asyncio.run(main())
        except BaseException:
            self._ready.set()

    def drain(self, timeout: float = 30.0) -> None:
        if (self._loop is None or self.service is None
                or self._loop.is_closed()):
            return  # already drained (idempotent, like SIGTERM twice)
        import concurrent.futures

        coro = self.service.drain()
        try:
            fut = asyncio.run_coroutine_threadsafe(coro, self._loop)
            # A loop that shuts down before running the coroutine (a
            # concurrent drain won the race) never resolves ``fut``;
            # the loop thread exiting says the same thing.
            deadline = time.monotonic() + timeout
            while not fut.done() and self._thread.is_alive():
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"drain did not finish within {timeout} s")
                self._thread.join(0.05)
            if fut.done():
                fut.result()
            else:
                coro.close()  # never run: no "never awaited" warning
        except (RuntimeError, concurrent.futures.CancelledError):
            # Loop stopped between the check and the call, or a
            # concurrent drain won the race and shut it down first —
            # either way the service is down, which is what we wanted.
            coro.close()

    def stop(self, timeout: float = 30.0) -> None:
        self.drain(timeout=timeout)
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundService":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False
