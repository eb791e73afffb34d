"""The one failure policy for every process fan-out of simulated cells.

:class:`WarmPool` runs cells on one ``ProcessPoolExecutor`` and keeps it
alive across calls: workers import the simulation stack once
(``initializer``) and keep their per-process prep-store memos warm.
:class:`~repro.bench.runner.ExperimentRunner` drives one pool per sweep
through :func:`fan_out`, ``repro bench --trace`` fans its traced cells
over the same function, and ``repro serve`` keeps one pool for the life
of the daemon.  The policy, per cell:

* a cell that raises is retried with exponential backoff
  (``backoff * 2**(attempt-1)``, capped at 16x), up to ``attempts``
  tries, then surfaces as :class:`~repro.bench.runner.WorkerFailure`
  carrying the worker's captured stderr tail;
* ``timeout`` bounds each cell from the moment it is dispatched; a cell
  that exceeds it gets the wedged pool killed (:func:`_kill_pool`) and
  replaced, and is charged an attempt.  Its siblings in flight on the
  killed pool see ``BrokenProcessPool`` and are resubmitted uncharged.
  A timeout kill never counts toward degradation: inline execution
  cannot preempt, so degrading on timeouts would let the next wedged
  cell hang its caller for good;
* a crashed pool (``BrokenProcessPool``) is rebuilt — the affected
  cells are *not* charged an attempt, since a dead sibling worker is
  not their fault — at most ``max_pool_rebuilds`` times, after which
  the pool degrades to inline execution for the rest of its life.

Inline execution (``jobs=0``, or after degradation) runs cells one at a
time on a single worker thread of this process.  It cannot preempt a
cell, so ``timeout`` does not apply there.  One thread keeps
``contextlib.redirect_stderr`` in the worker race-free and bounds an
interrupted caller's wait (:meth:`WarmPool.close`) to the one cell
already running.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence

from repro.bench.runner import SweepError, WorkerFailure, _pool_worker

__all__ = ["WarmPool", "fan_out"]


def _warm_init() -> None:
    """Pay the import bill once per process (parent and workers)."""
    import repro.analysis.experiment  # noqa: F401  (heavy import chain)
    import repro.bench.prep           # noqa: F401


def _worker_init() -> None:
    """Pool-process initializer; runs in the forked worker only.

    A forked worker inherits its parent's signal setup.  In ``repro
    serve`` that includes the event loop's signal wakeup fd, so the
    SIGTERM that :func:`_kill_pool` (or the executor's own broken-pool
    cleanup) sends a worker would be written into the daemon's wakeup
    socket and start the daemon's drain.  Workers get the default
    SIGTERM/SIGINT dispositions and no wakeup fd instead.
    """
    import signal

    signal.set_wakeup_fd(-1)
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, signal.SIG_DFL)
    _warm_init()


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even if its workers are wedged.

    ``shutdown`` alone waits for running tasks; a cell stuck in an
    infinite loop would hold its caller forever, so the worker
    processes are terminated first (``_processes`` is private API, but
    the stdlib offers no public kill switch).
    """
    procs = getattr(pool, "_processes", None) or {}
    for p in list(procs.values()):
        try:
            p.terminate()
        except OSError:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


class WarmPool:
    """One persistent executor, shared by every cell run through it.

    ``jobs`` worker processes (``0`` = inline); ``timeout`` /
    ``attempts`` / ``backoff`` are the policy knobs above.  ``worker``
    (``config -> result tuple``, module-level so it pickles) is
    injectable so the failure-path tests can substitute crashing,
    hanging or chatty workers; ``metrics`` optionally counts retries
    and restarts (:class:`~repro.serve.metrics.ServiceMetrics`).
    """

    #: Pool rebuilds tolerated before degrading to inline execution.
    max_pool_rebuilds = 3

    def __init__(self, jobs: int = 0,
                 timeout: Optional[float] = None,
                 attempts: int = 2,
                 backoff: float = 0.25,
                 worker: Callable[[dict], tuple] = _pool_worker,
                 metrics=None):
        self.jobs = max(0, int(jobs))
        self.timeout = timeout
        self.attempts = max(1, int(attempts))
        self.backoff = max(0.0, float(backoff))
        self.worker = worker
        self.metrics = metrics
        self._pool: Optional[ProcessPoolExecutor] = None
        self._inline = ThreadPoolExecutor(max_workers=1,
                                          thread_name_prefix="repro-inline")
        self._generation = 0
        self._rebuilds = 0
        self._inline_only = self.jobs == 0

    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        return "inline" if self._inline_only else "process"

    def start(self) -> None:
        """Spin the workers up ahead of the first cell.

        The caller pays the import bill here too, so workers forked on
        the first cell inherit the modules instead of importing them
        while that cell waits.
        """
        _warm_init()
        if not self._inline_only:
            self._ensure_pool()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs, initializer=_worker_init)
            except OSError:
                # Cannot fork (resource limits): degrade permanently.
                self._inline_only = True
                raise
        return self._pool

    def _retire_pool(self, generation: int, kill: bool) -> None:
        """Tear down the current pool once per failure generation.

        Concurrent cells all observe the same broken pool; the
        generation counter makes sure only the first of them rebuilds,
        and the others simply pick up the fresh executor.  Only a crash
        (``kill=False``) counts toward ``max_pool_rebuilds``; a timeout
        kill just replaces the pool.
        """
        if generation != self._generation:
            return  # somebody else already rebuilt
        self._generation += 1
        pool, self._pool = self._pool, None
        if pool is not None:
            if kill:
                _kill_pool(pool)
            else:
                pool.shutdown(wait=False, cancel_futures=True)
        if self.metrics is not None:
            self.metrics.worker_restarts += 1
        if not kill:
            self._rebuilds += 1
            if self._rebuilds > self.max_pool_rebuilds:
                self._inline_only = True

    # ------------------------------------------------------------------
    async def run(self, config: dict) -> tuple:
        """Execute one cell; returns the worker's result tuple.

        Raises :class:`WorkerFailure` once the cell has exhausted its
        attempts.  Timeouts and pool crashes are absorbed per the
        policy above.
        """
        attempt = 0
        while True:
            generation = self._generation
            if not self._inline_only:
                try:
                    pool = self._ensure_pool()
                except OSError:
                    continue  # cannot fork: flipped to inline-only
            try:
                if self._inline_only:
                    return await asyncio.get_running_loop().run_in_executor(
                        self._inline, self.worker, config)
                fut = asyncio.wrap_future(pool.submit(self.worker, config))
                return await asyncio.wait_for(fut, self.timeout)
            except asyncio.TimeoutError:
                self._retire_pool(generation, kill=True)
                attempt += 1
                failure = WorkerFailure(
                    f"timed out (> {self.timeout:.1f} s/cell)")
            except BrokenProcessPool:
                # Not charged an attempt — see the module docstring.
                self._retire_pool(generation, kill=False)
                continue
            except WorkerFailure as e:
                attempt += 1
                failure = e
            except Exception as e:
                attempt += 1
                failure = WorkerFailure(f"{type(e).__name__}: {e}")
            if attempt >= self.attempts:
                raise failure
            if self.metrics is not None:
                self.metrics.worker_retries += 1
            if self.backoff:
                await asyncio.sleep(
                    self.backoff * 2 ** min(attempt - 1, 4))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the executors down; queued cells are cancelled.

        Waits for an inline cell that is still running (an interrupted
        caller): its worker holds ``sys.stderr`` redirected, and the
        caller's traceback would otherwise print into that buffer.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        self._inline.shutdown(wait=True, cancel_futures=True)

    def stats(self) -> dict:
        return {
            "jobs": self.jobs,
            "mode": self.mode,
            "rebuilds": self._rebuilds,
        }


def fan_out(configs: Sequence, jobs: int, *,
            labels: Sequence[str],
            keys: Sequence[str],
            timeout: Optional[float] = None,
            attempts: int = 2,
            backoff: float = 0.25,
            worker: Callable[[dict], tuple] = _pool_worker,
            on_result: Optional[Callable[[int, object], None]] = None,
            note: Optional[Callable[[str], None]] = None) -> List[object]:
    """Run a batch of cells through one :class:`WarmPool`; blocking.

    Up to ``jobs`` lanes (one process each, never more than there are
    cells; a single lane runs inline) are kept full under an
    ``asyncio.Semaphore``, so a dispatched cell never queues inside the
    executor and ``timeout`` covers its run alone.  ``configs`` are the
    worker's arguments, one per cell, named by ``labels`` and ``keys``
    in the failure table.  Returns each cell's worker result in input
    order; ``on_result(index, result)`` fires as each cell succeeds,
    and ``note`` hears once if the pool degrades to inline execution.
    Raises :class:`~repro.bench.runner.SweepError` listing every cell
    that exhausted its attempts — after the others have all finished.
    """
    lanes = max(1, min(jobs, len(configs)))
    pool = WarmPool(jobs=lanes if lanes > 1 else 0, timeout=timeout,
                    attempts=attempts, backoff=backoff, worker=worker)
    mode = pool.mode

    async def one(sem: asyncio.Semaphore, index: int, config: dict):
        nonlocal mode
        async with sem:
            try:
                outcome = await pool.run(config)
            except WorkerFailure as e:
                outcome = e
        if pool.mode != mode:
            mode = pool.mode
            if note is not None:
                note(f"[pool]  unhealthy after {pool.max_pool_rebuilds} "
                     "rebuilds; degrading to inline execution")
        if on_result is not None and not isinstance(outcome, WorkerFailure):
            on_result(index, outcome)
        return outcome

    async def gather() -> list:
        sem = asyncio.Semaphore(lanes)
        return await asyncio.gather(
            *(one(sem, i, c) for i, c in enumerate(configs)))

    try:
        outcomes = asyncio.run(gather())
    finally:
        pool.close()
    failures = [
        {"cell": label, "key": key, "attempts": pool.attempts,
         "error": o.error, "stderr": o.stderr_tail}
        for label, key, o in zip(labels, keys, outcomes)
        if isinstance(o, WorkerFailure)
    ]
    if failures:
        raise SweepError(failures)
    return outcomes
