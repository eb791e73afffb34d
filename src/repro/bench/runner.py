"""The parallel experiment orchestrator.

:class:`ExperimentRunner` is the one path every sweep goes through:

1. expand a grid spec into cells (:func:`expand_grid`),
2. dedupe identical cells,
3. serve what the on-disk cache already has,
4. fan the misses out over a :class:`~repro.bench.pool.WarmPool` (the
   simulator is pure Python and CPU-bound, so *processes*, not
   threads, are the right parallelism — the GIL serializes threads),
5. persist fresh summaries and return results in input order.

Result ordering is deterministic and independent of ``jobs``: cells
are keyed, executed by key order of first appearance, and re-assembled
into the caller's order, so ``--jobs 8`` returns exactly what
``--jobs 1`` returns.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.bench.cache import ResultCache, default_cache
from repro.sim.engine import RunResultSummary

__all__ = [
    "Cell",
    "DEFAULT_BLOCK_COUNT",
    "DEFAULT_MATRICES",
    "ExperimentRunner",
    "REGENT_BLOCK_COUNT",
    "SweepError",
    "WorkerFailure",
    "expand_grid",
    "prebuild_cell_config",
    "run_captured",
    "run_cell_config",
]

#: Rule-of-thumb block counts for the headline comparisons (§5.4:
#: DeepSparse/HPX 32–63 on Broadwell, 64–127 on EPYC).
DEFAULT_BLOCK_COUNT = {"broadwell": 48, "epyc": 96}
#: Regent favours coarse grains (paper: 16–31); on the simulated EPYC
#: its workers starve below ~96 blocks (deviation in EXPERIMENTS.md).
REGENT_BLOCK_COUNT = {"broadwell": 24, "epyc": 96}

#: Representative suite subset — every sparsity family, small through
#: large.  The figure benchmarks and ``repro bench`` default to it.
DEFAULT_MATRICES = (
    "inline1", "Flan_1565", "Queen4147", "Nm7",
    "nlpkkt160", "nlpkkt240", "twitter7", "webbase-2001",
)


@dataclass(frozen=True)
class Cell:
    """One point of the experiment grid."""

    machine: str
    matrix: str
    solver: str
    version: str
    block_count: int = 64
    iterations: int = 2
    width: Optional[int] = None
    first_touch: bool = True
    seed: int = 0

    def config(self) -> dict:
        """Canonical key material for the result cache.

        ``libcsr`` ignores the block count (its grain is one row chunk
        per core), so it is normalized out of the key — every
        ``libcsr`` cell of a block-count sweep hits the same entry.
        """
        return {
            "machine": self.machine,
            "matrix": self.matrix,
            "solver": self.solver,
            "version": self.version,
            "block_count": (None if self.version == "libcsr"
                            else int(self.block_count)),
            "iterations": int(self.iterations),
            "width": self.width,
            "first_touch": bool(self.first_touch),
            "seed": int(self.seed),
        }

    def label(self) -> str:
        return (f"{self.machine}/{self.matrix}/{self.solver}/"
                f"{self.version}@{self.block_count}x{self.iterations}")


def run_cell_config(config: dict) -> RunResultSummary:
    """Simulate one cell (cache-oblivious; the runner handles caching)."""
    from repro.analysis.experiment import run_version

    return run_version(
        config["machine"],
        config["matrix"],
        config["solver"],
        config["version"],
        block_count=int(config.get("block_count") or 64),
        iterations=int(config.get("iterations", 2)),
        width=config.get("width"),
        first_touch=bool(config.get("first_touch", True)),
        seed=int(config.get("seed", 0)),
        record_flow=False,
    ).summary()


def prebuild_cell_config(config: dict) -> dict:
    """Build (or load) the prep artifact one cell will run on.

    The one mapping from a cell config to
    :func:`~repro.analysis.experiment.prebuild_prep`; returns the prep
    config, whose :meth:`~repro.bench.prep.PrepStore.key` names the
    artifact.
    """
    from repro.analysis.experiment import prebuild_prep

    return prebuild_prep(
        config["machine"], config["matrix"], config["solver"],
        config["version"],
        block_count=int(config.get("block_count") or 64),
        width=config.get("width"),
        first_touch=bool(config.get("first_touch", True)),
    )


#: Stderr-tail capture budget: what a failure record retains of the
#: worker's stderr stream (warnings, native-library chatter, and the
#: formatted traceback).  Bounded so a chatty cell can't bloat the
#: failure table or the service audit log.
STDERR_TAIL_LINES = 20
STDERR_TAIL_CHARS = 4000


def stderr_tail(text: str, lines: int = STDERR_TAIL_LINES,
                chars: int = STDERR_TAIL_CHARS) -> str:
    """Last ``lines`` lines (at most ``chars`` chars) of a stream."""
    text = text[-chars * 4:]
    tail = "\n".join(text.splitlines()[-lines:])
    return tail[-chars:]


class WorkerFailure(RuntimeError):
    """A cell failed in a worker; carries the captured stderr tail.

    Raised by :func:`run_captured` instead of the original exception so
    the parent's failure table (and the serve layer's audit log) can
    show *what the worker printed* — warnings and the full traceback —
    not just the exception repr.  Both fields sit in ``args`` so the
    exception pickles across a ``ProcessPoolExecutor`` intact.
    """

    def __init__(self, error: str, stderr_tail: str = ""):
        super().__init__(error, stderr_tail)
        self.error = error
        self.stderr_tail = stderr_tail

    def __str__(self) -> str:
        return self.error


def run_captured(fn: Callable, *args):
    """``fn(*args)`` under stderr capture, for pool workers.

    On failure the exception is re-raised as a :class:`WorkerFailure`
    whose tail holds whatever the call wrote to stderr plus the
    formatted traceback — the parent process cannot see a pool child's
    stderr otherwise.
    """
    buf = io.StringIO()
    try:
        with contextlib.redirect_stderr(buf):
            return fn(*args)
    except Exception as e:
        traceback.print_exc(file=buf)
        raise WorkerFailure(f"{type(e).__name__}: {e}",
                            stderr_tail(buf.getvalue())) from None


def _pool_worker(config: dict) -> tuple:
    """Pool-worker entry: plain dicts in, plain dicts out (picklable)."""
    t0 = time.perf_counter()
    summary = run_captured(run_cell_config, config)
    return summary.to_dict(), time.perf_counter() - t0


class SweepError(RuntimeError):
    """A sweep finished with cells that failed every retry.

    ``failures`` is a list of ``{"cell", "key", "attempts", "error",
    "stderr"}`` dicts, one per exhausted cell, in first-appearance
    order; the message renders them as a table, with each non-empty
    stderr tail indented under its cell.  Successfully simulated cells
    were still cached before this was raised, so a re-run only repeats
    the failed work.
    """

    def __init__(self, failures: List[dict]):
        self.failures = failures
        lines = [f"{len(failures)} cell(s) failed after retries:"]
        for f in failures:
            lines.append(
                f"  {f['cell']}  attempts={f['attempts']}  {f['error']}"
            )
            for tail_line in (f.get("stderr") or "").splitlines():
                lines.append(f"      stderr| {tail_line}")
        super().__init__("\n".join(lines))


class ExperimentRunner:
    """Expand → dedupe → cache-check → (parallel) simulate → report.

    Parameters
    ----------
    cache:
        A :class:`ResultCache`; defaults to the process-wide one.
        Pass ``ResultCache(enabled=False)`` to force cold runs.
    jobs:
        Worker processes for cache misses.  ``1`` (default, or
        ``$REPRO_BENCH_JOBS``) runs inline, on one worker thread of
        this process — no pool, no pickling.
        ``0`` auto-detects: one worker per available CPU
        (``os.cpu_count()``).
    progress:
        Optional callable invoked with one line per completed cell.
    timeout:
        Per-cell wall-clock budget in seconds for pool execution
        (``None`` = unlimited), counted from the cell's dispatch; it
        bounds how long a wedged worker can hold the sweep.  Expired
        cells are retried, then reported in the failure table.  Inline
        execution cannot preempt a cell, so the timeout only applies
        when a pool is used.
    attempts:
        Total tries per cell (default 2: one run + one retry) before
        the cell lands in the failure table.
    backoff:
        Base of the exponential retry backoff in seconds (sleep
        ``backoff * 2**(attempt-1)`` before re-trying).
    pool_worker:
        The per-cell execution callable, ``config -> (summary_dict,
        seconds)``.  Injectable so the orchestration tests can run
        against crashing/hanging workers; everything else should keep
        the default.
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 jobs: Optional[int] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 timeout: Optional[float] = None,
                 attempts: int = 2,
                 backoff: float = 0.25,
                 pool_worker: Callable[[dict], tuple] = _pool_worker):
        self.cache = cache if cache is not None else default_cache()
        if jobs is None:
            jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
        jobs = int(jobs)
        if jobs == 0:
            jobs = os.cpu_count() or 1
        self.jobs = max(1, jobs)
        self.progress = progress
        self.timeout = timeout
        self.attempts = max(1, int(attempts))
        self.backoff = max(0.0, float(backoff))
        self.pool_worker = pool_worker
        self.report: List[dict] = []

    # ------------------------------------------------------------------
    def _note(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)

    def run_cells(self, cells: Sequence[Cell]) -> List[RunResultSummary]:
        """Run every cell; returns summaries in input order.

        Identical cells (after key normalization) are simulated once.
        """
        t_start = time.perf_counter()
        self.report = []
        order: List[str] = []            # unique keys, first-appearance order
        configs: Dict[str, dict] = {}
        labels: Dict[str, str] = {}
        keys: List[str] = []             # per input cell
        for cell in cells:
            config = cell.config()
            key = self.cache.key(config)
            keys.append(key)
            if key not in configs:
                configs[key] = config
                labels[key] = cell.label()
                order.append(key)

        results: Dict[str, RunResultSummary] = {}
        miss_keys: List[str] = []
        for key in order:
            t0 = time.perf_counter()
            hit = self.cache.get(configs[key])
            if hit is not None:
                results[key] = hit
                dt = time.perf_counter() - t0
                self.report.append({
                    "cell": labels[key], "key": key,
                    "cached": True, "seconds": dt,
                })
                self._note(f"[cache] {labels[key]} ({dt * 1e3:.1f} ms)")
            else:
                miss_keys.append(key)

        if miss_keys:
            if self.jobs > 1 and len(miss_keys) > 1:
                self._prebuild_prep(miss_keys, configs)
            self._run_misses(miss_keys, configs, labels, results)

        self.total_seconds = time.perf_counter() - t_start
        return [results[k] for k in keys]

    def _prebuild_prep(self, miss_keys, configs) -> None:
        """Build each distinct prep artifact once before the fan-out.

        Different cells (versions, iteration counts, seeds) share prep
        subkeys, so building in the parent means pool workers *load*
        the census/DAG/compiled plans instead of each rebuilding them.
        Repeats are free (the in-process dag memo absorbs them), a
        disabled store makes this a no-op, and a prebuild failure is
        swallowed — the cell's ordinary run will surface it with the
        full retry machinery.
        """
        from repro.bench.prep import default_prep_store

        store = default_prep_store()
        if not store.enabled:
            return
        t0 = time.perf_counter()
        built = set()
        for key in miss_keys:
            try:
                pc = prebuild_cell_config(configs[key])
            except Exception as e:
                self._note(f"[prep]  skipped ({type(e).__name__}: {e})")
                continue
            built.add(store.key(pc))
        if built:
            self._note(
                f"[prep]  {len(built)} artifact(s) ready in "
                f"{time.perf_counter() - t0:.2f} s"
            )

    def _run_misses(self, miss_keys, configs, labels, results) -> None:
        """Simulate the cache misses, surviving sick workers.

        The misses go through one :class:`~repro.bench.pool.WarmPool`
        with ``jobs`` lanes (:func:`~repro.bench.pool.fan_out`), whose
        failure policy — charged retries, per-cell timeouts, uncharged
        pool rebuilds, inline degradation — is the one every process
        fan-out shares.  Only cells that exhaust their attempts end up
        in the :class:`SweepError` failure table; everything else was
        simulated and cached before the raise.
        """
        from repro.bench.pool import fan_out

        def finish(index: int, outcome) -> None:
            summary_dict, dt = outcome
            self._finish_miss(miss_keys[index], configs, labels, results,
                              RunResultSummary.from_dict(summary_dict), dt)

        fan_out([configs[k] for k in miss_keys], self.jobs,
                labels=[labels[k] for k in miss_keys], keys=miss_keys,
                timeout=self.timeout, attempts=self.attempts,
                backoff=self.backoff, worker=self.pool_worker,
                on_result=finish, note=self._note)

    def _finish_miss(self, key, configs, labels, results, summary,
                     dt) -> None:
        self.cache.put(configs[key], summary)
        results[key] = summary
        self.report.append({
            "cell": labels[key], "key": key,
            "cached": False, "seconds": dt,
        })
        self._note(f"[run]   {labels[key]} ({dt:.2f} s)")

    # ------------------------------------------------------------------
    def run_grid(self, **grid) -> List[RunResultSummary]:
        """Shorthand: :func:`expand_grid` then :meth:`run_cells`."""
        return self.run_cells(expand_grid(**grid))

    def format_report(self) -> str:
        """Human-readable summary of the last :meth:`run_cells`."""
        hits = sum(1 for r in self.report if r["cached"])
        misses = len(self.report) - hits
        sim_s = sum(r["seconds"] for r in self.report if not r["cached"])
        lines = [
            f"{len(self.report)} unique cells: {hits} cached, "
            f"{misses} simulated ({sim_s:.2f} s simulation, "
            f"{getattr(self, 'total_seconds', 0.0):.2f} s wall, "
            f"jobs={self.jobs})",
        ]
        quarantined = self.cache.quarantined
        if quarantined:
            lines.append(
                f"  warning: {quarantined} corrupt cache entr"
                f"{'y' if quarantined == 1 else 'ies'} quarantined to "
                f"{self.cache.quarantine_dir()}"
            )
        slowest = sorted(
            (r for r in self.report if not r["cached"]),
            key=lambda r: -r["seconds"],
        )[:5]
        for r in slowest:
            lines.append(f"  slowest: {r['cell']} {r['seconds']:.2f} s")
        return "\n".join(lines)


def expand_grid(
    machines: Sequence[str] = ("broadwell",),
    matrices: Sequence[str] = (),
    solvers: Sequence[str] = ("lanczos",),
    versions: Sequence[str] = ("libcsr", "libcsb", "deepsparse", "hpx",
                               "regent"),
    block_counts: Optional[Sequence[int]] = None,
    iterations: int = 2,
    width: Optional[int] = None,
    first_touch: bool = True,
    seed: int = 0,
) -> List[Cell]:
    """Cartesian grid spec → cell list (deterministic order).

    With ``block_counts=None`` each version gets its §5.4 rule-of-thumb
    granularity for the machine (Regent coarser than DeepSparse/HPX).
    """
    cells = []
    for machine in machines:
        for matrix in matrices:
            for solver in solvers:
                for version in versions:
                    if block_counts is None:
                        table = (REGENT_BLOCK_COUNT
                                 if version == "regent"
                                 else DEFAULT_BLOCK_COUNT)
                        bcs = [table.get(machine, 64)]
                    else:
                        bcs = list(block_counts)
                    for bc in bcs:
                        cells.append(Cell(
                            machine=machine, matrix=matrix,
                            solver=solver, version=version,
                            block_count=int(bc), iterations=iterations,
                            width=width, first_touch=first_touch,
                            seed=seed,
                        ))
    return cells
