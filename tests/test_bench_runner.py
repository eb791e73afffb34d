"""The experiment orchestrator: dedupe, ordering, caching, parallelism,
and survival of crashing / hanging / failing workers."""

from __future__ import annotations

import os
import time

import pytest

from repro.bench.cache import ResultCache
from repro.bench.runner import (
    Cell,
    DEFAULT_BLOCK_COUNT,
    ExperimentRunner,
    REGENT_BLOCK_COUNT,
    SweepError,
    WorkerFailure,
    _pool_worker,
    expand_grid,
    stderr_tail,
)

CELLS = [
    Cell(machine="broadwell", matrix="inline1", solver="lanczos",
         version=v, block_count=16, iterations=1)
    for v in ("libcsr", "deepsparse", "hpx")
]


def _runner(tmp_path, **kw):
    return ExperimentRunner(cache=ResultCache(root=str(tmp_path)), **kw)


# ----------------------------------------------------------------------
# grid expansion
# ----------------------------------------------------------------------
def test_expand_grid_is_deterministic_and_rule_of_thumb_defaults():
    cells = expand_grid(machines=["broadwell"], matrices=["inline1"],
                        solvers=["lanczos"])
    assert cells == expand_grid(machines=["broadwell"],
                                matrices=["inline1"],
                                solvers=["lanczos"])
    by_version = {c.version: c for c in cells}
    assert by_version["deepsparse"].block_count == \
        DEFAULT_BLOCK_COUNT["broadwell"]
    assert by_version["regent"].block_count == \
        REGENT_BLOCK_COUNT["broadwell"]


def test_expand_grid_explicit_block_counts():
    cells = expand_grid(machines=["broadwell"], matrices=["inline1"],
                        solvers=["lanczos"], versions=["deepsparse"],
                        block_counts=[16, 32])
    assert [c.block_count for c in cells] == [16, 32]


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------
def test_results_in_input_order_with_dedupe(tmp_path):
    runner = _runner(tmp_path)
    # Duplicates (including libcsr at a different block count, which
    # normalizes to the same key) must be simulated exactly once.
    libcsr_alias = Cell(machine="broadwell", matrix="inline1",
                        solver="lanczos", version="libcsr",
                        block_count=480, iterations=1)
    batch = [CELLS[0], CELLS[1], CELLS[0], libcsr_alias, CELLS[2]]
    results = runner.run_cells(batch)
    assert len(results) == len(batch)
    assert len(runner.report) == 3  # unique cells only
    assert results[0] is results[2]  # same key -> same object
    assert results[0] is results[3]  # normalized libcsr alias
    assert results[0].policy != results[1].policy  # bsp vs tasking


def test_second_run_is_served_from_cache(tmp_path):
    runner = _runner(tmp_path)
    first = runner.run_cells(CELLS)
    assert all(not r["cached"] for r in runner.report)
    again = _runner(tmp_path)
    second = again.run_cells(CELLS)
    assert all(r["cached"] for r in again.report)
    assert second == first  # bit-exact across the disk round trip


def test_disabled_cache_forces_cold_runs(tmp_path):
    _runner(tmp_path).run_cells(CELLS)  # prime
    cold = ExperimentRunner(cache=ResultCache(root=str(tmp_path),
                                              enabled=False))
    cold.run_cells(CELLS)
    assert all(not r["cached"] for r in cold.report)


def test_parallel_jobs_match_serial_results(tmp_path):
    serial = ExperimentRunner(
        cache=ResultCache(root=str(tmp_path / "a")), jobs=1)
    parallel = ExperimentRunner(
        cache=ResultCache(root=str(tmp_path / "b")), jobs=2)
    rs = serial.run_cells(CELLS)
    rp = parallel.run_cells(CELLS)
    assert [r.to_dict() for r in rp] == [r.to_dict() for r in rs]
    # The parallel run persisted its results too.
    warm = ExperimentRunner(cache=ResultCache(root=str(tmp_path / "b")))
    warm.run_cells(CELLS)
    assert all(r["cached"] for r in warm.report)


def test_progress_and_report(tmp_path):
    lines = []
    runner = _runner(tmp_path, progress=lines.append)
    runner.run_cells(CELLS[:2])
    assert len(lines) == 2
    assert all("[run]" in line for line in lines)
    report = runner.format_report()
    assert "2 cached" not in report
    assert "2 simulated" in report
    runner2 = _runner(tmp_path, progress=lines.append)
    runner2.run_cells(CELLS[:2])
    assert any("[cache]" in line for line in lines)


def test_jobs_env_default(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BENCH_JOBS", "3")
    runner = _runner(tmp_path)
    assert runner.jobs == 3


def test_jobs_zero_autodetects_cpu_count(monkeypatch, tmp_path):
    import os

    runner = _runner(tmp_path, jobs=0)
    assert runner.jobs == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_BENCH_JOBS", "0")
    runner = _runner(tmp_path)
    assert runner.jobs == (os.cpu_count() or 1)
    # Negative values keep clamping to serial, as before.
    runner = _runner(tmp_path, jobs=-4)
    assert runner.jobs == 1


def test_run_grid_shorthand(tmp_path):
    runner = _runner(tmp_path)
    results = runner.run_grid(machines=["broadwell"],
                              matrices=["inline1"],
                              solvers=["lanczos"],
                              versions=["deepsparse"],
                              block_counts=[16], iterations=1)
    assert len(results) == 1
    assert results[0].machine == "broadwell"


# ----------------------------------------------------------------------
# hardened orchestration: crashes, hangs, failures, retries
# ----------------------------------------------------------------------
# Injected workers live at module level so a ProcessPoolExecutor can
# pickle them into child processes.

def _crash_hard_once(config):
    """Dies with os._exit (no exception, no cleanup — a real segfault
    analogue) on the first call, then behaves.  The marker file makes
    "first" hold across processes."""
    marker = os.environ["REPRO_TEST_CRASH_MARKER"]
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(13)
    return _pool_worker(config)


def _fail_cleanly(config):
    raise ValueError(f"injected failure for {config['version']}")


def _fail_hpx_only(config):
    if config["version"] == "hpx":
        raise ValueError("injected hpx failure")
    return _pool_worker(config)


_TRANSIENT_CALLS = {"n": 0}


def _fail_once_then_succeed(config):
    _TRANSIENT_CALLS["n"] += 1
    if _TRANSIENT_CALLS["n"] == 1:
        raise RuntimeError("transient glitch")
    return _pool_worker(config)


def _hang_forever(config):
    time.sleep(3600)


def test_pool_survives_worker_crash(tmp_path, monkeypatch):
    """A worker dying hard poisons the pool; the runner rebuilds it and
    resubmits — without burning the cells' retry budget — and the sweep
    completes with results identical to a healthy serial run."""
    monkeypatch.setenv("REPRO_TEST_CRASH_MARKER",
                       str(tmp_path / "crashed.marker"))
    crashy = ExperimentRunner(
        cache=ResultCache(root=str(tmp_path / "a")), jobs=2,
        backoff=0.0, pool_worker=_crash_hard_once)
    got = crashy.run_cells(CELLS)
    healthy = ExperimentRunner(
        cache=ResultCache(root=str(tmp_path / "b")), jobs=1)
    want = healthy.run_cells(CELLS)
    assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
    assert os.path.exists(str(tmp_path / "crashed.marker"))


def test_inline_retry_recovers_transient_failure(tmp_path):
    _TRANSIENT_CALLS["n"] = 0
    runner = _runner(tmp_path, jobs=1, attempts=2, backoff=0.0,
                     pool_worker=_fail_once_then_succeed)
    results = runner.run_cells(CELLS[:1])
    assert results[0].total_time > 0
    assert _TRANSIENT_CALLS["n"] == 2  # failed once, retried once


def test_exhausted_retries_raise_sweep_error_with_table(tmp_path):
    runner = _runner(tmp_path, jobs=1, attempts=2, backoff=0.0,
                     pool_worker=_fail_cleanly)
    with pytest.raises(SweepError) as ei:
        runner.run_cells(CELLS[:2])
    err = ei.value
    assert len(err.failures) == 2
    assert all(f["attempts"] == 2 for f in err.failures)
    assert "2 cell(s) failed after retries" in str(err)
    assert CELLS[0].label() in str(err)
    assert "ValueError" in err.failures[0]["error"]


def _fail_with_chatter(config):
    """Writes diagnostics to stderr before dying, like a real cell
    whose native libraries warn on the way down."""
    import sys

    print("loading matrix shards", file=sys.stderr)
    print("shard 7 checksum mismatch", file=sys.stderr)
    raise ValueError(f"injected chatty failure for {config['version']}")


def test_pool_worker_captures_stderr_into_failure(monkeypatch):
    """The pool worker must ship the cell's stderr + traceback home —
    the parent cannot see a child process's stderr any other way."""
    import repro.bench.runner as runner_mod

    def chatty_cell(config):
        return _fail_with_chatter(config)

    monkeypatch.setattr(runner_mod, "run_cell_config", chatty_cell)
    with pytest.raises(WorkerFailure) as ei:
        _pool_worker(CELLS[0].config())
    failure = ei.value
    assert failure.error == ("ValueError: injected chatty failure "
                             "for libcsr")
    assert "loading matrix shards" in failure.stderr_tail
    assert "shard 7 checksum mismatch" in failure.stderr_tail
    assert "Traceback (most recent call last)" in failure.stderr_tail
    # The exception survives a pickle round trip (pool transport).
    import pickle

    back = pickle.loads(pickle.dumps(failure))
    assert back.error == failure.error
    assert back.stderr_tail == failure.stderr_tail


def test_stderr_tail_truncates_long_streams():
    text = "\n".join(f"line {i}" for i in range(500))
    tail = stderr_tail(text, lines=5, chars=1000)
    assert tail.splitlines() == [f"line {i}" for i in range(495, 500)]
    huge = "x" * 50_000
    assert len(stderr_tail(huge, lines=5, chars=1000)) <= 1000


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_error_table_includes_stderr_tail(tmp_path, jobs):
    """The per-cell failure table carries the worker's stderr tail —
    inline and across a real process pool (pickled exception args)."""
    runner = _runner(tmp_path, jobs=jobs, attempts=1, backoff=0.0,
                     pool_worker=_pool_worker_chatty)
    with pytest.raises(SweepError) as ei:
        runner.run_cells(CELLS[:2])
    err = ei.value
    assert len(err.failures) == 2
    for f in err.failures:
        assert "injected chatty failure" in f["error"]
        assert "shard 7 checksum mismatch" in f["stderr"]
        assert "Traceback" in f["stderr"]
    rendered = str(err)
    assert "stderr| shard 7 checksum mismatch" in rendered
    assert rendered.count("stderr|") >= 2  # one block per failed cell


def _pool_worker_chatty(config):
    """Module-level (pool-picklable) worker: a chatty failing cell run
    through the real capture machinery."""
    import contextlib
    import io
    import traceback

    buf = io.StringIO()
    try:
        with contextlib.redirect_stderr(buf):
            _fail_with_chatter(config)
    except Exception as e:
        traceback.print_exc(file=buf)
        raise WorkerFailure(f"{type(e).__name__}: {e}",
                            stderr_tail(buf.getvalue())) from None
    raise AssertionError("unreachable")


def test_non_worker_failure_has_empty_stderr_column(tmp_path):
    """Plain exceptions (no capture machinery) still fill the table,
    with an empty stderr column rather than a crash or noise."""
    runner = _runner(tmp_path, jobs=1, attempts=1, backoff=0.0,
                     pool_worker=_fail_cleanly)
    with pytest.raises(SweepError) as ei:
        runner.run_cells(CELLS[:1])
    f = ei.value.failures[0]
    assert "ValueError" in f["error"]
    assert f["stderr"] == ""
    assert "stderr|" not in str(ei.value)


def test_partial_failure_keeps_successes_cached(tmp_path):
    """Cells that simulated fine are cached before the raise, so a
    re-run with a healthy worker only repeats the failed work."""
    sick = _runner(tmp_path, jobs=1, attempts=2, backoff=0.0,
                   pool_worker=_fail_hpx_only)
    with pytest.raises(SweepError) as ei:
        sick.run_cells(CELLS)  # libcsr, deepsparse, hpx
    assert [f["cell"] for f in ei.value.failures] == [CELLS[2].label()]
    recovered = _runner(tmp_path)
    recovered.run_cells(CELLS)
    by_cell = {r["cell"]: r["cached"] for r in recovered.report}
    assert by_cell == {CELLS[0].label(): True,
                       CELLS[1].label(): True,
                       CELLS[2].label(): False}


def test_pool_timeout_kills_wedged_workers(tmp_path):
    """A hanging worker must not hold the sweep hostage: the deadline
    expires, the processes are killed, and the cells are reported."""
    runner = _runner(tmp_path, jobs=2, timeout=0.5, attempts=1,
                     backoff=0.0, pool_worker=_hang_forever)
    t0 = time.monotonic()
    with pytest.raises(SweepError) as ei:
        runner.run_cells(CELLS[:2])
    assert time.monotonic() - t0 < 30  # nowhere near the 3600 s sleep
    assert len(ei.value.failures) == 2
    assert all("timed out" in f["error"] for f in ei.value.failures)


def _hang_in_every_child(config):
    """Hangs in every pool child; fails fast in the parent, so a cell
    that slipped into (unpreemptible) inline execution shows up as a
    wrong error instead of wedging the test."""
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        time.sleep(3600)
    raise RuntimeError("ran inline")


def test_timeout_kills_never_degrade_to_inline(tmp_path):
    """Ten timeout kills (five wedged cells, two attempts each) replace
    the pool every time but never count as crash rebuilds: every cell
    keeps its deadline, and the sweep ends with the failure table."""
    cells = [Cell(machine="broadwell", matrix="inline1", solver="lanczos",
                  version="deepsparse", block_count=16, iterations=i)
             for i in range(1, 6)]
    runner = _runner(tmp_path, jobs=2, timeout=0.3, attempts=2,
                     backoff=0.0, pool_worker=_hang_in_every_child)
    t0 = time.monotonic()
    with pytest.raises(SweepError) as ei:
        runner.run_cells(cells)
    assert time.monotonic() - t0 < 60
    assert [f["cell"] for f in ei.value.failures] == \
        [c.label() for c in cells]
    assert all(f["attempts"] == 2 for f in ei.value.failures)
    assert all("timed out (> 0.3 s/cell)" in f["error"]
               for f in ei.value.failures)


def _exit_in_every_child(config):
    """Dies with os._exit in every pool child; healthy in the parent,
    so only inline execution can finish the sweep."""
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        os._exit(13)
    return _pool_worker(config)


def test_pool_degrades_to_inline_when_every_child_dies(tmp_path):
    """A pool that keeps crashing is rebuilt max_pool_rebuilds times,
    then the sweep finishes inline with the healthy serial results."""
    notes = []
    sick = ExperimentRunner(
        cache=ResultCache(root=str(tmp_path / "a")), jobs=2,
        backoff=0.0, pool_worker=_exit_in_every_child,
        progress=notes.append)
    got = sick.run_cells(CELLS)
    healthy = ExperimentRunner(
        cache=ResultCache(root=str(tmp_path / "b")), jobs=1)
    want = healthy.run_cells(CELLS)
    assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
    assert sum("degrading to inline execution" in n for n in notes) == 1


def test_warm_pool_degrades_after_max_pool_rebuilds():
    import asyncio

    from repro.bench.pool import WarmPool

    pool = WarmPool(jobs=2, backoff=0.0, worker=_exit_in_every_child)
    try:
        summary_dict, _ = asyncio.run(
            asyncio.wait_for(pool.run(CELLS[0].config()), 120))
    finally:
        pool.close()
    assert pool.stats() == {"jobs": 2, "mode": "inline",
                            "rebuilds": WarmPool.max_pool_rebuilds + 1}
    assert summary_dict == _pool_worker(CELLS[0].config())[0]


def test_bench_layer_does_not_import_serve():
    """repro.bench is the lower layer: the service builds on its pool,
    never the other way round."""
    import subprocess
    import sys

    code = ("import sys, repro.bench, repro.bench.pool; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.serve')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ,
                              "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


def _hang_hpx_and_first_deepsparse(config):
    """hpx hangs forever.  deepsparse hangs on its first run only (the
    marker file makes "first" hold across processes), so it is still in
    flight on the pool that hpx's timeout kills; libcsr pauses first,
    so deepsparse is dispatched well after hpx and its own deadline
    falls later."""
    if config["version"] == "hpx":
        time.sleep(3600)
    if config["version"] == "libcsr":
        time.sleep(0.2)
    marker = os.environ["REPRO_TEST_HANG_MARKER"]
    if config["version"] == "deepsparse" and not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(3600)
    return _pool_worker(config)


def test_timeout_kill_does_not_charge_healthy_siblings(tmp_path,
                                                       monkeypatch):
    """Killing a wedged pool takes its healthy siblings down with it;
    they are resubmitted without being charged an attempt, so only the
    wedged cell lands in the failure table."""
    monkeypatch.setenv("REPRO_TEST_HANG_MARKER",
                       str(tmp_path / "hung.marker"))
    runner = _runner(tmp_path, jobs=2, timeout=0.5, attempts=1,
                     backoff=0.0,
                     pool_worker=_hang_hpx_and_first_deepsparse)
    with pytest.raises(SweepError) as ei:
        runner.run_cells([CELLS[2], CELLS[0], CELLS[1]])
    assert [f["cell"] for f in ei.value.failures] == [CELLS[2].label()]
    assert "timed out (> 0.5 s/cell)" in ei.value.failures[0]["error"]
    assert os.path.exists(str(tmp_path / "hung.marker"))
    assert {r["cell"] for r in runner.report} == {CELLS[0].label(),
                                                  CELLS[1].label()}


def test_quarantine_counter_surfaces_in_report(tmp_path):
    runner = _runner(tmp_path)
    runner.run_cells(CELLS[:1])
    # Corrupt the entry on disk, then re-run: the cache quarantines it
    # and the bench summary warns.
    path = runner.cache.path_for(runner.cache.key(CELLS[0].config()))
    with open(path, "w", encoding="utf-8") as f:
        f.write("{ not json")
    again = _runner(tmp_path)
    again.run_cells(CELLS[:1])
    assert again.cache.quarantined == 1
    report = again.format_report()
    assert "1 corrupt cache entry quarantined" in report


# ----------------------------------------------------------------------
# sweep integration
# ----------------------------------------------------------------------
def test_sweep_block_counts_routes_through_runner(tmp_path):
    from repro.tuning import sweep_block_counts

    runner = _runner(tmp_path)
    buckets = [(8, 15), (16, 31)]
    times = sweep_block_counts("broadwell", "inline1", "lanczos",
                               "deepsparse", iterations=1,
                               buckets=buckets, runner=runner)
    assert sorted(times) == sorted(buckets)
    assert all(t > 0 for t in times.values())
    # Sweep cells landed in the cache: a re-sweep is all hits.
    rerun = _runner(tmp_path)
    times2 = sweep_block_counts("broadwell", "inline1", "lanczos",
                                "deepsparse", iterations=1,
                                buckets=buckets, runner=rerun)
    assert times2 == pytest.approx(times)
    assert all(r["cached"] for r in rerun.report)
