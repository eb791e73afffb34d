"""The prep path and CPython's cyclic collector.

:func:`repro.analysis.experiment._prepped_dag` pauses the collector
while it loads or builds a cell's DAG and freezes the result.  These
tests pin what makes that safe: the collector's state is always
restored (hit, miss, failure, caller-disabled, concurrent threads),
and neither prep nor a run ever leaves cyclic garbage for a freeze to
trap.
"""

import gc
import sys
import threading
import weakref

import pytest

import repro.analysis.experiment as experiment
from repro.bench.prep import default_prep_store
from repro.machine.presets import get_machine
from repro.trace import Tracer
from tests.test_prep_store import _clear_experiment_memos

CELL = ("broadwell", "inline1", "lobpcg", "deepsparse")


@pytest.fixture
def store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PREP_DIR", str(tmp_path / "prep"))
    monkeypatch.delenv("REPRO_NO_PREP", raising=False)
    _clear_experiment_memos()
    yield default_prep_store()
    _clear_experiment_memos()


@pytest.fixture
def collector_paused():
    """Collector off for the test body, after flushing older garbage,
    so ``gc.collect()`` afterwards counts only what the body left."""
    assert gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _prepped(width=None):
    machine, matrix, solver, version = CELL
    return experiment.prebuild_prep(machine, matrix, solver, version,
                                    block_count=16, width=width)


def _dag_for(config):
    """The memoized DAG behind one prep config."""
    return experiment._prepped_dag(
        config["machine"], config["matrix"], config["block_size"],
        config["solver"], config["width"],
        experiment._make_runtime(CELL[3], get_machine(CELL[0]), True,
                                 0).options,
        config["first_touch"])


# ----------------------------------------------------------------------
# The collector's state is always restored
# ----------------------------------------------------------------------

def test_enabled_after_store_miss_and_hit(store):
    _prepped()
    assert store.writes == 1 and gc.isenabled()
    _clear_experiment_memos()
    _prepped()
    assert store.hits == 1 and gc.isenabled()


def test_enabled_after_failed_build(store, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("compile failed")

    monkeypatch.setattr(experiment, "_compile_prep", broken)
    with pytest.raises(RuntimeError, match="compile failed"):
        _prepped()
    assert gc.isenabled()
    assert store.writes == 0


def test_caller_disabled_collector_stays_disabled(store):
    gc.disable()
    try:
        _prepped()                          # store miss
        assert not gc.isenabled()
        _clear_experiment_memos()
        _prepped()                          # store hit
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_concurrent_threads_leave_collector_enabled(store):
    """Eight threads (more than cores) with frequent GIL switches, so
    regions interleave their enable/disable checks."""
    barrier = threading.Barrier(8)
    failures = []

    def worker(width):
        barrier.wait()
        try:
            _prepped(width=width)
        except Exception as e:  # pragma: no cover - the bug case
            failures.append(f"{type(e).__name__}: {e}")

    crew = [threading.Thread(target=worker, args=(w,))
            for w in range(4, 12)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in crew:
            t.start()
        for t in crew:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in crew)
    assert not failures, failures
    assert store.writes == 8
    assert gc.isenabled()


# ----------------------------------------------------------------------
# Frozen artifacts are still freed, and prep leaves no cyclic garbage
# ----------------------------------------------------------------------

def test_memo_bound_frees_evicted_frozen_dag(store):
    """A loaded, frozen DAG dies by refcount once the DAG memo lets go
    of it."""
    config = _prepped()
    _clear_experiment_memos()
    ref = weakref.ref(_dag_for(config))     # store hit, frozen
    assert store.hits == 1 and ref() is not None
    experiment._prepped_dag.cache_clear()
    assert ref() is None


@pytest.mark.parametrize("path", ["built", "loaded"])
def test_dropped_dag_leaves_no_cyclic_garbage(store, collector_paused,
                                              path):
    config = _prepped()
    if path == "loaded":
        _clear_experiment_memos()
        _dag_for(config)
        assert store.hits == 1
    ref = weakref.ref(_dag_for(config))
    _clear_experiment_memos()
    assert ref() is None
    assert gc.collect() == 0


@pytest.mark.parametrize("traced", [False, True], ids=["healthy", "traced"])
@pytest.mark.parametrize("version", experiment.ALL_VERSIONS)
def test_run_version_leaves_no_cyclic_garbage(store, collector_paused,
                                              version, traced):
    """Pins the assumption a freeze relies on: no garbage to trap."""
    for solver in ("lanczos", "lobpcg"):
        res = experiment.run_version(
            "broadwell", "inline1", solver, version, block_count=16,
            iterations=2, tracer=Tracer() if traced else None)
        assert res.summary().total_time > 0
        del res
        assert gc.collect() == 0
