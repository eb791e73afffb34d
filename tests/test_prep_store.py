"""Behavior suite for the cross-cell prep store (repro.bench.prep).

Covers the durability contract (atomic writes, quarantine-on-corruption
reads, salt orphaning, gc), re-validation on every read, the
environment knobs, and the end-to-end guarantee that matters most: a
``run_version`` served from a loaded artifact is bit-identical to one
built from scratch.
"""

import os
import pickle

import numpy as np
import pytest

import repro.analysis.experiment as experiment
from repro.bench.prep import (
    PREP_FORMAT,
    PREP_SALT,
    PrepStore,
    default_prep_store,
)
from repro.bench.runner import Cell, ExperimentRunner
from repro.bench.cache import ResultCache


CONFIG = {"kind": "prep", "machine": "broadwell", "matrix": "inline1",
          "solver": "lobpcg", "width": 8}


def _artifact(tag="a"):
    return {"tag": tag, "arr": np.arange(16, dtype=np.int64)}


def _clear_experiment_memos():
    experiment._census.cache_clear()
    experiment._trace.cache_clear()
    experiment._dag.cache_clear()
    experiment._prepped_dag.cache_clear()
    experiment._census_loaded.clear()


@pytest.fixture
def store(tmp_path):
    return PrepStore(root=str(tmp_path / "prep"), enabled=True)


# ----------------------------------------------------------------------
# Core round-trip + layout
# ----------------------------------------------------------------------

def test_put_get_roundtrip(store):
    assert store.get(CONFIG) is None
    store.put(CONFIG, _artifact())
    assert CONFIG in store
    got = store.get(CONFIG)
    assert got["tag"] == "a"
    assert np.array_equal(got["arr"], np.arange(16))
    st = store.stats()
    assert st["writes"] == 1 and st["hits"] == 1 and st["misses"] == 1


def test_content_addressed_layout(store):
    key = store.key(CONFIG)
    assert store.key(dict(CONFIG)) == key  # deterministic
    assert store.key({**CONFIG, "width": 9}) != key
    store.put(CONFIG, _artifact())
    path = store.path_for(key)
    assert os.path.exists(path)
    assert os.path.basename(os.path.dirname(path)) == key[:2]
    assert path.endswith(key + ".prep")


def test_disabled_store_is_inert(tmp_path):
    store = PrepStore(root=str(tmp_path / "prep"), enabled=False)
    store.put(CONFIG, _artifact())
    assert store.get(CONFIG) is None
    assert CONFIG not in store
    assert not os.path.exists(store.root)


# ----------------------------------------------------------------------
# Corruption → quarantine round-trips
# ----------------------------------------------------------------------

def _flip_payload_byte(path):
    with open(path, "r+b") as f:
        f.readline()                    # skip the JSON header line
        pos = f.tell()
        byte = f.read(1)
        f.seek(pos)
        f.write(bytes([byte[0] ^ 0xFF]))


def test_corrupt_payload_quarantined_then_recovers(store):
    store.put(CONFIG, _artifact())
    path = store.path_for(store.key(CONFIG))
    _flip_payload_byte(path)
    assert store.get(CONFIG) is None       # checksum mismatch -> miss
    assert store.quarantined == 1
    assert not os.path.exists(path)
    assert os.listdir(store.quarantine_dir()) == [os.path.basename(path)]
    # The store recovers: a rewrite serves cleanly again.
    store.put(CONFIG, _artifact("fresh"))
    assert store.get(CONFIG)["tag"] == "fresh"


def test_truncated_file_quarantined(store):
    store.put(CONFIG, _artifact())
    path = store.path_for(store.key(CONFIG))
    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        f.truncate(size - 7)
    assert store.get(CONFIG) is None
    assert store.quarantined == 1
    assert not os.path.exists(path)


def test_garbage_header_quarantined(store):
    store.put(CONFIG, _artifact())
    path = store.path_for(store.key(CONFIG))
    with open(path, "wb") as f:
        f.write(b"not json at all\njunk")
    assert store.get(CONFIG) is None
    assert store.quarantined == 1


def test_wrong_salt_quarantined(store, tmp_path):
    """An artifact written under another salt must never be served."""
    other = PrepStore(root=str(tmp_path / "prep"), enabled=True,
                      salt="cost-v999/prep-v999")
    other.put(CONFIG, _artifact("stale"))
    # Plant the foreign file where the current-salt store would look.
    src = other.path_for(other.key(CONFIG))
    dst = store.path_for(store.key(CONFIG))
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    os.replace(src, dst)
    assert store.get(CONFIG) is None
    assert store.quarantined == 1


# ----------------------------------------------------------------------
# Every read re-validates: rewrites and tampering are always seen
# ----------------------------------------------------------------------

def test_memo_invalidated_by_rewrite(store):
    store.put(CONFIG, _artifact("v1"))
    assert store.get(CONFIG)["tag"] == "v1"
    store.put(CONFIG, _artifact("v2"))
    assert store.get(CONFIG)["tag"] == "v2"


def test_memo_does_not_mask_tampering(store):
    store.put(CONFIG, _artifact())
    store.get(CONFIG)
    path = store.path_for(store.key(CONFIG))
    _flip_payload_byte(path)
    assert store.get(CONFIG) is None       # re-read, quarantined
    assert store.quarantined == 1
    # A fresh file is re-read cleanly.
    store.put(CONFIG, _artifact("clean"))
    assert store.get(CONFIG)["tag"] == "clean"


# ----------------------------------------------------------------------
# gc
# ----------------------------------------------------------------------

def test_gc_drops_stale_tmp_and_corrupt_keeps_live(store, tmp_path):
    store.put(CONFIG, _artifact())
    live_path = store.path_for(store.key(CONFIG))
    # Stale-salt entry.
    other = PrepStore(root=store.root, enabled=True, salt="old-salt")
    other.put({**CONFIG, "width": 99}, _artifact("old"))
    # Leftover tempfile + quarantined junk.
    tmp_file = os.path.join(os.path.dirname(live_path), "leftover.tmp")
    with open(tmp_file, "wb") as f:
        f.write(b"junk")
    os.makedirs(store.quarantine_dir(), exist_ok=True)
    with open(os.path.join(store.quarantine_dir(), "bad.prep"), "wb") as f:
        f.write(b"junk")
    removed = store.gc()
    assert removed == {"stale": 1, "tmp": 1, "corrupt": 1}
    assert os.path.exists(live_path)
    assert store.get(CONFIG) is not None


def test_clear_removes_everything(store):
    store.put(CONFIG, _artifact())
    store.put({**CONFIG, "width": 9}, _artifact())
    assert store.clear() == 2
    assert store.get(CONFIG) is None


def test_entries_lists_headers_and_survives_damage(store):
    store.put(CONFIG, _artifact())
    bad = os.path.join(store.root, "zz", "broken.prep")
    os.makedirs(os.path.dirname(bad), exist_ok=True)
    with open(bad, "wb") as f:
        f.write(b"\xff\xfe not a header")
    entries = store.entries()
    assert len(entries) == 2
    good = [e for e in entries if "error" not in e]
    assert len(good) == 1
    assert good[0]["format"] == PREP_FORMAT
    assert good[0]["salt"] == PREP_SALT
    assert good[0]["config"]["matrix"] == "inline1"


# ----------------------------------------------------------------------
# Environment knobs
# ----------------------------------------------------------------------

def test_default_store_tracks_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PREP_DIR", str(tmp_path / "a"))
    monkeypatch.delenv("REPRO_NO_PREP", raising=False)
    s1 = default_prep_store()
    assert s1.root == str(tmp_path / "a") and s1.enabled
    assert default_prep_store() is s1       # unchanged env -> same instance
    monkeypatch.setenv("REPRO_PREP_DIR", str(tmp_path / "b"))
    s2 = default_prep_store()
    assert s2 is not s1 and s2.root == str(tmp_path / "b")
    monkeypatch.setenv("REPRO_NO_PREP", "1")
    assert not default_prep_store().enabled


# ----------------------------------------------------------------------
# Integration with the experiment driver and runner
# ----------------------------------------------------------------------

def test_run_version_loaded_vs_built_bit_identical(tmp_path, monkeypatch):
    """A run served from a loaded artifact == one built from scratch."""
    monkeypatch.setenv("REPRO_PREP_DIR", str(tmp_path / "prep"))
    monkeypatch.delenv("REPRO_NO_PREP", raising=False)
    _clear_experiment_memos()
    store = default_prep_store()
    built = experiment.run_version(
        "broadwell", "inline1", "lobpcg", "deepsparse",
        block_count=16, iterations=2,
    ).summary().to_dict()
    assert store.writes >= 1
    _clear_experiment_memos()               # force the store path
    loaded = experiment.run_version(
        "broadwell", "inline1", "lobpcg", "deepsparse",
        block_count=16, iterations=2,
    ).summary().to_dict()
    assert store.hits >= 1
    assert loaded == built


def test_no_prep_env_falls_back_to_in_process_build(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PREP_DIR", str(tmp_path / "prep"))
    monkeypatch.setenv("REPRO_NO_PREP", "1")
    _clear_experiment_memos()
    res = experiment.run_version(
        "broadwell", "inline1", "lobpcg", "deepsparse",
        block_count=16, iterations=1,
    )
    assert res.summary().total_time > 0
    assert not os.path.exists(str(tmp_path / "prep"))


def test_prebuild_prep_writes_shareable_artifact(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PREP_DIR", str(tmp_path / "prep"))
    monkeypatch.delenv("REPRO_NO_PREP", raising=False)
    _clear_experiment_memos()
    store = default_prep_store()
    pc = experiment.prebuild_prep(
        "broadwell", "inline1", "lobpcg", "deepsparse", block_count=16)
    assert pc in store
    art = store.get(pc)
    assert art["dag"]._soa is not None      # ships frozen
    assert len(pickle.dumps(art)) > 0
    # Repeat prebuild is absorbed by the in-process memo: no rewrite.
    writes = store.writes
    experiment.prebuild_prep(
        "broadwell", "inline1", "lobpcg", "deepsparse", block_count=16)
    assert store.writes == writes


def test_runner_prebuilds_before_fanout(tmp_path, monkeypatch):
    """The runner's pre-fan-out hook builds each artifact in the parent."""
    monkeypatch.setenv("REPRO_PREP_DIR", str(tmp_path / "prep"))
    monkeypatch.delenv("REPRO_NO_PREP", raising=False)
    _clear_experiment_memos()
    store = default_prep_store()
    runner = ExperimentRunner(cache=ResultCache(enabled=False), jobs=2)
    cells = [
        Cell("broadwell", "inline1", "lobpcg", "deepsparse",
             block_count=16, iterations=1, seed=s)
        for s in (0, 1)
    ]
    configs = {f"k{i}": c.config() for i, c in enumerate(cells)}
    runner._prebuild_prep(list(configs), configs)
    # Both cells share one prep subkey -> exactly one artifact written.
    assert store.writes == 1
    assert len(store.entries()) == 1


# ----------------------------------------------------------------------
# Concurrency: atomic publish + quarantine under racing readers
# ----------------------------------------------------------------------
def test_parallel_writers_same_key_one_valid_artifact(tmp_path):
    """Threads racing ``put`` on one key leave exactly one loadable
    artifact and no stray temp files; concurrent readers never observe
    a torn payload or spuriously quarantine a clean write."""
    import threading

    root = str(tmp_path / "prep")
    tags = [f"w{i}" for i in range(8)]
    barrier = threading.Barrier(12)
    failures = []
    stop = threading.Event()

    def writer(tag):
        store = PrepStore(root=root, enabled=True)
        barrier.wait()
        for _ in range(25):
            store.put(CONFIG, _artifact(tag))

    def reader():
        store = PrepStore(root=root, enabled=True)
        barrier.wait()
        while not stop.is_set():
            try:
                got = store.get(CONFIG)
            except Exception as e:  # pragma: no cover - the bug case
                failures.append(f"reader raised {type(e).__name__}: {e}")
                return
            if got is not None:
                if got["tag"] not in tags:
                    failures.append(f"torn artifact: {got['tag']!r}")
                    return
                if not np.array_equal(got["arr"], np.arange(16)):
                    failures.append("torn payload array")
                    return
        if store.quarantined:
            failures.append(f"reader quarantined {store.quarantined} "
                            f"artifacts during clean writes")

    crew = ([threading.Thread(target=writer, args=(t,)) for t in tags]
            + [threading.Thread(target=reader) for _ in range(4)])
    for t in crew:
        t.start()
    for t in crew[:8]:
        t.join()
    stop.set()
    for t in crew[8:]:
        t.join()
    assert not failures, failures

    check = PrepStore(root=root, enabled=True)
    subdir = os.path.dirname(check.path_for(check.key(CONFIG)))
    artifacts = [n for n in os.listdir(subdir) if n.endswith(".prep")]
    leftovers = [n for n in os.listdir(subdir) if n.endswith(".tmp")]
    assert len(artifacts) == 1
    assert not leftovers, f"unpublished temp files left: {leftovers}"
    final = check.get(CONFIG)
    assert final is not None and final["tag"] in tags
    assert check.quarantined == 0


def test_concurrent_readers_during_quarantine_never_torn(tmp_path):
    """Readers racing over a corrupt artifact each get a clean miss
    (or a valid re-published artifact) while one of them moves the
    evidence to ``corrupt/`` — nobody crashes, nobody loads garbage."""
    import threading

    root = str(tmp_path / "prep")
    seed = PrepStore(root=root, enabled=True)
    seed.put(CONFIG, _artifact("good"))
    _flip_payload_byte(seed.path_for(seed.key(CONFIG)))

    barrier = threading.Barrier(9)
    first_read = threading.Event()
    failures = []
    lock = threading.Lock()
    shared = PrepStore(root=root, enabled=True)  # one store, many threads

    def reader():
        barrier.wait()
        for _ in range(50):
            try:
                got = shared.get(CONFIG)
            except Exception as e:  # pragma: no cover - the bug case
                with lock:
                    failures.append(f"raised {type(e).__name__}: {e}")
                return
            finally:
                first_read.set()
            if got is not None:
                if got["tag"] != "good" or not np.array_equal(
                        got["arr"], np.arange(16)):
                    with lock:
                        failures.append("torn artifact observed")
                    return

    def rewriter():
        # Held until a reader has faced the corrupt bytes, so the
        # quarantine path is exercised every run — the readers still
        # race each other over it, and then race these republishes.
        store = PrepStore(root=root, enabled=True)
        barrier.wait()
        first_read.wait()
        for _ in range(25):
            store.put(CONFIG, _artifact("good"))

    crew = ([threading.Thread(target=reader) for _ in range(8)]
            + [threading.Thread(target=rewriter)])
    for t in crew:
        t.start()
    for t in crew:
        t.join()
    assert not failures, failures
    final = PrepStore(root=root, enabled=True)
    got = final.get(CONFIG)
    assert got is not None and got["tag"] == "good"
    assert final.quarantined == 0
    # The corrupt original was preserved for post-mortem, not lost.
    qdir = seed.quarantine_dir()
    assert os.path.isdir(qdir) and len(os.listdir(qdir)) >= 1
