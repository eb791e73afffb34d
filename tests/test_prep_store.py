"""Behavior suite for the cross-cell prep store (repro.bench.prep).

Covers the durability contract (atomic writes, quarantine-on-corruption
reads, salt orphaning, gc), re-validation on every read, the
environment knobs, and the end-to-end guarantee that matters most: a
``run_version`` served from a loaded artifact is bit-identical to one
built from scratch.  The contract it shares with the result cache
(switches, corruption, clear, concurrency) is written once, in
``tests/store_contract.py``.
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
from tests import store_contract as contract
from tests.store_contract import PREP, flip_payload_byte


CONFIG = PREP.config


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


def test_disabled_store_is_inert(tmp_path, monkeypatch):
    contract.disabled_store_is_inert(PREP, tmp_path, monkeypatch)


# ----------------------------------------------------------------------
# Corruption → quarantine round-trips
# ----------------------------------------------------------------------

def test_corrupt_payload_quarantined_then_recovers(tmp_path):
    contract.payload_damage_quarantined_then_recovers(PREP, tmp_path)


def test_corrupted_header_is_a_miss_and_is_removed(tmp_path):
    contract.damaged_header_is_a_miss_and_is_removed(PREP, tmp_path)


def test_corrupt_artifacts_are_quarantined_for_post_mortem(tmp_path):
    contract.corrupt_files_are_quarantined_for_post_mortem(PREP, tmp_path)


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
    flip_payload_byte(path)
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


def test_clear_removes_everything(tmp_path):
    contract.clear_removes_entries(PREP, tmp_path)


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
    contract.default_store_tracks_environment(PREP, tmp_path, monkeypatch)


def test_env_root_override(tmp_path, monkeypatch):
    contract.env_root_override(PREP, tmp_path, monkeypatch)


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
    contract.parallel_writers_same_key_one_valid_file(PREP, tmp_path)


def test_concurrent_readers_during_quarantine_never_torn(tmp_path):
    contract.concurrent_readers_during_quarantine_never_torn(PREP, tmp_path)
