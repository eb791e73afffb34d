"""Correctness of the content-addressed on-disk result cache.

The store contract it shares with the prep store (switches, corruption,
clear, concurrency) is written once, in ``tests/store_contract.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.bench.cache import (
    CACHE_SALT,
    ResultCache,
    cache_key,
    default_cache,
)
from repro.bench.runner import Cell
from tests import store_contract as contract
from tests.store_contract import CACHE, cell_summary

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

CONFIG = CACHE.config
_summary = cell_summary


# ----------------------------------------------------------------------
# keying
# ----------------------------------------------------------------------
def test_key_is_deterministic_and_order_insensitive():
    k1 = cache_key(CONFIG)
    k2 = cache_key(dict(reversed(list(CONFIG.items()))))
    assert k1 == k2
    assert len(k1) == 64  # sha256 hex


def test_key_is_stable_across_processes():
    """No PYTHONHASHSEED / id() leakage into the content address."""
    code = (
        "import json, sys; from repro.bench.cache import cache_key; "
        "print(cache_key(json.loads(sys.argv[1])))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(CONFIG)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": "12345"},
    )
    assert out.stdout.strip() == cache_key(CONFIG)


def test_key_depends_on_config_and_salt():
    other = dict(CONFIG, block_count=32)
    assert cache_key(other) != cache_key(CONFIG)
    assert cache_key(CONFIG, salt="cost-v999") != cache_key(CONFIG)


def test_libcsr_block_count_is_normalized_out_of_the_key():
    a = Cell(machine="broadwell", matrix="inline1", solver="lanczos",
             version="libcsr", block_count=16).config()
    b = Cell(machine="broadwell", matrix="inline1", solver="lanczos",
             version="libcsr", block_count=480).config()
    assert cache_key(a) == cache_key(b)


# ----------------------------------------------------------------------
# store behaviour
# ----------------------------------------------------------------------
def test_miss_then_hit_round_trips_bit_exactly(tmp_path):
    cache = ResultCache(root=str(tmp_path))
    assert cache.get(CONFIG) is None
    summary = _summary()
    cache.put(CONFIG, summary)
    assert CONFIG in cache
    back = cache.get(CONFIG)
    assert back == summary
    assert back.total_time == summary.total_time
    assert back.counters.kernel_time == summary.counters.kernel_time
    assert cache.stats()["hits"] == 1
    assert cache.stats()["writes"] == 1


def test_salt_bump_invalidates_old_entries(tmp_path):
    old = ResultCache(root=str(tmp_path), salt=CACHE_SALT)
    old.put(CONFIG, _summary())
    bumped = ResultCache(root=str(tmp_path), salt="cost-v999/entry-v1")
    assert bumped.get(CONFIG) is None  # old entry no longer addressed
    assert old.get(CONFIG) is not None  # ...but still there for old code


def test_disabled_cache_never_reads_or_writes(tmp_path, monkeypatch):
    contract.disabled_store_is_inert(CACHE, tmp_path, monkeypatch)


def test_env_root_override(tmp_path, monkeypatch):
    contract.env_root_override(CACHE, tmp_path, monkeypatch)


def test_corrupted_entry_is_a_miss_and_is_removed(tmp_path):
    contract.damaged_header_is_a_miss_and_is_removed(CACHE, tmp_path)


def test_corrupt_entries_are_quarantined_for_post_mortem(tmp_path):
    contract.corrupt_files_are_quarantined_for_post_mortem(CACHE, tmp_path)


def test_checksum_mismatch_is_caught_and_quarantined(tmp_path):
    contract.payload_damage_quarantined_then_recovers(CACHE, tmp_path)


def test_clear_removes_entries(tmp_path):
    contract.clear_removes_entries(CACHE, tmp_path)


def test_default_cache_is_process_wide_singleton():
    assert default_cache() is default_cache()


def test_default_cache_tracks_environment(tmp_path, monkeypatch):
    contract.default_store_tracks_environment(CACHE, tmp_path, monkeypatch)


def test_parallel_writers_same_key_yield_one_valid_entry(tmp_path):
    contract.parallel_writers_same_key_one_valid_file(CACHE, tmp_path)


def test_concurrent_readers_during_quarantine_never_torn(tmp_path):
    contract.concurrent_readers_during_quarantine_never_torn(CACHE, tmp_path)
