"""One copy of the contract both on-disk stores keep.

The result cache and the prep store are one
:class:`repro.bench.store.ContentStore` with two codecs.  Every check
here takes a :class:`Kind` (a store class plus values to put in it) and
runs unchanged against either; ``tests/test_bench_cache.py`` and
``tests/test_prep_store.py`` bind each check to their store under their
own test names.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import threading
import time
from typing import Callable

import numpy as np

from repro.analysis.experiment import run_version
from repro.bench.cache import ResultCache, default_cache
from repro.bench.prep import PrepStore, default_prep_store
from repro.bench.runner import Cell
from repro.bench.store import TMP_MAX_AGE_S


@dataclasses.dataclass(frozen=True)
class Kind:
    cls: type
    #: A config to store under.
    config: dict
    #: ``make(i)``: a valid value, distinguishable for each ``i``.
    make: Callable[[int], object]
    #: Hashable full content of a value (a torn read changes it).
    fingerprint: Callable[[object], object]
    #: Environment variables of the store's root and of its off switch.
    root_env: str
    off_env: str
    #: The process-wide store.
    default: Callable[[], object]

    def store(self, root, enabled: bool = True):
        return self.cls(root=str(root), enabled=enabled)


@functools.lru_cache(maxsize=None)
def cell_summary():
    """The real summary of :data:`CACHE`'s cell (computed once)."""
    return run_version("broadwell", "inline1", "lanczos", "deepsparse",
                       block_count=16, iterations=1).summary()


CACHE = Kind(
    cls=ResultCache,
    config=Cell(machine="broadwell", matrix="inline1", solver="lanczos",
                version="deepsparse", block_count=16,
                iterations=1).config(),
    make=lambda i: dataclasses.replace(cell_summary(),
                                       total_time=float(i + 1)),
    fingerprint=lambda s: json.dumps(s.to_dict()),
    root_env="REPRO_CACHE_DIR",
    off_env="REPRO_NO_CACHE",
    default=default_cache,
)

PREP = Kind(
    cls=PrepStore,
    config={"kind": "prep", "machine": "broadwell", "matrix": "inline1",
            "solver": "lobpcg", "width": 8},
    make=lambda i: {"tag": f"w{i}", "arr": np.arange(16, dtype=np.int64)},
    fingerprint=lambda a: (a["tag"], a["arr"].dtype.str,
                           a["arr"].tobytes()),
    root_env="REPRO_PREP_DIR",
    off_env="REPRO_NO_PREP",
    default=default_prep_store,
)


def _path(store, config):
    return store.path_for(store.key(config))


def flip_payload_byte(path):
    """Flip the first payload byte (the one after the header line)."""
    with open(path, "r+b") as f:
        f.readline()
        pos = f.tell()
        byte = f.read(1)
        f.seek(pos)
        f.write(bytes([byte[0] ^ 0xFF]))


# ----------------------------------------------------------------------
# switches
# ----------------------------------------------------------------------
def disabled_store_is_inert(kind: Kind, tmp_path, monkeypatch):
    """A disabled store neither serves an existing file nor writes, and
    the environment switch takes effect at construction."""
    root = tmp_path / "store"
    fresh = kind.store(root, enabled=False)
    fresh.put(kind.config, kind.make(0))
    assert fresh.get(kind.config) is None
    assert kind.config not in fresh
    assert fresh.stats()["writes"] == 0
    assert not os.path.exists(fresh.root)
    kind.store(root).put(kind.config, kind.make(0))
    off = kind.store(root, enabled=False)
    assert off.get(kind.config) is None     # the file exists, unserved
    assert kind.config not in off
    monkeypatch.setenv(kind.off_env, "1")
    env_off = kind.cls(root=str(root))
    assert not env_off.enabled
    assert env_off.get(kind.config) is None


def env_root_override(kind: Kind, tmp_path, monkeypatch):
    monkeypatch.setenv(kind.root_env, str(tmp_path / "alt"))
    assert kind.cls().root == str(tmp_path / "alt")


def default_store_tracks_environment(kind: Kind, tmp_path, monkeypatch):
    """The process-wide store follows its root and off switch when they
    change after the first call, and is the same instance while they
    do not."""
    monkeypatch.setenv(kind.root_env, str(tmp_path / "a"))
    monkeypatch.delenv(kind.off_env, raising=False)
    s1 = kind.default()
    assert s1.root == str(tmp_path / "a") and s1.enabled
    assert kind.default() is s1             # unchanged env -> same instance
    monkeypatch.setenv(kind.root_env, str(tmp_path / "b"))
    s2 = kind.default()
    assert s2 is not s1 and s2.root == str(tmp_path / "b")
    monkeypatch.setenv(kind.off_env, "1")
    assert not kind.default().enabled


# ----------------------------------------------------------------------
# corruption: quarantined, then recovered
# ----------------------------------------------------------------------
def damaged_header_is_a_miss_and_is_removed(kind: Kind, tmp_path):
    """A cut header line, and a well-formed header of another format,
    are misses that move the file aside; a fresh put serves again."""
    store = kind.store(tmp_path)
    store.put(kind.config, kind.make(0))
    path = _path(store, kind.config)
    with open(path, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(data[:data.index(b"\n") // 2])
    assert store.get(kind.config) is None
    assert not os.path.exists(path)

    store.put(kind.config, kind.make(0))
    head, payload = data.split(b"\n", 1)
    header = json.loads(head)
    header["format"] = 999
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n"
                + payload)
    assert store.get(kind.config) is None
    assert not os.path.exists(path)
    assert store.quarantined == 2

    store.put(kind.config, kind.make(1))
    assert kind.fingerprint(store.get(kind.config)) == \
        kind.fingerprint(kind.make(1))


def corrupt_files_are_quarantined_for_post_mortem(kind: Kind, tmp_path):
    """A bad file is moved to <root>/corrupt/, not destroyed: a miss
    for the experiment, evidence for the operator."""
    store = kind.store(tmp_path)
    store.put(kind.config, kind.make(0))
    key = store.key(kind.config)
    with open(store.path_for(key), "wb") as f:
        f.write(b"{ definitely not json")
    assert store.get(kind.config) is None
    assert store.quarantined == 1
    assert store.stats()["quarantined"] == 1
    qpath = os.path.join(store.quarantine_dir(), key + store.suffix)
    with open(qpath, "rb") as f:
        assert f.read() == b"{ definitely not json"
    # clear() leaves the quarantine alone (it's not addressable data).
    store.put(kind.config, kind.make(0))
    store.clear()
    assert os.path.exists(qpath)


def payload_damage_quarantined_then_recovers(kind: Kind, tmp_path):
    """Payload damage under an intact header is never served: a flipped
    byte, and a payload that still decodes (another valid value of the
    same length, as a flipped float digit would be) but is not the one
    the checksum names."""
    store = kind.store(tmp_path)
    path = _path(store, kind.config)
    other = store.encode(kind.make(1))
    assert len(other) == len(store.encode(kind.make(0)))

    def swap_payload(path):
        with open(path, "r+b") as f:
            f.readline()
            f.write(other)

    for n, damage in enumerate((flip_payload_byte, swap_payload), 1):
        store.put(kind.config, kind.make(0))
        damage(path)
        assert store.get(kind.config) is None
        assert store.quarantined == n
        assert not os.path.exists(path)
    assert os.listdir(store.quarantine_dir()) == [os.path.basename(path)]
    store.put(kind.config, kind.make(1))
    assert kind.fingerprint(store.get(kind.config)) == \
        kind.fingerprint(kind.make(1))


def clear_removes_entries(kind: Kind, tmp_path):
    store = kind.store(tmp_path)
    store.put(kind.config, kind.make(0))
    store.put(dict(kind.config, iterations=2), kind.make(1))
    assert store.clear() == 2
    assert store.get(kind.config) is None


def gc_spares_in_flight_put(kind: Kind, tmp_path, monkeypatch):
    """``gc`` from a second store, run between a ``put``'s ``mkstemp``
    and its ``os.replace``, leaves that put's temp file alone, so the
    put publishes; a ``.tmp`` older than ``TMP_MAX_AGE_S`` still goes."""
    store = kind.store(tmp_path)
    subdir = os.path.dirname(_path(store, kind.config))
    os.makedirs(subdir)
    dead = os.path.join(subdir, "dead.tmp")
    with open(dead, "wb") as f:
        f.write(b"junk")
    old = time.time() - TMP_MAX_AGE_S - 60
    os.utime(dead, (old, old))
    removed = []
    real_replace = os.replace

    def replace(src, dst):
        assert os.path.exists(src)
        removed.append(kind.store(tmp_path).gc())
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    store.put(kind.config, kind.make(0))
    monkeypatch.undo()
    assert removed == [{"stale": 0, "tmp": 1, "corrupt": 0}]
    assert not os.path.exists(dead)
    assert kind.fingerprint(store.get(kind.config)) == \
        kind.fingerprint(kind.make(0))
    assert not [n for n in os.listdir(subdir) if n.endswith(".tmp")]


# ----------------------------------------------------------------------
# Concurrency: atomic publish + quarantine under racing readers
# ----------------------------------------------------------------------
def parallel_writers_same_key_one_valid_file(kind: Kind, tmp_path):
    """Threads racing ``put`` on one key, each with a distinguishable
    valid value, leave exactly one intact file and no stray temp files;
    concurrent readers see a miss or one writer's complete value, never
    a torn one, and never quarantine a clean write."""
    values = [kind.make(i) for i in range(8)]
    allowed = {kind.fingerprint(v) for v in values}
    barrier = threading.Barrier(12)
    failures = []
    stop = threading.Event()

    def writer(value):
        store = kind.store(tmp_path)
        barrier.wait()
        for _ in range(25):
            store.put(kind.config, value)

    def reader():
        store = kind.store(tmp_path)
        barrier.wait()
        while not stop.is_set():
            try:
                got = store.get(kind.config)
            except Exception as e:  # pragma: no cover - the bug case
                failures.append(f"reader raised {type(e).__name__}: {e}")
                return
            if got is not None and kind.fingerprint(got) not in allowed:
                failures.append("torn read")
                return
        if store.quarantined:
            failures.append(f"reader quarantined {store.quarantined} "
                            f"files during clean writes")

    crew = ([threading.Thread(target=writer, args=(v,)) for v in values]
            + [threading.Thread(target=reader) for _ in range(4)])
    for t in crew:
        t.start()
    for t in crew[:8]:
        t.join()
    stop.set()
    for t in crew[8:]:
        t.join()
    assert not failures, failures

    check = kind.store(tmp_path)
    subdir = os.path.dirname(_path(check, kind.config))
    files = [n for n in os.listdir(subdir) if n.endswith(check.suffix)]
    leftovers = [n for n in os.listdir(subdir) if n.endswith(".tmp")]
    assert len(files) == 1
    assert not leftovers, f"unpublished temp files left: {leftovers}"
    final = check.get(kind.config)
    assert final is not None and kind.fingerprint(final) in allowed
    assert check.quarantined == 0


def concurrent_readers_during_quarantine_never_torn(kind: Kind, tmp_path):
    """Readers racing over a damaged file each get a clean miss (or a
    valid re-published value) while one of them moves the evidence to
    ``corrupt/``: nobody crashes, nobody loads garbage."""
    good = kind.make(0)
    seed = kind.store(tmp_path)
    seed.put(kind.config, good)
    flip_payload_byte(_path(seed, kind.config))

    barrier = threading.Barrier(9)
    first_read = threading.Event()
    failures = []
    lock = threading.Lock()
    shared = kind.store(tmp_path)       # one store, many threads

    def reader():
        barrier.wait()
        for _ in range(50):
            try:
                got = shared.get(kind.config)
            except Exception as e:  # pragma: no cover - the bug case
                with lock:
                    failures.append(f"raised {type(e).__name__}: {e}")
                return
            finally:
                first_read.set()
            if (got is not None
                    and kind.fingerprint(got) != kind.fingerprint(good)):
                with lock:
                    failures.append("torn value observed")
                return

    def rewriter():
        # Held until a reader has faced the damaged bytes, so the
        # quarantine path is exercised every run -- the readers still
        # race each other over it, and then race these republishes.
        store = kind.store(tmp_path)
        barrier.wait()
        first_read.wait()
        for _ in range(25):
            store.put(kind.config, good)

    crew = ([threading.Thread(target=reader) for _ in range(8)]
            + [threading.Thread(target=rewriter)])
    for t in crew:
        t.start()
    for t in crew:
        t.join()
    assert not failures, failures
    final = kind.store(tmp_path)
    got = final.get(kind.config)
    assert got is not None and kind.fingerprint(got) == kind.fingerprint(good)
    assert final.quarantined == 0
    # The damaged original was preserved for post-mortem, not lost.
    qdir = seed.quarantine_dir()
    assert os.path.isdir(qdir) and len(os.listdir(qdir)) >= 1
