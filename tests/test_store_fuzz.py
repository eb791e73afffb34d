"""Fuzzed on-disk readers: the prep store and the result cache.

Each example takes one real file written by ``put`` -- a prep artifact
or a result-cache entry -- flips, truncates or appends bytes, and reads
it back through a fresh store.  Every damaged file must fail closed:
``get`` returns ``None``, never raises, quarantines the file to
``<root>/corrupt/`` and leaves the cyclic collector enabled.

A prep artifact's DAG carries a rebuild recipe instead of its ``Task``
list, and runs it only at the first ``dag.tasks``, long after ``get``.
Damage inside the recipe must still fail at ``get`` (the checksum
covers it), so it never surfaces at a later rebuild.
"""

import gc
import hashlib
import json
import os
import pickletools
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.analysis.experiment as experiment
from repro.bench.cache import ResultCache
from repro.bench.prep import PREP_FORMAT, PrepStore
from repro.bench.store import _header_line
from repro.bench.runner import Cell

CELL = ("broadwell", "inline1", "lobpcg", "deepsparse")

#: Bytes at the head of each file, where the header line (format,
#: salt, key, checksum, length and config) lives.
_HEAD = 1024

#: (kind, position, in_head, mask or extra bytes).  Half of the flips
#: and cuts land in the first :data:`_HEAD` bytes, where the metadata
#: lives; the rest anywhere in the file.
_MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**31), st.booleans(),
              st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 2**31), st.booleans(),
              st.none()),
    st.tuples(st.just("append"), st.just(0), st.just(False),
              st.binary(min_size=1, max_size=64)),
)


def _mutate(data: bytes, mutation) -> bytes:
    kind, pos, in_head, extra = mutation
    pos %= min(_HEAD, len(data)) if in_head else len(data)
    if kind == "flip":
        return data[:pos] + bytes([data[pos] ^ extra]) + data[pos + 1:]
    if kind == "truncate":
        return data[:pos]
    return data + extra


class _Files(dict):
    def __repr__(self):                 # keep Hypothesis reports short
        return "<pristine store files>"


def _recipe_span(data: bytes):
    """``(offset, length)`` of the DAG's pickled recipe in a prep file:
    its ``recipe`` attribute key and value, up to the next key."""
    head = data.index(b"\n") + 1
    ops = pickletools.genops(data[head:])
    start = next(pos for _, arg, pos in ops if arg == "recipe")
    end = next(pos for _, arg, pos in ops if arg == "succ")
    assert b"spmm_mode" in data[head + start:head + end]
    return head + start, end - start


def _pickled_globals(payload: bytes) -> set:
    """Every ``module name`` global a pickle stream imports, from its
    opcodes alone (``GLOBAL``, and ``STACK_GLOBAL`` over the two
    strings pushed before it, memo fetches included)."""
    found, pushed, memo = set(), [], []
    for op, arg, _ in pickletools.genops(payload):
        name = op.name
        if name == "GLOBAL":
            found.add(arg)
        elif name == "STACK_GLOBAL":
            found.add(f"{pushed[-2]} {pushed[-1]}")
        elif name == "MEMOIZE":
            memo.append(pushed[-1] if pushed else None)
            continue
        elif name in ("BINGET", "LONG_BINGET"):
            pushed.append(memo[arg])
            continue
        pushed.append(arg if isinstance(arg, str) else None)
    return found


def test_artifact_recipe_is_plain_data(pristine):
    """The recipe travels as plain data: loading an artifact imports no
    ``functools.partial`` and names no rebuild function."""
    _, _, data = pristine["prep"]
    found = _pickled_globals(data[data.index(b"\n") + 1:])
    assert "repro.graph.dag TaskDAG" in found       # the scan sees globals
    assert not [g for g in found
                if g.startswith("functools ") or "_rebuild_dag" in g]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """One real prep artifact and one real cache entry, as bytes."""
    machine, matrix, solver, version = CELL
    root = str(tmp_path_factory.mktemp("stores"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_PREP_DIR", os.path.join(root, "prep"))
        mp.delenv("REPRO_NO_PREP", raising=False)
        experiment._prepped_dag.cache_clear()
        prep_config = experiment.prebuild_prep(
            machine, matrix, solver, version, block_count=16)
        summary = experiment.run_version(
            machine, matrix, solver, version, block_count=16,
            iterations=1).summary()
        experiment._prepped_dag.cache_clear()
    prep = PrepStore(root=os.path.join(root, "prep"), enabled=True)
    with open(prep.path_for(prep.key(prep_config)), "rb") as f:
        prep_bytes = f.read()
    cell_config = Cell(machine, matrix, solver, version, block_count=16,
                       iterations=1).config()
    cache = ResultCache(root=os.path.join(root, "cache"), enabled=True)
    cache.put(cell_config, summary)
    with open(cache.path_for(cache.key(cell_config)), "rb") as f:
        cache_bytes = f.read()
    return _Files(prep=(PrepStore, prep_config, prep_bytes),
                  cache=(ResultCache, cell_config, cache_bytes))


def _read_back(store_cls, config, data):
    """A fresh store's ``get`` over ``data`` planted at the key's path:
    ``(artifact, file still in place, files moved to corrupt/)``."""
    with tempfile.TemporaryDirectory() as root:
        store = store_cls(root=root, enabled=True)
        path = store.path_for(store.key(config))
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as f:
            f.write(data)
        got = store.get(config)
        qdir = store.quarantine_dir()
        moved = len(os.listdir(qdir)) if os.path.isdir(qdir) else 0
        assert store.quarantined == moved
        return got, os.path.exists(path), moved


@pytest.mark.parametrize("kind", ["prep", "cache"])
def test_pristine_file_reads_back(pristine, kind):
    store_cls, config, data = pristine[kind]
    got, in_place, moved = _read_back(store_cls, config, data)
    assert got is not None and in_place and moved == 0
    if kind == "prep":
        header = json.loads(data.split(b"\n", 1)[0])
        assert header["format"] == PREP_FORMAT
        dag = got["dag"]
        assert dag._tasks is None       # loaded, not rebuilt
        assert [t.kernel for t in dag.tasks] == dag.kernel_of()


@pytest.mark.parametrize("kind", ["prep", "cache"])
@pytest.mark.parametrize("data", [b"", b"[]", b"null", b"{}", b"[]\n"])
def test_replaced_file_fails_closed(pristine, kind, data):
    """Whole-file replacements, including valid JSON of the wrong
    shape, which no single-byte mutation of a real file produces."""
    store_cls, config, _ = pristine[kind]
    assert _read_back(store_cls, config, data) == (None, False, 1)


@pytest.mark.parametrize("kind", ["prep", "cache"])
def test_reformatted_metadata_fails_closed(pristine, kind):
    """Same values in other JSON text: not what ``put`` wrote.  Random
    flips rarely land on this, so it is pinned here."""
    store_cls, config, data = pristine[kind]
    reformatted = data.replace(b'": ', b'":\t', 1)
    assert reformatted != data
    assert _read_back(store_cls, config, reformatted) == (None, False, 1)


@pytest.mark.parametrize("kind", ["prep", "cache"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=_MUTATIONS)
def test_damaged_file_fails_closed(pristine, kind, mutation):
    store_cls, config, data = pristine[kind]
    damaged = _mutate(data, mutation)
    assert damaged != data
    assert _read_back(store_cls, config, damaged) == (None, False, 1)
    assert gc.isenabled()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["flip", "truncate"]),
       offset=st.integers(0, 2**31), mask=st.integers(1, 255))
def test_damaged_recipe_fails_closed_at_get(pristine, kind, offset, mask):
    """Flips and cuts inside the recipe quarantine at ``get``."""
    store_cls, config, data = pristine["prep"]
    start, length = _recipe_span(data)
    pos = start + offset % length
    if kind == "flip":
        damaged = data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1:]
    else:
        damaged = data[:pos]
    assert _read_back(store_cls, config, damaged) == (None, False, 1)
    assert gc.isenabled()


@pytest.mark.parametrize("kind", ["prep", "cache"])
def test_prep_gc_drops_a_format_2_orphan(pristine, tmp_path, monkeypatch,
                                         capsys, kind):
    """A file of an older layout is stale: ``repro prep gc`` removes it
    from either store and keeps the live one.  The result cache's
    format 2 entry predates the header line: it is one JSON document."""
    from repro.cli import main
    from repro.sim.cost import COST_MODEL_VERSION

    store_cls, config, data = pristine[kind]
    root = str(tmp_path / kind)
    live = store_cls(root=root, enabled=True)
    live_path = live.path_for(live.key(config))
    old = store_cls(root=root, enabled=True, salt=(
        f"cost-v{COST_MODEL_VERSION}/"
        f"{'prep' if kind == 'prep' else 'entry'}-v2"))
    old_path = old.path_for(old.key(config))
    header, payload = data.split(b"\n", 1)
    if kind == "prep":
        header = json.loads(header)
        header.update(format=2, salt=old.salt, key=old.key(config))
        blob = _header_line(header) + payload
    else:
        summary = json.loads(payload)
        canonical = json.dumps(summary, sort_keys=True,
                               separators=(",", ":"))
        blob = json.dumps({
            "format": 2, "key": old.key(config), "salt": old.salt,
            "config": config,
            "checksum": hashlib.sha256(canonical.encode()).hexdigest(),
            "summary": summary,
        }).encode()
    for path, content in ((live_path, data), (old_path, blob)):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as f:
            f.write(content)
    monkeypatch.setenv("REPRO_PREP_DIR", str(tmp_path / "prep"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_PREP", raising=False)
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    assert main(["prep", "gc"]) == 0
    assert not os.path.exists(old_path)
    assert os.path.exists(live_path)
    label = "prep" if kind == "prep" else "result"
    out = capsys.readouterr().out
    assert f"{label} gc: removed 1 stale, 0 tmp, 0 corrupt" in out
    assert len(out.splitlines()) == 2       # one line per store
