"""Content-addressed store for compiled per-cell prep artifacts.

The result cache (:mod:`repro.bench.cache`) memoizes *finished
summaries*; this store memoizes the expensive *inputs* of a simulation
cell — the built matrix census, the task DAG with its frozen
structure-of-arrays view (:meth:`repro.graph.dag.TaskDAG.freeze`),
interned handle tables, compiled access plans
(:meth:`repro.sim.cost.CostModel.prepare`) and scheduler domain tables
— so a cold sweep builds each distinct prep exactly once per machine
and every later cell (or worker process, or future sweep) loads it.

Layout mirrors the result cache: one file per artifact under
``<root>/<key[:2]>/<key>.prep``, ``key`` the SHA-256 of the canonical
JSON config plus :data:`PREP_SALT`.  The salt embeds
:data:`repro.sim.cost.COST_MODEL_VERSION` *and* :data:`PREP_FORMAT`,
so cost-semantics changes and artifact-layout changes each orphan old
entries (never mis-serve them).

File format (:data:`PREP_FORMAT` 6): one JSON header line —
``{"format", "salt", "key", "checksum", "nbytes", "config"}`` — then
``nbytes`` of pickled payload ``{"config", "census", "dag"}``.  The
DAG is pickled without its ``Task`` list and without its successor
CSR (derived from ``succ`` on demand): it carries its frozen arrays,
interned tables, compiled plans, domain tables and BSP phases, plus
its rebuild recipe as plain data (matrix, block size, solver, width
and build-option fields; :meth:`repro.graph.dag.TaskDAG.__getstate__`).
A run reads only the former.  A consumer outside the simulation run
path (trace export, Gantt, the threaded runtime, analysis) rebuilds
the list through the DAG builder at its first ``dag.tasks``, which
fails closed if the rebuilt graph differs from the loaded arrays in
any field.  A DAG built in process holds no list either until asked:
the cold path (build, plan compile, ``put``) never makes one.
The checksum is the SHA-256 of the whole payload bytes, recipe
included, so damage anywhere is caught at ``get``, never at a later
rebuild.  Reads verify that the header line is exactly the canonical
JSON ``put`` writes, every header field (the config must hash to the
key), the length and the checksum, and *any* failure (truncation, bad
pickle, wrong salt, checksum mismatch) quarantines the file to
``<root>/corrupt/`` and reports a miss — a broken store must never
break an experiment.  The human-readable
header makes ``repro prep list`` a one-line read per artifact.

Reads are not memoized: every ``get`` re-reads, re-validates and
unpickles.  The in-process memo is the experiment driver's DAG memo
(:func:`repro.analysis.experiment._prepped_dag`), which asks the store
once per cell subkey.

The payload travels by ``pickle``, which is only safe because this is
a *local build cache*: every entry is written by this same codebase on
this same machine, keys are content addresses of trusted configs, and
anything unreadable is quarantined, never executed around.

Environment:

* ``REPRO_PREP_DIR`` — overrides the store root (defaults to
  ``<$REPRO_CACHE_DIR or .repro_cache>/prep``).
* ``REPRO_NO_PREP=1`` — disables the store (gets miss, puts drop).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from typing import Iterator, Optional

from repro.bench.cache import DEFAULT_ROOT, cache_key
from repro.sim.cost import COST_MODEL_VERSION

__all__ = [
    "PREP_FORMAT",
    "PREP_SALT",
    "PrepStore",
    "default_prep_store",
]

#: Storage-schema version of one prep artifact.  Bump on any change to
#: the payload layout *or* to the pickled structures it carries (plan
#: tuple shape, GraphArrays fields, …) *or* to what a DAG's recipe
#: rebuilds: old artifacts are orphaned by the salt, not migrated.
PREP_FORMAT = 6

#: Code fingerprint mixed into every key.
PREP_SALT = f"cost-v{COST_MODEL_VERSION}/prep-v{PREP_FORMAT}"


def _default_root() -> str:
    explicit = os.environ.get("REPRO_PREP_DIR")
    if explicit:
        return explicit
    base = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_ROOT
    return os.path.join(base, "prep")


def _header_line(header: dict) -> bytes:
    """The exact first line ``put`` writes, and ``get`` demands."""
    return json.dumps(header, sort_keys=True,
                      default=str).encode("utf-8") + b"\n"


class PrepStore:
    """Persistent prep-artifact store; concurrent-reader/writer safe.

    Same durability contract as :class:`repro.bench.cache.ResultCache`:
    atomic tempfile + ``os.replace`` writes, quarantine-on-corruption
    reads, content-addressed keys.
    """

    def __init__(self, root: Optional[str] = None,
                 enabled: Optional[bool] = None,
                 salt: str = PREP_SALT):
        if root is None:
            root = _default_root()
        if enabled is None:
            enabled = os.environ.get("REPRO_NO_PREP", "") not in (
                "1", "true", "yes", "on",
            )
        self.root = os.path.abspath(root)
        self.enabled = bool(enabled)
        self.salt = salt
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    def key(self, config: dict) -> str:
        return cache_key(config, self.salt)

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".prep")

    def quarantine_dir(self) -> str:
        return os.path.join(self.root, "corrupt")

    def _quarantine(self, path: str) -> None:
        """Move a corrupt artifact aside (best-effort, never raises)."""
        try:
            qdir = self.quarantine_dir()
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(qdir, os.path.basename(path)))
            self.quarantined += 1
        except OSError:
            try:
                os.unlink(path)
                self.quarantined += 1
            except OSError:
                pass

    # ------------------------------------------------------------------
    def get(self, config: dict):
        """Load the artifact for ``config``, or ``None`` on a miss."""
        if not self.enabled:
            return None
        key = self.key(config)
        path = self.path_for(key)
        try:
            with open(path, "rb") as f:
                line = f.readline()
                header = json.loads(line.decode("utf-8"))
                if _header_line(header) != line:
                    raise ValueError("artifact header not canonical")
                if header.get("format") != PREP_FORMAT:
                    raise ValueError(
                        f"artifact format {header.get('format')!r}")
                if header.get("salt") != self.salt:
                    raise ValueError(f"artifact salt {header.get('salt')!r}")
                if (header.get("key") != key
                        or cache_key(header["config"], self.salt) != key):
                    raise ValueError("artifact key mismatch")
                nbytes = header["nbytes"]
                payload = f.read(nbytes + 1)
            if len(payload) != nbytes:
                raise ValueError(
                    f"payload truncated ({len(payload)}/{nbytes} bytes)")
            if hashlib.sha256(payload).hexdigest() != header.get("checksum"):
                raise ValueError("payload checksum mismatch")
            artifact = pickle.loads(payload)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Any decode failure — bad JSON header, short read, pickle
            # error, missing field — quarantines the file and misses.
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return artifact

    def put(self, config: dict, artifact) -> None:
        """Store an artifact atomically (last concurrent writer wins)."""
        if not self.enabled:
            return
        key = self.key(config)
        path = self.path_for(key)
        payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        header = {
            "format": PREP_FORMAT,
            "salt": self.salt,
            "key": key,
            "checksum": hashlib.sha256(payload).hexdigest(),
            "nbytes": len(payload),
            "config": config,
        }
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(_header_line(header))
                f.write(payload)
            os.replace(tmp, path)  # atomic on POSIX
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1

    def __contains__(self, config: dict) -> bool:
        return self.enabled and os.path.exists(
            self.path_for(self.key(config))
        )

    # ------------------------------------------------------------------
    def _entry_paths(self) -> Iterator[str]:
        if not os.path.isdir(self.root):
            return
        for sub in sorted(os.listdir(self.root)):
            subdir = os.path.join(self.root, sub)
            if not os.path.isdir(subdir) or len(sub) != 2:
                continue
            for name in sorted(os.listdir(subdir)):
                if name.endswith(".prep"):
                    yield os.path.join(subdir, name)

    def entries(self):
        """Headers of every artifact on disk (for ``repro prep list``).

        Unreadable headers yield ``{"path": .., "error": ..}`` stubs
        instead of raising — listing must work on a damaged store.
        """
        out = []
        for path in self._entry_paths():
            try:
                with open(path, "rb") as f:
                    header = json.loads(f.readline().decode("utf-8"))
                header["path"] = path
                header["file_bytes"] = os.path.getsize(path)
                out.append(header)
            except Exception as exc:
                out.append({"path": path, "error": str(exc)})
        return out

    def gc(self) -> dict:
        """Drop artifacts no current code path would ever load.

        Removes entries whose header is unreadable or whose salt
        differs from the running code's (orphans from older
        ``COST_MODEL_VERSION``/:data:`PREP_FORMAT`), plus leftover
        ``.tmp`` files and everything in ``corrupt/``.  Live-salt
        entries are kept.  Returns removal counts.
        """
        stale = tmp = corrupt = 0
        for path in list(self._entry_paths()):
            drop = False
            try:
                with open(path, "rb") as f:
                    header = json.loads(f.readline().decode("utf-8"))
                drop = header.get("salt") != self.salt
            except Exception:
                drop = True
            if drop:
                try:
                    os.unlink(path)
                    stale += 1
                except OSError:
                    pass
        if os.path.isdir(self.root):
            for sub in os.listdir(self.root):
                subdir = os.path.join(self.root, sub)
                if not os.path.isdir(subdir) or len(sub) != 2:
                    continue
                for name in os.listdir(subdir):
                    if name.endswith(".tmp"):
                        try:
                            os.unlink(os.path.join(subdir, name))
                            tmp += 1
                        except OSError:
                            pass
        qdir = self.quarantine_dir()
        if os.path.isdir(qdir):
            for name in os.listdir(qdir):
                try:
                    os.unlink(os.path.join(qdir, name))
                    corrupt += 1
                except OSError:
                    pass
        return {"stale": stale, "tmp": tmp, "corrupt": corrupt}

    def clear(self) -> int:
        """Remove every artifact; returns the number removed."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> dict:
        return {
            "root": self.root,
            "enabled": self.enabled,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "quarantined": self.quarantined,
        }

    def __repr__(self):
        state = "on" if self.enabled else "off"
        return (f"PrepStore({self.root!r}, {state}, "
                f"hits={self.hits}, misses={self.misses})")


_DEFAULT: Optional[PrepStore] = None


def default_prep_store() -> PrepStore:
    """Process-wide store tracking the environment.

    Unlike the result cache's process singleton, the environment is
    re-checked on every call: tests and the experiment runner retarget
    the store by monkeypatching ``REPRO_PREP_DIR``/``REPRO_NO_PREP``
    mid-process, and a stale singleton would silently keep writing to
    the old root.  The instance (and its hit/miss counters) is only
    replaced when the env-derived config actually changed.
    """
    global _DEFAULT
    root = os.path.abspath(_default_root())
    enabled = os.environ.get("REPRO_NO_PREP", "") not in (
        "1", "true", "yes", "on",
    )
    if (_DEFAULT is None or _DEFAULT.root != root
            or _DEFAULT.enabled != enabled or _DEFAULT.salt != PREP_SALT):
        _DEFAULT = PrepStore(root=root, enabled=enabled)
    return _DEFAULT
