"""One fail-closed, content-addressed on-disk store.

:class:`ContentStore` is the design both of ``repro.bench``'s stores
share: the result cache (:mod:`repro.bench.cache`) and the prep store
(:mod:`repro.bench.prep`).  A subclass supplies only its class
constants (:attr:`~ContentStore.format`, :attr:`~ContentStore.salt`,
:attr:`~ContentStore.suffix`), its environment-derived root and
enabled defaults (:meth:`~ContentStore.env_defaults`) and a two-method
codec (:meth:`~ContentStore.encode` / :meth:`~ContentStore.decode`).

Layout: one file per value under ``<root>/<key[:2]>/<key><suffix>``,
where ``key`` is the SHA-256 of the salt plus the canonical JSON
encoding of the config (:func:`content_key`).  A salt embeds
:data:`repro.sim.cost.COST_MODEL_VERSION` and the store's format, so a
cost-semantics or layout change orphans old files (they stop being
addressed) instead of mis-serving them.

File format: one canonical JSON header line --
``{"checksum", "config", "format", "key", "nbytes", "salt"}`` with
sorted keys -- then ``nbytes`` of encoded payload.  ``checksum`` is the
SHA-256 of the raw payload bytes.  The header is human-readable, so
listing a store is one line read per file.

Properties every store keeps:

* **Fail closed** -- ``get`` demands that the header line is exactly
  the text ``put`` writes, that its format, salt and key are the
  reader's, that its config hashes to its key, and that the payload
  has its length and checksum.  *Any* failure (truncation, bad JSON,
  wrong salt, checksum mismatch, a codec error) moves the file aside
  to ``<root>/corrupt/`` for post-mortem and reports a miss; a broken
  store never breaks an experiment.
* **Atomic writes** -- a temp file in the target directory,
  ``os.replace``'d into place, so concurrent readers and writers never
  see a torn file; the last concurrent writer wins.
* **No read memo** -- every ``get`` re-reads and re-validates.

The default instance of each store (:func:`default_store`) tracks the
environment: it is re-derived on every call and replaced only when the
env-derived root or enabled flag changed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "ContentStore",
    "DEFAULT_ROOT",
    "TMP_MAX_AGE_S",
    "content_key",
    "default_store",
    "env_flag",
]

#: Root of the result cache, and parent of the prep store's root.
DEFAULT_ROOT = ".repro_cache"

#: Age in seconds past which ``gc`` takes a ``.tmp`` file for a dead
#: ``put``'s leftover.  A younger one may be a ``put`` still writing
#: (another process's sweep), whose ``os.replace`` would fail if its
#: temp file vanished.
TMP_MAX_AGE_S = 3600.0


def env_flag(name: str) -> bool:
    """Whether environment variable ``name`` is set to a true value."""
    return os.environ.get(name, "") in ("1", "true", "yes", "on")


def _canonical(config: dict) -> str:
    """Stable, process-independent encoding of a config."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"),
                      default=str)


def content_key(config: dict, salt: str) -> str:
    """Content address of ``config`` under ``salt`` (process-stable)."""
    payload = salt + "\n" + _canonical(config)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _header_line(header: dict) -> bytes:
    """The exact first line ``put`` writes, and ``get`` demands."""
    return json.dumps(header, sort_keys=True,
                      default=str).encode("utf-8") + b"\n"


def _read_header(f) -> dict:
    return json.loads(f.readline().decode("utf-8"))


class ContentStore:
    """Persistent content-addressed store; concurrent-reader/writer safe.

    Parameters
    ----------
    root:
        Directory to store files in; defaults to the subclass's
        environment-derived root.
    enabled:
        Force-enable/disable; defaults to the subclass's environment
        switch.  A disabled store misses every ``get`` and drops every
        ``put``.
    salt:
        Code fingerprint mixed into keys; defaults to the class's
        :attr:`salt` (tests override it to model a version bump).
    """

    #: Storage-schema version written to (and demanded from) headers.
    format: int
    #: Code fingerprint mixed into every key.
    salt: str
    #: File-name suffix of one stored value.
    suffix: str

    def __init__(self, root: Optional[str] = None,
                 enabled: Optional[bool] = None,
                 salt: Optional[str] = None):
        env_root, env_enabled = self.env_defaults()
        self.root = os.path.abspath(env_root if root is None else root)
        self.enabled = bool(env_enabled if enabled is None else enabled)
        if salt is not None:
            self.salt = salt
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: Files moved to ``<root>/corrupt/`` by reads that found them
        #: damaged (surfaced in the bench summary line).
        self.quarantined = 0

    # -- what a subclass supplies ---------------------------------------
    @staticmethod
    def env_defaults() -> Tuple[str, bool]:
        """``(root, enabled)`` as the environment sets them now."""
        raise NotImplementedError

    def encode(self, value) -> bytes:
        raise NotImplementedError

    def decode(self, payload: bytes):
        raise NotImplementedError

    # -- addressing ------------------------------------------------------
    def key(self, config: dict) -> str:
        return content_key(config, self.salt)

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + self.suffix)

    def quarantine_dir(self) -> str:
        return os.path.join(self.root, "corrupt")

    def _quarantine(self, path: str) -> None:
        """Move a damaged file aside (best-effort, never raises)."""
        try:
            qdir = self.quarantine_dir()
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(qdir, os.path.basename(path)))
            self.quarantined += 1
        except OSError:
            # Fall back to plain removal; if even that fails the file
            # just stays and is re-quarantined at the next read.
            try:
                os.unlink(path)
                self.quarantined += 1
            except OSError:
                pass

    # -- reads and writes ------------------------------------------------
    def get(self, config: dict):
        """The stored value for ``config``, or ``None`` on a miss."""
        if not self.enabled:
            return None
        key = self.key(config)
        path = self.path_for(key)
        try:
            with open(path, "rb") as f:
                line = f.readline()
                header = json.loads(line.decode("utf-8"))
                if _header_line(header) != line:
                    raise ValueError("header is not in canonical form")
                if header["format"] != self.format:
                    raise ValueError(f"format {header['format']!r}")
                if header["salt"] != self.salt:
                    raise ValueError(f"salt {header['salt']!r}")
                if (header["key"] != key
                        or content_key(header["config"], self.salt) != key):
                    raise ValueError("header does not match its key")
                nbytes = header["nbytes"]
                payload = f.read(nbytes + 1)
            if len(payload) != nbytes:
                raise ValueError(
                    f"payload truncated ({len(payload)}/{nbytes} bytes)")
            if hashlib.sha256(payload).hexdigest() != header["checksum"]:
                raise ValueError("payload checksum mismatch")
            value = self.decode(payload)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, config: dict, value) -> None:
        """Store ``value`` atomically (last concurrent writer wins)."""
        if not self.enabled:
            return
        key = self.key(config)
        path = self.path_for(key)
        payload = self.encode(value)
        header = {
            "format": self.format,
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

    # -- maintenance -----------------------------------------------------
    def _paths(self, suffix: str) -> Iterator[str]:
        """Files ending in ``suffix`` in the ``<key[:2]>`` directories."""
        if not os.path.isdir(self.root):
            return
        for sub in sorted(os.listdir(self.root)):
            subdir = os.path.join(self.root, sub)
            if not os.path.isdir(subdir) or len(sub) != 2:
                continue
            for name in sorted(os.listdir(subdir)):
                if name.endswith(suffix):
                    yield os.path.join(subdir, name)

    @staticmethod
    def _unlink_all(paths) -> int:
        removed = 0
        for path in list(paths):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def entries(self):
        """Headers of every stored file (for ``repro prep list``).

        Unreadable headers yield ``{"path": .., "error": ..}`` stubs
        instead of raising: listing must work on a damaged store.
        """
        out = []
        for path in self._paths(self.suffix):
            try:
                with open(path, "rb") as f:
                    header = _read_header(f)
                header["path"] = path
                header["file_bytes"] = os.path.getsize(path)
                out.append(header)
            except Exception as exc:
                out.append({"path": path, "error": str(exc)})
        return out

    def gc(self) -> dict:
        """Drop files no current code path would ever read.

        Removes files whose header is unreadable or whose salt differs
        from this store's (orphans of an older ``COST_MODEL_VERSION``
        or format), ``.tmp`` files older than :data:`TMP_MAX_AGE_S`
        (younger ones may belong to a ``put`` in flight) and everything
        in ``corrupt/``.  Live-salt files are kept.  Returns removal
        counts.
        """
        def stale(path):
            try:
                with open(path, "rb") as f:
                    return _read_header(f).get("salt") != self.salt
            except Exception:
                return True

        cutoff = time.time() - TMP_MAX_AGE_S

        def abandoned(path):
            try:
                return os.path.getmtime(path) < cutoff
            except OSError:                 # its put just published it
                return False

        qdir = self.quarantine_dir()
        return {
            "stale": self._unlink_all(
                p for p in self._paths(self.suffix) if stale(p)),
            "tmp": self._unlink_all(
                p for p in self._paths(".tmp") if abandoned(p)),
            "corrupt": self._unlink_all(
                os.path.join(qdir, n) for n in
                (os.listdir(qdir) if os.path.isdir(qdir) else ())),
        }

    def clear(self) -> int:
        """Remove every stored file; returns the number removed.  The
        quarantine is left alone (it is evidence, not data)."""
        return self._unlink_all(self._paths(self.suffix))

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
        return (f"{type(self).__name__}({self.root!r}, {state}, "
                f"hits={self.hits}, misses={self.misses})")


_DEFAULTS: Dict[type, ContentStore] = {}


def default_store(cls):
    """Process-wide instance of store class ``cls``, tracking the
    environment.

    The environment is re-checked on every call: tests and the
    experiment runner retarget a store by changing its ``REPRO_*``
    variables mid-process, and a stale singleton would silently keep
    writing to the old root.  The instance (and its hit/miss counters)
    is replaced only when the env-derived root or enabled flag changed.
    """
    root, enabled = cls.env_defaults()
    root = os.path.abspath(root)
    store = _DEFAULTS.get(cls)
    if store is None or store.root != root or store.enabled != enabled:
        store = _DEFAULTS[cls] = cls(root=root, enabled=enabled)
    return store
