"""Content-addressed on-disk store for simulated run summaries.

Layout: one JSON file per cell under ``<root>/<key[:2]>/<key>.json``,
where ``key`` is the SHA-256 of the canonical JSON encoding of the
cell config plus a code fingerprint (:data:`CACHE_SALT`).  The salt
embeds :data:`repro.sim.cost.COST_MODEL_VERSION`, so any change to
cost-model *semantics* invalidates every cached number; bit-identical
performance refactors keep the cache warm.

Properties the experiment pipeline relies on:

* **Process-safe writes** — entries are written to a temp file in the
  same directory and ``os.replace``'d into place, so concurrent
  workers never expose a torn file.
* **Corruption tolerance** — an unreadable, truncated, or
  checksum-failing entry is treated as a miss and *quarantined* (moved
  aside to ``<root>/corrupt/`` for post-mortem), never an exception.
* **Payload checksums** — every entry embeds the SHA-256 of its
  canonical summary JSON; reads verify it, so silent on-disk
  corruption that still parses as JSON is caught too.  The rest of
  the entry is checked as well: the file must be the exact JSON text
  ``put`` writes, its key and salt must be the reader's, and its
  config must hash to its key.
* **Bit-exact round trip** — floats survive via ``repr`` in JSON, so a
  warm-cache re-run returns byte-identical summaries.

Environment:

* ``REPRO_CACHE_DIR`` — overrides the default ``.repro_cache/`` root.
* ``REPRO_NO_CACHE=1`` — disables the store (all gets miss, puts drop).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Optional

from repro.sim.cost import COST_MODEL_VERSION
from repro.sim.engine import RunResultSummary

__all__ = [
    "CACHE_SALT",
    "ENTRY_FORMAT",
    "ResultCache",
    "cache_key",
    "default_cache",
]

#: Storage-schema version of one cache entry (bump on layout changes).
#: v2 added the payload checksum; v1 entries are orphaned by the salt
#: (never addressed again), not quarantined — they are not corrupt.
ENTRY_FORMAT = 2

#: Code fingerprint mixed into every key: cost-model semantics + entry
#: schema.  Bumping either orphans old entries (they simply stop being
#: addressed; ``clear()`` reclaims the space).
CACHE_SALT = f"cost-v{COST_MODEL_VERSION}/entry-v{ENTRY_FORMAT}"

DEFAULT_ROOT = ".repro_cache"


def _canonical(config: dict) -> str:
    """Stable, process-independent encoding of a cell config."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"),
                      default=str)


def cache_key(config: dict, salt: str = CACHE_SALT) -> str:
    """Content address of one cell config (stable across processes)."""
    payload = salt + "\n" + _canonical(config)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _payload_checksum(summary_dict: dict) -> str:
    """SHA-256 of the canonical summary encoding (entry integrity)."""
    return hashlib.sha256(
        _canonical(summary_dict).encode("utf-8")
    ).hexdigest()


class ResultCache:
    """Persistent result store; safe for concurrent reader/writers.

    Parameters
    ----------
    root:
        Directory to store entries in.  Defaults to
        ``$REPRO_CACHE_DIR`` or ``.repro_cache/``.
    enabled:
        Force-enable/disable; defaults to the inverse of
        ``$REPRO_NO_CACHE``.
    salt:
        Code fingerprint mixed into keys (tests override this to model
        cost-semantics changes).
    """

    def __init__(self, root: Optional[str] = None,
                 enabled: Optional[bool] = None,
                 salt: str = CACHE_SALT):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_ROOT
        if enabled is None:
            enabled = os.environ.get("REPRO_NO_CACHE", "") not in (
                "1", "true", "yes", "on",
            )
        self.root = os.path.abspath(root)
        self.enabled = bool(enabled)
        self.salt = salt
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: Entries moved to ``<root>/corrupt/`` by reads that found
        #: them undecodable or checksum-failing (surfaced in the bench
        #: summary line).
        self.quarantined = 0

    # ------------------------------------------------------------------
    def key(self, config: dict) -> str:
        return cache_key(config, self.salt)

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def quarantine_dir(self) -> str:
        return os.path.join(self.root, "corrupt")

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside (best-effort, never raises)."""
        try:
            qdir = self.quarantine_dir()
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(qdir, os.path.basename(path)))
            self.quarantined += 1
        except OSError:
            # Fall back to plain removal; if even that fails the entry
            # just stays and will be re-quarantined next read.
            try:
                os.unlink(path)
                self.quarantined += 1
            except OSError:
                pass

    # ------------------------------------------------------------------
    def get(self, config: dict) -> Optional[RunResultSummary]:
        """Cached summary for ``config``, or ``None`` on a miss.

        Corrupted entries (truncated writes, bad JSON, wrong schema,
        checksum mismatch) are treated as misses and quarantined to
        ``<root>/corrupt/`` — a broken cache must never break an
        experiment, and the evidence is kept for post-mortem.
        """
        if not self.enabled:
            return None
        key = self.key(config)
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
            entry = json.loads(text)
            # Every byte is checked: the text must be exactly what
            # ``put`` writes for the parsed entry, and every field of
            # that entry must match the key it is stored under.
            if json.dumps(entry) != text:
                raise ValueError("entry is not in canonical form")
            if entry.get("format") != ENTRY_FORMAT:
                raise ValueError(f"entry format {entry.get('format')!r}")
            if (entry.get("key") != key or entry.get("salt") != self.salt
                    or cache_key(entry["config"], self.salt) != key):
                raise ValueError("entry does not match its key")
            payload = entry["summary"]
            if entry.get("checksum") != _payload_checksum(payload):
                raise ValueError("payload checksum mismatch")
            summary = RunResultSummary.from_dict(payload)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Corrupted entry: quarantine it and report a miss.
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def put(self, config: dict, summary: RunResultSummary) -> None:
        """Store a summary atomically (last concurrent writer wins)."""
        if not self.enabled:
            return
        key = self.key(config)
        path = self.path_for(key)
        payload = summary.to_dict()
        entry = {
            "format": ENTRY_FORMAT,
            "key": key,
            "salt": self.salt,
            "config": config,
            "checksum": _payload_checksum(payload),
            "summary": payload,
        }
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(json.dumps(entry))
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
    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        if not os.path.isdir(self.root):
            return removed
        for sub in os.listdir(self.root):
            subdir = os.path.join(self.root, sub)
            if not os.path.isdir(subdir) or len(sub) != 2:
                continue
            for name in os.listdir(subdir):
                if name.endswith(".json"):
                    try:
                        os.unlink(os.path.join(subdir, name))
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
        return (f"ResultCache({self.root!r}, {state}, "
                f"hits={self.hits}, misses={self.misses})")


_DEFAULT: Optional[ResultCache] = None


def default_cache() -> ResultCache:
    """Process-wide cache honouring the environment at first use."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ResultCache()
    return _DEFAULT
