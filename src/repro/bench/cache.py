"""Content-addressed on-disk store for simulated run summaries.

A :class:`~repro.bench.store.ContentStore` (which documents the
layout, the file framing and the fail-closed read) whose values are
:class:`~repro.sim.engine.RunResultSummary` objects: one file per cell
under ``<root>/<key[:2]>/<key>.json``, where ``key`` is the SHA-256 of
the canonical JSON encoding of the cell config plus a code fingerprint
(:data:`CACHE_SALT`).  The salt embeds
:data:`repro.sim.cost.COST_MODEL_VERSION`, so any change to cost-model
*semantics* invalidates every cached number; bit-identical
performance refactors keep the cache warm.

The payload after the header line is the JSON of
:meth:`RunResultSummary.to_dict`.  Floats survive via ``repr`` in
JSON, so a warm-cache re-run returns byte-identical summaries.

Environment:

* ``REPRO_CACHE_DIR`` — overrides the default ``.repro_cache/`` root.
* ``REPRO_NO_CACHE=1`` — disables the store (all gets miss, puts drop).
"""

from __future__ import annotations

import json
import os

from repro.bench.store import (
    DEFAULT_ROOT,
    ContentStore,
    content_key,
    default_store,
    env_flag,
)
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
#: v2 added the payload checksum; v3 moved entries from one JSON
#: document to the shared header line + payload framing.  Older
#: entries are orphaned by the salt (never addressed again), not
#: quarantined — they are not corrupt; ``repro prep gc`` removes them.
ENTRY_FORMAT = 3

#: Code fingerprint mixed into every key: cost-model semantics + entry
#: schema.
CACHE_SALT = f"cost-v{COST_MODEL_VERSION}/entry-v{ENTRY_FORMAT}"


def cache_key(config: dict, salt: str = CACHE_SALT) -> str:
    """Content address of one cell config (stable across processes)."""
    return content_key(config, salt)


class ResultCache(ContentStore):
    """Persistent store of run summaries, keyed by cell config."""

    format = ENTRY_FORMAT
    salt = CACHE_SALT
    suffix = ".json"

    @staticmethod
    def env_defaults():
        return (os.environ.get("REPRO_CACHE_DIR") or DEFAULT_ROOT,
                not env_flag("REPRO_NO_CACHE"))

    def encode(self, summary: RunResultSummary) -> bytes:
        return json.dumps(summary.to_dict(),
                          separators=(",", ":")).encode("utf-8")

    def decode(self, payload: bytes) -> RunResultSummary:
        return RunResultSummary.from_dict(json.loads(payload))


def default_cache() -> ResultCache:
    """Process-wide cache tracking the environment
    (:func:`repro.bench.store.default_store`)."""
    return default_store(ResultCache)
