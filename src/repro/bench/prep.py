"""Content-addressed store for compiled per-cell prep artifacts.

The result cache (:mod:`repro.bench.cache`) memoizes *finished
summaries*; this store memoizes the expensive *inputs* of a simulation
cell — the built matrix census, the task DAG with its frozen
structure-of-arrays view (:meth:`repro.graph.dag.TaskDAG.freeze`),
interned handle tables, compiled access plans
(:meth:`repro.sim.cost.CostModel.prepare`) and scheduler domain tables
— so a cold sweep builds each distinct prep exactly once per machine
and every later cell (or worker process, or future sweep) loads it.

It is the same :class:`~repro.bench.store.ContentStore` as the result
cache (which documents the layout, the file framing and the
fail-closed read): one file per artifact under
``<root>/<key[:2]>/<key>.prep``, ``key`` the SHA-256 of the canonical
JSON config plus :data:`PREP_SALT`.  The salt embeds
:data:`repro.sim.cost.COST_MODEL_VERSION` *and* :data:`PREP_FORMAT`,
so cost-semantics changes and artifact-layout changes each orphan old
entries (never mis-serve them).

File format (:data:`PREP_FORMAT` 9): the store's JSON header line —
``{"format", "salt", "key", "checksum", "nbytes", "config"}`` — then
``nbytes`` of pickled payload ``{"config", "census", "dag"}``.  The
DAG is pickled without its ``Task`` list and without the successor
CSR its analyses derive on demand: it carries its frozen arrays
(integer columns narrowed to int32 where their values fit), interned
tables, compiled plans, domain tables and BSP phases, ``succ`` and
``pred`` as int32 CSR pairs, plus its rebuild recipe as plain data
(matrix, block size, solver, width and build-option fields;
:meth:`repro.graph.dag.TaskDAG.__getstate__`).  A run reads only the
former.  From format 9 the two largest run memos travel as arrays:
the plans as a :class:`~repro.sim.cost.PlanTable`'s columns (one
table of the DAG's distinct ints, one of its distinct floats keyed by
bit pattern, the distinct touches and gather bundles as indices into
them, and per-task indices into those), and each core count's BSP
phases as a :class:`~repro.sim.engine.PhaseTable`'s columns (tids and
cores in phase order, and each task's intra-phase predecessors as a
CSR).  Index columns take the narrowest integer type that holds them.
Loading decodes the plans, and a table's first BSP run its phases,
into one object per distinct value: one ``int`` and one ``float`` per
value, one tuple per distinct touch and gather bundle, and every tid
the process-wide :func:`~repro.graph.dag.tid_ints` object that
``succ`` holds too.  A decoded table keeps only what it decoded.
``pred`` stays a CSR pair until it is read; no run reads it.  The domain tables share one tuple
per distinct domain set (made so at compile time; pickle memoizes
tuples).  A consumer outside the simulation run path (trace export,
Gantt, the threaded runtime, analysis) rebuilds the list through the
DAG builder at its first ``dag.tasks``, which
fails closed if the rebuilt graph differs from the loaded arrays in
any field.  A DAG built in process holds no list either until asked:
the cold path (build, plan compile, ``put``) never makes one.
The checksum is the SHA-256 of the whole payload bytes, recipe
included, so damage anywhere is caught at ``get``, never at a later
rebuild.  A bad pickle fails closed like any other damage.  The
human-readable header makes ``repro prep list`` a one-line read per
artifact.

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

import os
import pickle

from repro.bench.store import (
    DEFAULT_ROOT,
    ContentStore,
    default_store,
    env_flag,
)
from repro.sim.cost import COST_MODEL_VERSION

__all__ = [
    "PREP_FORMAT",
    "PREP_SALT",
    "PrepStore",
    "default_prep_store",
]

#: Storage-schema version of one prep artifact.  Bump on any change to
#: the payload layout *or* to the pickled structures it carries (plan
#: or phase table columns, GraphArrays fields, …) *or* to what a DAG's
#: recipe rebuilds: old artifacts are orphaned by the salt, not
#: migrated.
PREP_FORMAT = 9

#: Code fingerprint mixed into every key.
PREP_SALT = f"cost-v{COST_MODEL_VERSION}/prep-v{PREP_FORMAT}"


class PrepStore(ContentStore):
    """Persistent prep-artifact store, keyed by prep config."""

    format = PREP_FORMAT
    salt = PREP_SALT
    suffix = ".prep"

    # Own bindings, so a wrapper set on this class (the layer spans of
    # benchmarks/e2e) times prep reads and writes and no other store's.
    get = ContentStore.get
    put = ContentStore.put

    @staticmethod
    def env_defaults():
        root = os.environ.get("REPRO_PREP_DIR") or os.path.join(
            os.environ.get("REPRO_CACHE_DIR") or DEFAULT_ROOT, "prep")
        return root, not env_flag("REPRO_NO_PREP")

    def encode(self, artifact) -> bytes:
        return pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)

    def decode(self, payload: bytes):
        return pickle.loads(payload)


def default_prep_store() -> PrepStore:
    """Process-wide store tracking the environment
    (:func:`repro.bench.store.default_store`)."""
    return default_store(PrepStore)
