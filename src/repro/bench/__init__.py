"""Experiment orchestration: grid expansion, on-disk caching, parallel runs.

Every figure of the paper is a grid of simulated cells
(machine × matrix × solver × version × block count).  This package is
the substrate all of them run through:

* :mod:`repro.bench.store` — :class:`~repro.bench.store.ContentStore`,
  the one content-addressed, process-safe, fail-closed on-disk store:
  a canonical JSON header line (format, salt, key, payload checksum,
  length, config) then the payload; atomic writes; damaged files
  quarantined to ``<root>/corrupt/`` and read as misses.  Both stores
  below are this class with their own salt, suffix and codec.
* :mod:`repro.bench.cache` — the result cache: run summaries (JSON)
  keyed by the full cell config plus a cost-model version salt.
* :mod:`repro.bench.prep` — the compiled-prep store: persisted census
  + DAG + access-plan artifacts (pickle), so cold sweeps build each
  distinct prep once and everything else (workers, later processes)
  loads it.
* :mod:`repro.bench.runner` — :class:`ExperimentRunner`: expands grid
  specs, dedupes cells, serves hits from the cache, prebuilds prep
  artifacts, and fans misses out over a process pool with
  deterministic result ordering.
* :mod:`repro.bench.pool` — :class:`~repro.bench.pool.WarmPool`, the one
  failure policy (charged retries, per-cell timeouts, uncharged pool
  rebuilds, inline degradation) shared by the runner, ``repro bench
  --trace`` and ``repro serve``.  ``repro.bench`` never imports
  ``repro.serve``: it is the lower layer.

Environment knobs (``default_cache()`` and ``default_prep_store()``
re-read the store knobs on every call):

* ``REPRO_CACHE_DIR`` — cache root (default ``.repro_cache/``).
* ``REPRO_NO_CACHE=1`` — disable the on-disk result cache entirely.
* ``REPRO_PREP_DIR`` — prep-store root (default ``<cache root>/prep``).
* ``REPRO_NO_PREP=1`` — disable the prep store.
* ``REPRO_BENCH_JOBS`` — default worker-process count.
"""

from repro.bench.cache import ResultCache, cache_key, default_cache
from repro.bench.prep import PrepStore, default_prep_store
from repro.bench.runner import (
    Cell,
    DEFAULT_BLOCK_COUNT,
    DEFAULT_MATRICES,
    ExperimentRunner,
    REGENT_BLOCK_COUNT,
    SweepError,
    WorkerFailure,
    expand_grid,
    run_cell_config,
)

__all__ = [
    "Cell",
    "DEFAULT_BLOCK_COUNT",
    "DEFAULT_MATRICES",
    "ExperimentRunner",
    "PrepStore",
    "REGENT_BLOCK_COUNT",
    "ResultCache",
    "SweepError",
    "WorkerFailure",
    "cache_key",
    "default_cache",
    "default_prep_store",
    "expand_grid",
    "run_cell_config",
]
