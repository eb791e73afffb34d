"""NUMA memory model with first-touch page placement.

§5.1: "first-touch placement … refers to allocation of a data page in
the memory closest to the thread accessing it first.  When a single
thread initializes all data structures, the data ends up residing in
the memory of a single NUMA node" — up to 2.5× slowdown on EPYC.

With ``first_touch=True`` the solvers' parallel initialization is
modelled by striping partitioned handles round-robin across domains
(chunk *i* is initialized by a thread of domain ``i mod D``); with
``first_touch=False`` everything lands on domain 0.  Unpartitioned
(small) handles always live on domain 0 — they are tiny and
cache-resident anyway.

``dram_line_cost`` is on the simulator's innermost loop (once per
operand touch that misses L3, and once per gather bundle), so the two
possible outcomes — local vs remote line cost — and the per-core /
per-key domain lookups are all precomputed; the placement rule itself
is unchanged and pinned by ``tests/test_engine_equivalence.py``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.machine.topology import MachineSpec

__all__ = ["MemoryModel"]


class MemoryModel:
    """Maps handle keys to NUMA domains and prices DRAM line transfers.

    A handle's home follows the placement rule alone: it is a pure
    function of its key and of ``(machine, first_touch, n_parts,
    matrix_geometry)``.  Homes are therefore fixed once a run is
    prepared, and the cost model and schedulers resolve them into
    per-DAG tables there (:meth:`home_arrays`).
    """

    __slots__ = (
        "machine", "_machine_key", "first_touch", "scattered", "_n_parts",
        "matrix_geometry", "_core_domain", "_domain_memo",
        "_local_cost", "_remote_cost", "_scattered_cost",
        "_intern_keys", "_intern_parts",
    )

    def __init__(self, machine: MachineSpec, first_touch: bool = True,
                 n_parts: int = None, scattered: bool = False):
        self.machine = machine
        #: The machine's field values, for :meth:`placement_key`.
        self._machine_key = dataclasses.astuple(machine)
        self.first_touch = bool(first_touch)
        #: Library (BSP) mode: MKL kernels partition work internally per
        #: call (nnz-balanced SpMV, tiled dgemm) with no regard to page
        #: homes, so chunk accesses are distribution-averaged across
        #: domains instead of aligned — the NUMA sensitivity the paper
        #: observes for the BSP versions on EPYC.
        self.scattered = bool(scattered)
        self._n_parts = n_parts
        #: (name, block columns) of the sparse matrix, whose handles are
        #: row-major block ids homed with their block row.
        self.matrix_geometry = None
        # -- hot-path precomputation (pure caching, no semantics) ------
        self._domain_memo = {}
        # Interned handle keys (see TaskDAG.handle_interning): parallel
        # lists resolving a small int key back to its (name, part)
        # tuple and to its ``part`` alone (the scattered-cost test).
        self._intern_keys = None
        self._intern_parts = None
        self._core_domain = tuple(
            machine.domain_of_core(c) for c in range(machine.n_cores)
        )
        base = machine.dram_line_cost
        d = machine.n_numa_domains
        if not self.first_touch:
            base = base * d ** 0.5
        self._local_cost = base
        self._remote_cost = base * machine.numa_penalty
        if not self.first_touch:
            self._scattered_cost = (
                machine.dram_line_cost * (d ** 0.5) * machine.numa_penalty
            )
        else:
            self._scattered_cost = (
                machine.dram_line_cost
                * (1 + (d - 1) * machine.numa_penalty) / d
            )

    @property
    def n_parts(self):
        return self._n_parts

    @n_parts.setter
    def n_parts(self, value) -> None:
        # The placement rule depends on the partition count, so mutating
        # it invalidates every memoized home domain.
        self._n_parts = value
        self._domain_memo.clear()

    def configure_from_dag(self, dag) -> None:
        """Adopt a DAG's partition geometry (set by the TDGG)."""
        if dag.n_partitions:
            self.n_parts = dag.n_partitions
        if dag.matrix_name and dag.matrix_nbc:
            self.matrix_geometry = (dag.matrix_name, dag.matrix_nbc)
        self.adopt_interning(dag.freeze().id_to_key)
        self._domain_memo.clear()

    def adopt_interning(self, id_to_key) -> None:
        """Adopt a DAG's handle interning so int keys resolve here.

        Placement semantics are unchanged: an int key prices exactly
        as the ``(name, part)`` tuple it interns would.  Switching to
        a different table invalidates the memo (old int keys would
        otherwise alias new handles).
        """
        if self._intern_keys is id_to_key:
            return
        self._intern_keys = id_to_key
        self._intern_parts = [k[1] for k in id_to_key]
        self._domain_memo.clear()

    # ------------------------------------------------------------------
    def domain_of(self, key: tuple) -> int:
        """Home domain of a handle ``(name, part)``.

        Parallel initialization is a static OpenMP loop over chunks, so
        chunk *i* of ``n_parts`` is first touched by a thread of domain
        ``i·D // n_parts`` (contiguous blocks of chunks per domain).
        Without ``n_parts`` known, falls back to round-robin striping.
        """
        memo = self._domain_memo
        dom = memo.get(key)
        if dom is not None:
            return dom
        name, part = self._intern_keys[key] if type(key) is int else key
        if not self.first_touch or part is None:
            memo[key] = 0
            return 0
        if self.matrix_geometry and name == self.matrix_geometry[0]:
            part = part // self.matrix_geometry[1]  # block row of (i, j)
        d = self.machine.n_numa_domains
        if self.n_parts:
            dom = min(d - 1, int(part) * d // self.n_parts)
        else:
            dom = int(part) % d
        memo[key] = dom
        return dom

    def is_remote(self, core: int, key: tuple) -> bool:
        return self._core_domain[core] != self.domain_of(key)

    def domain_histogram(self):
        """Handles homed per NUMA domain, or ``None`` if unknowable.

        The observability layer samples this at iteration barriers to
        show page-home skew (the §5.1 first-touch story).  With handle
        interning adopted the histogram covers every handle the DAG
        touches; without it there is nothing to count.  Read-mostly:
        it resolves homes through :meth:`domain_of`, which only
        populates the pure ``_domain_memo`` cache — simulated pricing
        is unaffected (the memo is deliberately outside the
        steady-state fingerprint for exactly this reason).
        """
        if self._intern_keys is None:
            return None
        hist = [0] * self.machine.n_numa_domains
        domain_of = self.domain_of
        for k in range(len(self._intern_keys)):
            hist[domain_of(k)] += 1
        return tuple(hist)

    def home_arrays(self):
        """Per-interned-key ``(home_domain, is_partitioned)`` arrays.

        Used by the access-plan compiler: with interning adopted, it
        resolves every key's home once so the charge fast path indexes
        a list instead of calling :meth:`dram_line_cost` per touch.
        Returns ``(homes, has_part)`` over the adopted interning
        (:meth:`adopt_interning` first).  Homes are a pure function of
        the interning and the striping inputs (``machine``,
        ``first_touch``, ``n_parts``, ``matrix_geometry``), so callers
        cache them under those.
        """
        keys = self._intern_keys
        parts = self._intern_parts
        has_part = [p is not None for p in parts]
        if not self.first_touch:
            homes = [0] * len(keys)
        else:
            homes = self._striped_homes(keys, parts, has_part)
        return homes, has_part

    def placement_key(self) -> tuple:
        """The inputs homes are a function of, besides the interning:
        the key the per-DAG home and domain tables are memoized under.
        The machine enters as its field values, so a prep artifact
        holds plain values, not a ``MachineSpec``."""
        return (self._machine_key, self.first_touch, self._n_parts,
                self.matrix_geometry)

    def dag_home_arrays(self, dag):
        """:meth:`home_arrays` over ``dag``'s interning (adopted first by
        the caller), memoized on the DAG under :meth:`placement_key`.

        The cost model and the schedulers both read homes through
        here, so a run prepared on a DAG resolves every home once.
        """
        store = dag._home_arrays
        key = self.placement_key()
        arrays = store.get(key)
        if arrays is None:
            arrays = store[key] = self.home_arrays()
        return arrays

    def _striped_homes(self, keys, parts, has_part) -> list:
        """:meth:`domain_of` of every interned key, in bulk: the same
        integer block-row and striping arithmetic, over one array of
        parts."""
        part = np.array([0 if p is None else p for p in parts],
                        dtype=np.int64)
        if self.matrix_geometry:
            name, nbc = self.matrix_geometry
            matrix = np.array([k[0] == name for k in keys], dtype=bool)
            part = np.where(matrix, part // nbc, part)
        d = self.machine.n_numa_domains
        if self.n_parts:
            dom = np.minimum(d - 1, part * d // self.n_parts)
        else:
            dom = part % d
        return np.where(has_part, dom, 0).tolist()

    # ------------------------------------------------------------------
    def dram_line_cost(self, core: int, key: Optional[tuple]) -> float:
        """Seconds per line fetched from DRAM by ``core`` for ``key``.

        Without first-touch, every page homes on domain 0 and one
        memory controller serves the whole node: beyond the remote-hop
        penalty most cores pay, the controller saturates.  The √D
        factor models that partial serialization (D = NUMA domains) —
        it reproduces Fig. 5's "up to 2.5×" on EPYC (D=8) while staying
        mild on Broadwell (D=2).
        """
        if key is not None:
            if self.scattered:
                part = (self._intern_parts[key] if type(key) is int
                        else key[1])
                if part is not None:
                    return self._scattered_cost
            dom = self._domain_memo.get(key)
            if dom is None:
                dom = self.domain_of(key)
            if self._core_domain[core] != dom:
                return self._remote_cost
        return self._local_cost

    def dram_line_cost_scattered(self, core: int) -> float:
        """Expected line cost for accesses spread over all domains.

        CSR gathers range over the whole input vector, whose pages are
        striped across every domain: 1/D of the lines are local, the
        rest pay the remote hop.
        """
        return self._scattered_cost
