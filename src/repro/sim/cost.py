"""Task cost model: flops → compute seconds, operand touches → memory seconds.

Compute time prices the task's registered flop count at the core's peak
scaled by a kernel-class efficiency (sparse kernels are irregular and
gather-bound; small BLAS-3 on chunks vectorizes well).  Memory time
runs every operand through the cache hierarchy and prices the missed
lines per level they were served from, with the DRAM leg NUMA-aware.

This is the contract that makes the reproduction honest: *every*
runtime's tasks are priced by this one model; only scheduling order,
placement, and per-task overheads differ between the frameworks.
"""

from __future__ import annotations

import dataclasses
from itertools import chain

import numpy as np

from repro.graph.dag import SPARSE_KERNELS, _smallest, _tuples
from repro.graph.task import Task
from repro.kernels.registry import kernel_spec
from repro.machine.cache import CacheHierarchy
from repro.machine.memory import MemoryModel
from repro.machine.topology import MachineSpec

__all__ = [
    "CostModel", "COST_MODEL_VERSION", "KIND_EFFICIENCY", "PlanTable",
    "TaskCharge",
]

#: Semantic fingerprint of the pricing model.  Bump whenever a change
#: alters *simulated numbers* (efficiencies, cache pricing, gather
#: model, NUMA costs…) so the on-disk result cache
#: (:mod:`repro.bench.cache`) invalidates stale entries.  Pure
#: performance refactors that keep results bit-identical — proven by
#: ``tests/test_engine_equivalence.py`` — must NOT bump it.
COST_MODEL_VERSION = 1

#: Fraction of peak flops each kernel class sustains when data is in L1.
KIND_EFFICIENCY = {
    "sparse": 0.12,      # irregular gather/scatter
    "blas1": 0.40,       # streaming, 1 flop per element pair
    "blas3": 0.80,       # small dgemm on chunks
    "dense-small": 0.30, # tiny LAPACK, latency bound
}


def _effective_touch_bytes(soa) -> np.ndarray:
    """Every touch's bytes with the SpMV/SpMM overrides applied.

    :meth:`CostModel._effective_bytes` over the frozen columns: a
    touch whose ``touch_role`` names the task's input vector (1) or
    output vector (2) is charged the lines the task's nonzeros reach,
    by the same integer products and minimums, in int64 whatever the
    width of the frozen columns.
    """
    i64 = np.int64
    nbytes = soa.touch_nbytes.astype(i64)
    sel = np.flatnonzero(soa.touch_role)
    if not sel.size:
        return nbytes
    tid = np.searchsorted(soa.touch_indptr, sel, side="right") - 1
    k = np.searchsorted(soa.sparse_tids, tid)
    nnz = soa.sparse_nnz[k].astype(i64)
    w = soa.sparse_width[k].astype(i64)
    chunk = soa.sparse_cols[k] * w * 8
    x_bytes = np.minimum(chunk, np.minimum(-(-chunk // 64), nnz) * 64)
    chunk = soa.sparse_rows[k] * w * 8
    y_bytes = np.where(soa.sparse_buffer[k], chunk,
                       np.minimum(chunk, nnz * np.maximum(w * 8, 64)))
    nbytes[sel] = np.where(soa.touch_role[sel] == 1, x_bytes, y_bytes)
    return nbytes


class TaskCharge(tuple):
    """(duration, compute, memory, (l1, l2, l3) missed lines)."""

    __slots__ = ()

    def __new__(cls, duration, compute, memory, misses):
        return super().__new__(cls, (duration, compute, memory, misses))

    @property
    def duration(self):
        return self[0]

    @property
    def compute(self):
        return self[1]

    @property
    def memory(self):
        return self[2]

    @property
    def misses(self):
        return self[3]


def _distinct(a: np.ndarray) -> tuple:
    """``(values, index)``: the sorted distinct values of ``a`` and each
    entry's position among them, as ``np.unique(a,
    return_inverse=True)`` gives them without the hash pass that makes
    it several times slower at these sizes."""
    order = a.argsort()
    a = a[order]
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    index = np.empty(a.size, dtype=np.int64)
    index[order] = np.cumsum(keep) - 1
    return a[keep], index


def _plan_columns(touch, touch_indptr, compute, gather_tids, gather):
    """The :class:`PlanTable` columns of a DAG's plans, given as arrays.

    ``touch`` is ``(key, nbytes, write, l1_insert, full_lines)``, one
    entry per touch in plan order, ``touch_indptr`` each task's span
    of them and ``compute`` each task's compute seconds;
    ``gather_tids`` are the tasks with a gather bundle and ``gather``
    is ``(g1, g2, g3, fixed, scattered, xkey)`` for each (xkey -1 for
    None).  Equal touches and equal bundles become one row each, in
    sorted order, so equal plans make equal columns.
    """
    i64 = np.int64
    key, nbytes, write, n1, lmf = touch
    # Each touch as one int64 code of (key, size, write), equal codes
    # for equal touches only (``l1_insert`` and ``full_lines`` follow
    # from nbytes): the size is nbytes itself while ``(max key + 1) *
    # span`` stays within 2**62, else its rank among the DAG's sizes
    # (keys and ranks are under 2**31).  One sort groups them: a
    # per-touch dict pass would double the plan compile.
    size = nbytes
    span = int(nbytes.max()) + 1 if nbytes.size else 1
    if nbytes.size and (int(key.max()) + 1) * span > 2**62:
        sizes, size = np.unique(nbytes, return_inverse=True)
        span = sizes.size
    code = (key.astype(i64) * span + size) * 2 + write
    order = code.argsort()
    code = code[order]
    new = np.empty(code.size, dtype=bool)
    new[:1] = True
    np.not_equal(code[1:], code[:-1], out=new[1:])
    first = order[new]
    which = np.empty(code.size, dtype=i64)
    which[order] = np.cumsum(new) - 1
    touch_ints = (key[first], nbytes[first], n1[first], lmf[first])
    # Equal bundles once: one lexicographic sort of their six fields.
    gather = [c.astype(i64) for c in gather[:3]] + [
        gather[3].view(i64), gather[4].astype(i64), gather[5]]
    order = np.lexsort(gather[::-1])
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for c in gather:
        c = c[order]
        new[1:] |= c[1:] != c[:-1]
    gather_which = np.full(compute.size, -1, dtype=np.int32)
    gather_which[gather_tids[order]] = np.cumsum(new) - 1
    g1, g2, g3, fixed, scattered, xkey = (c[order[new]] for c in gather)
    # One table of the distinct ints and one of the distinct floats,
    # each keyed exactly: floats by their bit pattern, so -0.0 and 0.0
    # (or two NaNs) never merge.  Every field becomes its value's
    # index in its table.
    has_x = xkey >= 0
    ints, at = _distinct(np.concatenate(touch_ints + (g1, g2, g3,
                                                      xkey[has_x])))
    *touch_at, g1, g2, g3, x = np.split(
        at, np.cumsum([first.size] * 4 + [g1.size] * 3))
    xkey = np.full(xkey.size, -1)
    xkey[has_x] = x
    bits, at = _distinct(np.concatenate((compute.view(i64), fixed)))
    compute, fixed = np.split(at, [compute.size])
    return (
        ints, bits.view(np.float64),
        _smallest(np.stack(touch_at, axis=1)),
        write[first].astype(bool), _smallest(touch_indptr),
        _smallest(which), _smallest(compute),
        _smallest(np.stack((g1, g2, g3, fixed, xkey), axis=1)),
        scattered.astype(bool), _smallest(gather_which),
    )


class PlanTable:
    """The compiled access plans of one DAG, memoized on the DAG.

    ``plans`` is the tid-indexed list of ``(compute, touches, gather)``
    the charge walk reads.  It is built from, and pickled as, compact
    columns (:func:`_plan_columns`): ``ints`` and ``floats``, the
    DAG's distinct int and float values; ``touch_vals`` (the ``ints``
    indices of key, nbytes, ``l1_insert`` and ``full_lines``) and
    ``touch_write``, one row per distinct touch; ``touch_indptr`` and
    ``touch_which``, each task's touches as indices into those rows;
    ``compute``, an index into ``floats``; ``gather_vals`` (g1, g2, g3
    and xkey into ``ints``, -1 for no key; fixed into ``floats``) and
    ``gather_scattered``, one row per distinct gather bundle, and
    ``gather_which``, each task's row (-1: none).

    The cold compile and a prep artifact's load both decode columns
    here, into one object per distinct value: every int and float of
    the plans is its table's object, every equal touch and gather one
    tuple.  Pickle memoizes neither ints nor floats, which is why the
    plans travel as columns.  A compiled table keeps its columns for
    the prep store's ``put``; a loaded one keeps the plans alone (no
    second copy) and re-encodes them if it is pickled again.
    """

    __slots__ = ("plans", "_columns")

    def __init__(self, columns):
        self._columns = columns
        (ints, floats, touch_vals, touch_write, touch_indptr, touch_which,
         compute, gather_vals, gather_scattered, gather_which) = columns
        # Fancy indexing an object array copies references, so each
        # table's objects are shared by every plan that indexes them.
        # The None after the ints is what xkey -1 reads, the one after
        # the gathers what gather -1 reads.
        ints, values = np.empty(ints.size + 1, dtype=object), ints
        ints[:-1] = values
        floats = floats.astype(object)
        key, nbytes, n1, lmf = ints[touch_vals].T.tolist()
        distinct = np.fromiter(
            zip(key, nbytes, touch_write.tolist(), n1, lmf), dtype=object,
            count=touch_write.size)
        touches = _tuples(distinct, touch_which, touch_indptr)
        g1, g2, g3, xkey = ints[gather_vals[:, [0, 1, 2, 4]]].T.tolist()
        gathers = np.empty(gather_scattered.size + 1, dtype=object)
        gathers[:-1] = np.fromiter(
            zip(g1, g2, g3, floats[gather_vals[:, 3]].tolist(),
                gather_scattered.tolist(), xkey), dtype=object,
            count=gather_scattered.size)
        self.plans = list(zip(floats[compute].tolist(), touches,
                              gathers[gather_which].tolist()))

    def __getstate__(self):
        if self._columns is not None:
            return self._columns
        plans = self.plans
        n = len(plans)
        compute, touches, gathers = zip(*plans) if plans else ((),) * 3
        touch_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, touches), np.int64, n),
                  out=touch_indptr[1:])
        flat = list(chain.from_iterable(touches))
        touch = np.fromiter(chain.from_iterable(flat), np.int64,
                            5 * len(flat)).reshape(-1, 5).T
        tids = np.array([t for t, g in enumerate(gathers) if g is not None],
                        dtype=np.int64)
        g1, g2, g3, fixed, scattered, xkey = (
            zip(*map(gathers.__getitem__, tids.tolist())) if tids.size
            else ((),) * 6)
        return _plan_columns(
            tuple(touch), touch_indptr, np.array(compute, dtype=np.float64),
            tids, (np.array(g1, dtype=np.int64),
                   np.array(g2, dtype=np.int64),
                   np.array(g3, dtype=np.int64),
                   np.array(fixed, dtype=np.float64),
                   np.array(scattered, dtype=bool),
                   np.array([-1 if x is None else x for x in xkey],
                            dtype=np.int64)))

    def __setstate__(self, columns):
        self.__init__(columns)
        self._columns = None

    def __eq__(self, other):
        return isinstance(other, PlanTable) and self.plans == other.plans

    __hash__ = None


class CostModel:
    """Prices task executions; owns nothing, mutates the cache state.

    Parameters
    ----------
    gather_intensity:
        Fraction of a SpMV/SpMM task's per-nonzero input-vector
        accesses that behave as irregular re-touches (the remainder
        coalesce with neighbouring nonzeros — banded structure, sorted
        block entries).  Calibrates the CSR-vs-CSB gap; see
        :meth:`_gather_bundle`.
    """

    __slots__ = (
        "machine", "cache", "memory", "gather_intensity", "_machine_key",
        "_peak_core", "_l2c", "_l3c", "_prep",
        # -- compiled access plans (see prepare) -----------------------
        "_bare_ctx", "_bare_common",
    )

    def __init__(
        self,
        machine: MachineSpec,
        cache: CacheHierarchy,
        memory: MemoryModel,
        gather_intensity: float = 0.45,
    ):
        self.machine = machine
        self.cache = cache
        self.memory = memory
        self.gather_intensity = gather_intensity
        #: The machine's field values: the plan memo's machine key, so a
        #: prep artifact holds plain values, not a ``MachineSpec``.
        self._machine_key = dataclasses.astuple(machine)
        self._peak_core = machine.ghz * 1e9 * machine.flops_per_cycle
        self._l2c = machine.l2_line_cost
        self._l3c = machine.l3_line_cost
        # Per-task pricing invariants (everything in charge() that does
        # not depend on core or on mutable cache state): ``prepare``
        # fills a tid-indexed list for a whole DAG.
        self._prep = None
        # Fast-path state: armed by ``prepare`` (the DAG's interned
        # handle ids index the home-domain arrays).
        self._bare_ctx = None
        self._bare_common = None

    # ------------------------------------------------------------------
    def compute_seconds(self, task: Task) -> float:
        """Pure arithmetic time of one task on one core."""
        eff = KIND_EFFICIENCY.get(task.kind, 0.3)
        return task.flops / (self._peak_core * eff)

    def _effective_bytes(self, task: Task) -> dict:
        """Bytes actually touched per operand name.

        A sparse block task addresses only the input/output vector
        lines its nonzeros hit: a block with few entries over a huge
        chunk must not be charged the whole chunk (decisive for
        power-law matrices, where at useful block sizes most blocks are
        non-empty but nearly empty).  Dense kernels touch operands
        fully — the handle size stands.
        """
        if task.kernel not in SPARSE_KERNELS:
            return {}
        s = task.shape
        nnz = s.get("nnz", 0)
        w = s.get("width", 1)
        out = {}
        xname = task.params.get("X")
        yname = task.params.get("Y")
        if xname is not None:
            chunk = s["cols"] * w * 8
            unique_lines = min(-(-chunk // 64), nnz)
            out[xname] = min(chunk, unique_lines * 64)
        if yname is not None:
            chunk = s["rows"] * w * 8
            if task.params.get("buffer"):
                # Reduction mode: the private partial buffer must be
                # zeroed in full before the scatter — the "large
                # buffers allocated by each core" cost of Fig. 7.
                out[yname] = chunk
            else:
                out[yname] = min(chunk, nnz * max(w * 8, 64))
        return out

    # ------------------------------------------------------------------
    # Per-task invariants: everything below is iteration-invariant, so
    # it is computed once per task (per run) instead of once per
    # ``charge`` call.  The arithmetic is kept term-for-term identical
    # to the historical per-call formulation — the equivalence test
    # asserts bit-identical simulated numbers.
    def _task_info(self, task: Task, key_of=None) -> tuple:
        """(compute_seconds, operand touches, gather bundle) of a task.

        ``touches`` is a tuple of
        ``(key, nbytes, is_write, l1_insert, full_lines)`` in
        :meth:`Task.touched` order with effective-byte overrides
        applied — ``l1_insert`` is the machine-constant
        ``min(nbytes, l1_size)`` precomputed so the charge walk can
        branch on the dominant whole-L1 streaming case without any
        per-call arithmetic, and ``full_lines`` is
        ``ceil(nbytes / 64)``, the per-level miss-line count of a
        fully cold touch (every level misses in full, so one
        precomputed value prices all three legs); ``gather`` is
        ``None`` or
        ``(g1, g2, g3, fixed_time, scattered, xkey)`` where
        ``fixed_time`` is the L2/L3 leg of the gather cost and only the
        DRAM leg (NUMA-aware, core-dependent) is priced per call.

        ``key_of`` is the DAG's handle-interning map (see
        :meth:`repro.graph.dag.TaskDAG.handle_interning`): when given,
        handle keys are emitted as small ints instead of
        ``(name, part)`` tuples, which is what the LRU dicts, the
        coherence directory, and NUMA memos hash on in the innermost
        loop.  Interning is a pure key-space change — hit/miss amounts,
        eviction order, and NUMA domains are identical either way.
        """
        compute = self.compute_seconds(task)
        # Tasks write one or two handles, so a tuple membership scan
        # beats building a set per task.
        write_keys = tuple((h.name, h.part) for h in task.writes)
        touched_bytes = self._effective_bytes(task)
        tb_get = touched_bytes.get if touched_bytes else None
        l1cap = self.machine.l1_size
        out = []
        for h in task.touched():
            hkey = (h.name, h.part)
            nbytes = tb_get(h.name, h.nbytes) if tb_get is not None \
                else h.nbytes
            out.append((
                hkey if key_of is None else key_of[hkey],
                nbytes,
                hkey in write_keys,
                nbytes if nbytes < l1cap else l1cap,
                (nbytes + 63) // 64,
            ))
        touches = tuple(out)
        return (compute, touches, self._gather_bundle(task, key_of))

    def _gather_bundle(self, task: Task, key_of=None):
        """Irregular input-vector traffic of a SpMV/SpMM task: the
        precompiled gather tuple of :meth:`_task_info`, or None.

        Per nonzero, the kernel gathers one input-vector row.  The
        first touch of each line is part of the compulsory chunk stream
        (charged via the cache); *re-touches* hit or miss depending on
        whether the gather span fits each level: in row-major traversal
        a line is re-touched one sweep of the span later, so the miss
        probability at a level of capacity C is ``max(0, 1 − C/span)``
        (for L3, the core's share of its slice).  CSB spans one block
        column; CSR (``csr_storage``) spans the whole vector — this
        asymmetry is the measured cache advantage of CSB storage (Buluç
        et al. 2009) and what Fig. 8's L2 column attributes to
        ``libcsb``.

        ``(g1, g2, g3)`` are the extra missed lines per level and
        ``fixed`` the time of their L2/L3 legs.  The DRAM leg is priced
        per charge: gathers confined to one block column hit that
        chunk's home domain (``xkey``), CSR-style gathers span the
        whole domain-striped vector and pay the ``scattered`` rate.

        The per-task reference of :meth:`_gather_bundles`, which
        compiles the same tuples for a whole DAG."""
        span = task.shape.get("gather_span", 0)
        if span <= 0:
            return None
        nnz = task.shape.get("nnz", 0)
        retouches = nnz * self.gather_intensity
        if retouches <= 0:
            return None
        m = self.machine
        p1 = max(0.0, 1.0 - m.l1_size / span)
        p2 = max(0.0, 1.0 - m.l2_size / span)
        l3_share = m.l3_size / m.l3_group_cores
        p3 = max(0.0, 1.0 - l3_share / span)
        g1 = int(retouches * p1)
        g2 = int(retouches * p2)
        g3 = int(retouches * p3)
        chunk_bytes = (task.shape.get("cols", 0)
                       * task.shape.get("width", 1) * 8)
        scattered = span > 1.5 * max(1, chunk_bytes)
        xkey = None
        if not scattered:
            for h in task.reads:
                if h.part is not None and \
                        h.name != task.params.get("A"):
                    xkey = (h.name, h.part)
                    if key_of is not None:
                        xkey = key_of[xkey]
                    break
        fixed = (g1 - g2) * self._l2c + (g2 - g3) * self._l3c
        return (g1, g2, g3, fixed, scattered, xkey)

    def prepare(self, dag) -> None:
        """Precompute pricing invariants for every task of one DAG.

        Called by the engines before their hot loop; ``charge(tid,
        core)`` then prices that DAG's tasks by tid.  Tasks outside a
        prepared DAG (ad-hoc pricing in tests and analysis code) go
        through :meth:`charge_task`.

        The invariants depend only on the task and on *immutable*
        pricing inputs (machine constants, ``gather_intensity``) —
        never on the mutable cache/NUMA state — so they are stashed on
        the DAG keyed by those inputs: five runtimes executing the same
        memoized DAG on the same machine price it once.

        What is stored per task is a *compiled access plan*
        ``(compute, touches, gather)``: the ``_task_info`` tuple with
        zero-byte touches dropped (a zero-byte access is a documented
        no-op: no state change, no hook call, no cost), held in the
        DAG's :class:`PlanTable`.  ``prepare
        also resolves the NUMA home domain of every interned handle
        into arrays: homes are a pure function of the DAG and the
        memory configuration, fixed for the whole run.

        Plans compile from the frozen view alone, so neither a built
        DAG nor a loaded prep artifact ever rebuilds its task list
        here.
        """
        # Handle-key interning: the DAG numbers its operand handles
        # once; prepared touches/gathers below carry those int keys, so
        # every structure hashed in the hot loop hashes small ints.
        soa = dag.freeze()
        self.memory.adopt_interning(soa.id_to_key)
        key = (self._machine_key, self.gather_intensity)
        store = dag._cost_prep
        table = store.get(key)
        if table is None:
            table = store[key] = self._compile_plans(soa)
        self._prep = table.plans
        self._arm_fast_path(dag)

    def _compile_plans(self, soa) -> PlanTable:
        """Flatten every task into its access plan, from the frozen columns.

        The plans equal what :meth:`_task_info` compiles from each
        task's handle objects, with zero-byte touches dropped —
        tuple-exact, pinned by the equivalence fixture and by
        ``tests/test_property_dag.py``.  Everything is computed over
        the DAG's flat tables (:class:`repro.graph.dag.GraphArrays`) in
        bulk: the compute term from the frozen flop counts, the sparse
        effective-byte overrides (:func:`_effective_touch_bytes`) and
        gather bundles (:meth:`_gather_bundles`) in NumPy, with the
        same integer products and IEEE float operations as the
        per-task code.  The arrays become :func:`_plan_columns`, which
        the returned :class:`PlanTable` decodes into the plan list.
        """
        nbytes = _effective_touch_bytes(soa)
        keep = nbytes > 0
        nbytes = nbytes[keep]
        kept = np.zeros(soa.touch_ids.size + 1, dtype=np.int64)
        np.cumsum(keep, out=kept[1:])
        touch = (soa.touch_ids[keep], nbytes, soa.touch_is_write[keep],
                 np.minimum(nbytes, self.machine.l1_size),
                 (nbytes + 63) // 64)
        # Compute seconds, ``t.flops / (peak * efficiency)``: the frozen
        # flop counts over each kernel's denominator, one IEEE division
        # per task as the per-task code makes.
        denom = np.array(
            [self._peak_core
             * KIND_EFFICIENCY.get(kernel_spec(name).kind, 0.3)
             for name in soa.kernel_names], dtype=np.float64)
        compute = soa.flops / denom[soa.kernel_codes]
        return PlanTable(_plan_columns(touch, kept[soa.touch_indptr],
                                       compute, *self._gather_bundles(soa)))

    def _gather_bundles(self, soa):
        """``(tids, (g1, g2, g3, fixed, scattered, xkey))``: the gather
        bundle of every sparse task that has one, as columns (``xkey``
        -1 for None).

        :meth:`_gather_bundle` over the frozen sparse columns: the
        same products, the same ``int()`` truncation (``astype`` of a
        non-negative float) and the same ``1.5 ×`` scattered test, so
        every bundle is tuple-exact.
        """
        span = soa.sparse_span
        retouches = soa.sparse_nnz.astype(np.int64) * self.gather_intensity
        has = np.flatnonzero((span > 0) & (retouches > 0))
        span = span[has]
        retouches = retouches[has]
        m = self.machine
        l3_share = m.l3_size / m.l3_group_cores
        g1, g2, g3 = (
            (retouches * np.maximum(0.0, 1.0 - cap / span)).astype(np.int64)
            for cap in (m.l1_size, m.l2_size, l3_share)
        )
        fixed = (g1 - g2) * self._l2c + (g2 - g3) * self._l3c
        chunk_bytes = (soa.sparse_cols[has].astype(np.int64)
                       * soa.sparse_width[has] * 8)
        scattered = span > 1.5 * np.maximum(1, chunk_bytes)
        x = soa.sparse_x[has].astype(np.int64)
        xkey = np.where(scattered | (x < 0), -1, x)
        return soa.sparse_tids[has], (g1, g2, g3, fixed, scattered, xkey)

    def _arm_fast_path(self, dag) -> None:
        """Resolve NUMA homes for the compiled-plan walk.

        The fast walk prices DRAM legs from per-key arrays instead of
        :meth:`MemoryModel.dram_line_cost`.  ``prepare`` has adopted
        the DAG's interning, so the arrays are a pure function of
        ``(machine, first_touch, n_parts, matrix_geometry)`` over it
        and are cached on the DAG under that key
        (:meth:`MemoryModel.dag_home_arrays`, which the schedulers'
        domain tables read too): five runtimes pricing the same
        memoized DAG resolve every home once, not once per engine.
        """
        mem = self.memory
        homes, haspart = mem.dag_home_arrays(dag)
        # Hot-loop invariants of the compiled walk, resolved once per
        # prepare instead of per charge: one shared tuple for the
        # model-wide bindings and a lazily-filled per-core list (see
        # :meth:`_bare_core_ctx`).
        self._bare_common = (
            self._l2c, self._l3c, homes, haspart,
            mem._local_cost, mem._remote_cost, mem._scattered_cost,
            mem.scattered,
        )
        self._bare_ctx = [None] * self.machine.n_cores

    def _bare_core_ctx(self, core: int):
        """Resolve (and cache) one core's invariant charge context."""
        cache = self.cache
        L1 = cache.l1[core]
        L2 = cache.l2[core]
        L3 = cache.l3[cache._group_of[core]]
        ctx = (L1, L2, L3, L1._entries, L2._entries, L3._entries,
               L1.capacity, L2.capacity, L3.capacity, 1 << core,
               cache._holders, cache, self.memory._core_domain[core])
        self._bare_ctx[core] = ctx
        return ctx

    def charge(self, tid: int, core: int) -> TaskCharge:
        """Execute task ``tid`` of the prepared DAG on ``core``; price it.

        Mutates the cache hierarchy (this run's state); returns the
        task's duration decomposition and per-level missed lines.
        """
        plan = self._prep[tid]
        # Traced runs walk through CacheHierarchy.access, the compiled
        # walk's oracle, so the trace hook sees every access.
        if self.cache.trace_hook is None:
            return self._charge_bare(plan, core)
        return self._charge_access(plan, core)

    def charge_task(self, task: Task, core: int) -> TaskCharge:
        """Price a ``Task`` outside any prepared DAG (tests, analysis).

        Compiles the task's plan with :meth:`_task_info` (handle keys
        stay ``(name, part)`` tuples) and walks it through
        :meth:`CacheHierarchy.access`, as traced runs do.
        """
        return self._charge_access(self._task_info(task), core)

    def _charge_access(self, plan, core: int) -> TaskCharge:
        """Price one plan through :meth:`CacheHierarchy.access` (oracle)."""
        compute, touches, gather = plan
        cache_access = self.cache.access
        dram_cost = self.memory.dram_line_cost
        l2c = self._l2c
        l3c = self._l3c
        l1 = l2 = l3 = 0
        memory_t = 0.0
        for key, nbytes, is_write, _n1, _lmf in touches:
            m1, m2, m3 = cache_access(core, key, nbytes, is_write)
            if not m1:
                # L1 hit: every term below is +0.0, and x + 0.0 == x
                # bit-exactly for the non-negative accumulators here.
                continue
            l1 += m1
            l2 += m2
            l3 += m3
            if m3:
                memory_t += (
                    (m1 - m2) * l2c
                    + (m2 - m3) * l3c
                    + m3 * dram_cost(core, key)
                )
            else:
                # No DRAM leg: skip the (NUMA-aware, core-dependent)
                # line-cost lookup entirely.  `m3 == 0` makes the third
                # term exactly +0.0, so dropping it is bit-identical.
                memory_t += (m1 - m2) * l2c + m2 * l3c
        if gather is not None:
            g1, g2, g3, fixed, scattered, xkey = gather
            # NUMA pricing of the gather's DRAM leg (see _gather_bundle).
            if scattered:
                dram = self.memory.dram_line_cost_scattered(core)
            else:
                dram = dram_cost(core, xkey)
            l1 += g1
            l2 += g2
            l3 += g3
            memory_t += fixed + g3 * dram
        # Compute and memory overlap partially on an out-of-order core;
        # a max() would assume perfect overlap, a sum none.  Memory-bound
        # sparse kernels sit close to "no overlap" because the gathers
        # serialize behind the loads, so charge the sum.
        return tuple.__new__(
            TaskCharge,
            (compute + memory_t, compute, memory_t, (l1, l2, l3)),
        )

    def _charge_bare(self, plan, core: int) -> TaskCharge:
        """Compiled-plan charge: the fused walk of untraced runs.

        Executes the same per-touch algorithm as :meth:`_charge_access` +
        :meth:`CacheHierarchy.access`, term-for-term and in the same
        order (the equivalence fixture pins the numbers), but fused
        into one loop over the compiled plan with every per-call
        attribute lookup hoisted, the DRAM leg priced from the home
        arrays ``prepare`` resolved, and a whole-cache-clobber eviction
        fast path (an inserted extent that fills the level evicts
        every other entry — the dominant cold-cache case).  Evictions
        leave the lazy coherence directory alone.  Any semantic change
        to the walk must be mirrored in :meth:`CacheHierarchy.access`
        (see machine/cache.py); ``tests/test_property_charge_walk.py``
        checks the two walks against each other and
        ``tests/test_coherence_reference.py`` both against a
        no-directory reference.
        """
        compute, touches, gather = plan
        ctx = self._bare_ctx[core]
        if ctx is None:
            ctx = self._bare_core_ctx(core)
        (L1, L2, L3, e1, e2, e3, cap1, cap2, cap3, bit, holders, cache,
         cdom) = ctx
        (l2c, l3c, homes, haspart, local, remote, scat,
         scat_mode) = self._bare_common
        hold_get = holders.get
        u1 = L1.used
        u2 = L2.used
        u3 = L3.used
        l2_touched = False
        l3_touched = False
        lt1 = lt2 = lt3 = 0
        memory_t = 0.0
        for key, nbytes, write, n1, lmf in touches:
            # -- L1 (private) ----------------------------------------
            if n1 == cap1:
                resident = e1.get(key, 0)
                mb1 = nbytes - resident if resident < nbytes else 0
                e1.clear()
                e1[key] = cap1
                u1 = cap1
            else:
                resident = e1.pop(key, 0)
                mb1 = nbytes - resident if resident < nbytes else 0
                u1 += n1 - resident
                e1[key] = n1
                while u1 > cap1 and e1:
                    u1 -= e1.pop(next(iter(e1)))
            mb2 = mb3 = 0
            if mb1:
                # -- L2 (private) ------------------------------------
                l2_touched = True
                if mb1 >= cap2:
                    resident = e2.get(key, 0)
                    mb2 = mb1 - resident if resident < mb1 else 0
                    e2.clear()
                    e2[key] = cap2
                    u2 = cap2
                else:
                    resident = e2.pop(key, 0)
                    mb2 = mb1 - resident if resident < mb1 else 0
                    u2 += mb1 - resident
                    e2[key] = mb1
                    while u2 > cap2 and e2:
                        u2 -= e2.pop(next(iter(e2)))
                if mb2:
                    # -- L3 (shared per group) -----------------------
                    l3_touched = True
                    resident = e3.pop(key, 0)
                    mb3 = mb2 - resident if resident < mb2 else 0
                    n3 = mb2 if mb2 < cap3 else cap3
                    u3 += n3 - resident
                    e3[key] = n3
                    while u3 > cap3 and e3:
                        u3 -= e3.pop(next(iter(e3)))
            # -- directory (an L1 hit's bit is already set) ----------
            if write or mb1:
                m = hold_get(key)
                if m is None:
                    holders[key] = bit
                    if len(holders) > cache._holder_limit:
                        cache._compact_holders()
                elif write:
                    if m != bit:
                        cache._invalidate_others(core, key, m & ~bit)
                        holders[key] = bit
                elif not m & bit:
                    holders[key] = m | bit
            if mb1:
                if mb3 == nbytes:
                    lt1 += lmf
                    lt2 += lmf
                    lt3 += lmf
                    if scat_mode and haspart[key]:
                        memory_t += lmf * scat
                    elif homes[key] != cdom:
                        memory_t += lmf * remote
                    else:
                        memory_t += lmf * local
                else:
                    lm1 = (mb1 + 63) // 64
                    lm2 = (mb2 + 63) // 64
                    lm3 = (mb3 + 63) // 64
                    lt1 += lm1
                    lt2 += lm2
                    lt3 += lm3
                    if lm3:
                        if scat_mode and haspart[key]:
                            dc = scat
                        elif homes[key] != cdom:
                            dc = remote
                        else:
                            dc = local
                        memory_t += ((lm1 - lm2) * l2c + (lm2 - lm3) * l3c
                                     + lm3 * dc)
                    else:
                        memory_t += (lm1 - lm2) * l2c + lm2 * l3c
        if gather is not None:
            g1, g2, g3, fixed, scattered, xkey = gather
            if scattered:
                dram = scat
            elif xkey is None:
                dram = local
            elif scat_mode and haspart[xkey]:
                dram = scat
            elif homes[xkey] != cdom:
                dram = remote
            else:
                dram = local
            lt1 += g1
            lt2 += g2
            lt3 += g3
            memory_t += fixed + g3 * dram
        L1.used = u1
        if l2_touched:
            L2.used = u2
        if l3_touched:
            L3.used = u3
        return tuple.__new__(
            TaskCharge,
            (compute + memory_t, compute, memory_t, (lt1, lt2, lt3)),
        )
