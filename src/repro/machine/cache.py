"""LRU cache simulation at data-object granularity.

Simulating every 64-byte line of multi-megabyte operands is orders of
magnitude too slow in Python and unnecessary for this study: tasks
stream whole extents (a CSB tile, a b×n vector chunk), so residency can
be tracked per *handle* with partial-byte occupancy.  An access of
``nbytes`` hits on however many bytes of that handle are resident and
misses on the rest; misses are reported in cache lines, which is what
``perf stat`` counts.

The hierarchy is per-core L1 and L2 plus one shared L3 per L3 group
(socket on Broadwell, CCX on EPYC).  Writes invalidate the handle in
every *other* core's private levels and other L3 groups — the MESI
behaviour that makes the BSP versions pay coherence misses when the
next kernel's static schedule lands a chunk on a different core.

Implementation note: this is the innermost loop of the whole simulator
(one operand touch per task per iteration), so it is written for
CPython speed — plain dicts in insertion order instead of
``OrderedDict`` (same LRU semantics: pop + reinsert moves a key to the
MRU end, ``next(iter(d))`` is the LRU end), and a precomputed
core→L3-group map.  Semantics are frozen by
``tests/test_engine_equivalence.py``: every change here must keep
simulated numbers bit-identical or bump
:data:`repro.sim.cost.COST_MODEL_VERSION`.

The compiled-plan charge walk (:meth:`repro.sim.cost.CostModel.
_charge_bare`) inlines :meth:`LRUCache.access` and the directory
update once more, fused with the pricing loop, for untraced runs;
traced runs and ad-hoc pricing walk through
:meth:`CacheHierarchy.access` itself, which is the fused walk's
oracle.  The fused walk reads and writes ``LRUCache._entries`` /
``.used`` and the hierarchy's ``_holders`` / ``_holder_limit`` /
``_group_of`` / ``_invalidate_others`` / ``_compact_holders``
directly.  Those names are an internal contract: any semantic change
to :meth:`CacheHierarchy.access` must be mirrored there (the
equivalence fixture, the differential test
``tests/test_property_charge_walk.py``, which runs both walks side by
side, and the no-directory reference in
``tests/test_coherence_reference.py`` catch divergence).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.machine.topology import MachineSpec

__all__ = ["CACHE_LINE", "LRUCache", "CacheHierarchy"]

CACHE_LINE = 64


class LRUCache:
    """One cache level: LRU over (handle-key → resident bytes).

    ``access`` returns the number of *missed bytes*; the caller
    propagates those to the next level.  Objects larger than the
    capacity are clamped to capacity (a streaming object can keep at
    most ``capacity`` bytes resident).
    """

    __slots__ = ("capacity", "used", "_entries")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = int(capacity)
        self.used = 0
        # Plain dict in insertion order == LRU order (pop + reinsert
        # moves to the MRU end; the first key is the LRU victim).
        self._entries: Dict[tuple, int] = {}

    def access(self, key: tuple, nbytes: int) -> int:
        """Touch ``nbytes`` of object ``key``; return missed bytes."""
        if nbytes <= 0:
            return 0
        entries = self._entries
        resident = entries.pop(key, 0)
        miss = nbytes - resident if resident < nbytes else 0
        capacity = self.capacity
        new_resident = nbytes if nbytes < capacity else capacity
        used = self.used + new_resident - resident
        entries[key] = new_resident  # most-recently-used position
        if used > capacity:
            while used > capacity and entries:
                k = next(iter(entries))
                used -= entries.pop(k)
        self.used = used
        return miss

    def invalidate(self, key: tuple) -> None:
        """Drop an object (coherence invalidation on remote write)."""
        sz = self._entries.pop(key, None)
        if sz:
            self.used -= sz

    def resident(self, key: tuple) -> int:
        """Bytes of ``key`` currently resident (no LRU update)."""
        return self._entries.get(key, 0)

    def flush(self) -> None:
        self._entries.clear()
        self.used = 0

    def __contains__(self, key):
        return key in self._entries

    def __len__(self):
        return len(self._entries)


class CacheHierarchy:
    """Private L1/L2 per core, shared L3 per group, with coherence.

    ``access`` models one task-level operand touch and returns missed
    lines per level ``(l1, l2, l3)``; an L3 miss means a DRAM access
    (priced by the memory model, which knows NUMA placement).

    Coherence runs off a lazy directory, ``_holders``: handle key ->
    core bitmask, always a *superset* of the cores holding the key in
    L1/L2 plus, for every L3 group holding it, some core of that group.
    A touch ORs in its core's bit and an eviction does nothing; a write
    that finds other bits invalidates the key in those cores' private
    levels and their groups' L3 (never its own group's), then resets
    the mask to the writer's bit.  Invalidating a non-holder is a no-op,
    so a superset directory is exact: simulated state depends only on
    who really holds a key, never on the stale bits.  The map is
    compacted (rebuilt from residency) when a new key pushes it past
    ``_holder_limit``: max(2 x keys kept by the last compaction, total
    cache capacity in lines).
    """

    __slots__ = ("machine", "l1", "l2", "l3", "_group_of", "_holders",
                 "_holder_limit", "_capacity_lines", "trace_hook")

    def __init__(self, machine: MachineSpec):
        self.machine = machine
        #: Optional observability hook (``repro.trace``): when set, it
        #: is called once per :meth:`access` with the missed-lines
        #: tuple — the tracer's miss-burst sampler.  ``None`` (the
        #: default) costs one pre-hoisted attribute check per access;
        #: the hook only observes, it can never change simulated state.
        self.trace_hook = None
        self.l1 = [LRUCache(machine.l1_size) for _ in range(machine.n_cores)]
        self.l2 = [LRUCache(machine.l2_size) for _ in range(machine.n_cores)]
        self.l3 = [LRUCache(machine.l3_size) for _ in range(machine.n_l3_groups)]
        # core id -> L3 group id, precomputed off the hot path.
        self._group_of = tuple(
            machine.l3_group_of_core(c) for c in range(machine.n_cores)
        )
        self._capacity_lines = (
            sum(c.capacity for c in self.l1) + sum(c.capacity for c in self.l2)
            + sum(c.capacity for c in self.l3)
        ) // CACHE_LINE
        self._holders: Dict[tuple, int] = {}
        self._holder_limit = self._capacity_lines

    # ------------------------------------------------------------------
    def access(
        self, core: int, key: tuple, nbytes: int, write: bool = False
    ) -> Tuple[int, int, int]:
        """Touch ``nbytes`` of ``key`` from ``core``; missed lines/level.

        Each level passes its missed bytes on to the next; then the
        directory registers ``core`` and, on a write, invalidates every
        other holder.
        """
        if nbytes <= 0:
            return (0, 0, 0)
        m1 = self.l1[core].access(key, nbytes)
        m2 = self.l2[core].access(key, m1)
        m3 = self.l3[self._group_of[core]].access(key, m2)
        bit = 1 << core
        holders = self._holders
        mask = holders.get(key)
        if mask is None:
            holders[key] = bit
            if len(holders) > self._holder_limit:
                self._compact_holders()
        elif write:
            if mask != bit:
                self._invalidate_others(core, key, mask & ~bit)
                holders[key] = bit
        elif not mask & bit:
            holders[key] = mask | bit
        # ceil-divide missed bytes into 64-byte lines ((0+63)//64 == 0).
        lines = (
            (m1 + 63) // CACHE_LINE,
            (m2 + 63) // CACHE_LINE,
            (m3 + 63) // CACHE_LINE,
        )
        hook = self.trace_hook
        if hook is not None:
            hook(lines)
        return lines

    def _invalidate_others(self, core: int, key: tuple, others: int) -> None:
        """Drop ``key`` from the cores in bitmask ``others`` (never
        ``core``): their L1/L2, and the L3 of every group but ``core``'s.
        Walks the set bits only."""
        l1 = self.l1
        l2 = self.l2
        l3 = self.l3
        group_of = self._group_of
        g = group_of[core]
        while others:
            low = others & -others
            others ^= low
            c = low.bit_length() - 1
            l1[c].invalidate(key)
            l2[c].invalidate(key)
            gc = group_of[c]
            if gc != g:
                l3[gc].invalidate(key)

    def _compact_holders(self) -> None:
        """Rebuild the directory from residency, dropping stale bits and
        keys no cache holds (in place: the charge walk holds the dict)."""
        holders = self._holders
        holders.clear()
        get = holders.get
        for c, (a, b) in enumerate(zip(self.l1, self.l2)):
            bit = 1 << c
            for k in a._entries:
                holders[k] = get(k, 0) | bit
            for k in b._entries:
                holders[k] = get(k, 0) | bit
        # An L3 holder none of whose cores holds the key privately is
        # recorded as its group's lowest core.
        group_bit = {}
        for c, g in enumerate(self._group_of):
            group_bit.setdefault(g, 1 << c)
        for g, level in enumerate(self.l3):
            bit = group_bit[g]
            for k in level._entries:
                holders[k] = get(k, 0) | bit
        self._holder_limit = max(2 * len(holders), self._capacity_lines)

    # ------------------------------------------------------------------
    def occupancy_sample(self) -> Dict[str, Tuple[int, int]]:
        """Aggregate ``(used, capacity)`` bytes per level, for sampling.

        Summed over every unit of a level (all per-core L1s/L2s, all
        L3 groups).  Pure read — the observability layer samples this
        at iteration barriers; it never perturbs LRU state.
        """
        return {
            "L1": (sum(c.used for c in self.l1),
                   sum(c.capacity for c in self.l1)),
            "L2": (sum(c.used for c in self.l2),
                   sum(c.capacity for c in self.l2)),
            "L3": (sum(c.used for c in self.l3),
                   sum(c.capacity for c in self.l3)),
        }

    def occupancy_by_unit(self) -> Dict[str, Tuple[Tuple[int, int], ...]]:
        """Per-unit ``(used, capacity)`` tuples per level (diagnostics)."""
        return {
            "L1": tuple((c.used, c.capacity) for c in self.l1),
            "L2": tuple((c.used, c.capacity) for c in self.l2),
            "L3": tuple((c.used, c.capacity) for c in self.l3),
        }

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Cold-start every level (between benchmark configurations)."""
        for c in self.l1:
            c.flush()
        for c in self.l2:
            c.flush()
        for c in self.l3:
            c.flush()
        self._holders.clear()
        self._holder_limit = self._capacity_lines
