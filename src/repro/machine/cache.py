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
(one ``CacheHierarchy.access`` per operand per task per iteration), so
it is written for CPython speed — plain dicts in insertion order
instead of ``OrderedDict`` (same LRU semantics: pop + reinsert moves a
key to the MRU end, ``next(iter(d))`` is the LRU end), no per-call
closures, and a precomputed core→L3-group map.  Semantics are frozen
by ``tests/test_engine_equivalence.py``: every change here must keep
simulated numbers bit-identical or bump
:data:`repro.sim.cost.COST_MODEL_VERSION`.

The compiled-plan charge walk (:meth:`repro.sim.cost.CostModel.
_charge_bare`) inlines this exact algorithm once more, fused with the
pricing loop, for untraced runs; traced runs and ad-hoc pricing walk
through :meth:`CacheHierarchy.access` itself, which is the fused
walk's oracle.  The fused walk reads and writes ``LRUCache._entries``
/ ``.used`` and the hierarchy's ``_sharers`` / ``_l3_sharers`` /
``_group_of`` / ``_invalidate_others`` directly.  Those names are an
internal contract: any semantic change to :meth:`CacheHierarchy.
access` must be mirrored there (the equivalence fixture and the
differential test ``tests/test_property_charge_walk.py``, which runs
both walks side by side, catch divergence).
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
    """

    __slots__ = ("machine", "l1", "l2", "l3", "_group_of",
                 "_sharers", "_l3_sharers", "trace_hook")

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
        # handle-key -> set of core ids / l3 group ids that may hold it;
        # bounds the invalidation sweep to actual sharers.
        self._sharers: Dict[tuple, set] = {}
        self._l3_sharers: Dict[tuple, set] = {}

    # ------------------------------------------------------------------
    def access(
        self, core: int, key: tuple, nbytes: int, write: bool = False
    ) -> Tuple[int, int, int]:
        """Touch ``nbytes`` of ``key`` from ``core``; missed lines/level.

        The three :meth:`LRUCache.access` bodies are inlined here: this
        method runs once per operand per task per iteration (~300k
        times for one figure's cell set), and at that call count the
        three method invocations plus their attribute traffic are a
        measurable fraction of total simulation time.  The logic is
        line-for-line the LRUCache algorithm; ``tests/test_cost_model``
        cross-checks the two and the equivalence fixture pins results.
        """
        if nbytes <= 0:
            return (0, 0, 0)
        g = self._group_of[core]
        sharer_map = self._sharers
        l3_sharer_map = self._l3_sharers
        # -- L1 (private) ---------------------------------------------
        level = self.l1[core]
        entries = level._entries
        l2_entries = self.l2[core]._entries
        resident = entries.pop(key, 0)
        m1 = nbytes - resident if resident < nbytes else 0
        capacity = level.capacity
        new_resident = nbytes if nbytes < capacity else capacity
        used = level.used + new_resident - resident
        entries[key] = new_resident
        if used > capacity:
            if new_resident == capacity:
                # Whole-cache clobber: the inserted extent fills the
                # level, so every other entry must go.  Same victims in
                # the same LRU order as the loop below — the dominant
                # case for cold streaming touches, without the per-
                # victim iterator churn.
                victims = list(entries)
                victims.pop()  # the just-inserted key (MRU end)
                entries.clear()
                entries[key] = new_resident
                used = new_resident
            else:
                victims = []
                while used > capacity and entries:
                    k = next(iter(entries))
                    used -= entries.pop(k)
                    victims.append(k)
            for k in victims:
                if k not in l2_entries:
                    # Evicted from every private level of this core:
                    # prune the stale sharer so the invalidation sweep
                    # and the sharer maps stay bounded by actual
                    # residency.  Bit-exact: invalidating a non-holder
                    # is a no-op, so membership of non-holders never
                    # affected state.
                    s = sharer_map.get(k)
                    if s is not None:
                        s.discard(core)
                        if not s:
                            del sharer_map[k]
        level.used = used
        m2 = m3 = 0
        if m1:
            # -- L2 (private) -----------------------------------------
            level = self.l2[core]
            entries = l2_entries
            l1_entries = self.l1[core]._entries
            resident = entries.pop(key, 0)
            m2 = m1 - resident if resident < m1 else 0
            capacity = level.capacity
            new_resident = m1 if m1 < capacity else capacity
            used = level.used + new_resident - resident
            entries[key] = new_resident
            if used > capacity:
                if new_resident == capacity:
                    victims = list(entries)
                    victims.pop()
                    entries.clear()
                    entries[key] = new_resident
                    used = new_resident
                else:
                    victims = []
                    while used > capacity and entries:
                        k = next(iter(entries))
                        used -= entries.pop(k)
                        victims.append(k)
                for k in victims:
                    if k not in l1_entries:
                        s = sharer_map.get(k)
                        if s is not None:
                            s.discard(core)
                            if not s:
                                del sharer_map[k]
            level.used = used
            if m2:
                # -- L3 (shared per group) ----------------------------
                level = self.l3[g]
                entries = level._entries
                resident = entries.pop(key, 0)
                m3 = m2 - resident if resident < m2 else 0
                capacity = level.capacity
                new_resident = m2 if m2 < capacity else capacity
                used = level.used + new_resident - resident
                entries[key] = new_resident
                if used > capacity:
                    if new_resident == capacity:
                        victims = list(entries)
                        victims.pop()
                        entries.clear()
                        entries[key] = new_resident
                        used = new_resident
                    else:
                        victims = []
                        while used > capacity and entries:
                            k = next(iter(entries))
                            used -= entries.pop(k)
                            victims.append(k)
                    for k in victims:
                        s = l3_sharer_map.get(k)
                        if s is not None:
                            s.discard(g)
                            if not s:
                                del l3_sharer_map[k]
                level.used = used
        # Sharer maps are maintained independently (pruning may have
        # emptied one but not the other for this key).
        sharers = sharer_map.get(key)
        if sharers is None:
            sharer_map[key] = {core}
            n_sharers = 1
        else:
            sharers.add(core)
            n_sharers = len(sharers)
        l3s = l3_sharer_map.get(key)
        if l3s is None:
            l3_sharer_map[key] = {g}
            n_l3s = 1
        else:
            l3s.add(g)
            n_l3s = len(l3s)
        # Common case: we are the only sharer at both levels —
        # _invalidate_others would no-op, so don't pay the call.
        if write and (n_sharers > 1 or n_l3s > 1):
            self._invalidate_others(core, g, key)
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

    def _invalidate_others(self, core: int, group: int, key: tuple) -> None:
        sharers = self._sharers.get(key)
        if sharers and (len(sharers) > 1 or core not in sharers):
            l1 = self.l1
            l2 = self.l2
            for c in sharers:
                if c != core:
                    l1[c].invalidate(key)
                    l2[c].invalidate(key)
            sharers.intersection_update({core})
        l3s = self._l3_sharers.get(key)
        if l3s and (len(l3s) > 1 or group not in l3s):
            l3 = self.l3
            for gg in l3s:
                if gg != group:
                    l3[gg].invalidate(key)
            l3s.intersection_update({group})

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
        self._sharers.clear()
        self._l3_sharers.clear()
