"""Both charge walks against a no-directory coherence reference.

``NaiveHierarchy`` is an executable specification of the cache model:
per-core L1/L2 and per-group L3 as ``OrderedDict`` LRUs, and MESI write
invalidation by brute force.  On every write it scans every other
core's L1/L2 and every other group's L3.  It keeps no directory at all,
so it cannot share a bug with the lazy ``CacheHierarchy._holders``
directory that both production walks use.

Driven through ``CostModel.charge`` (its non-``None`` trace hook keeps
the generic per-touch loop), it prices random workloads beside the
fused ``_charge_bare`` walk and the ``CacheHierarchy.access`` oracle on
three machines: Broadwell; EPYC, whose 128 cores need masks wider than
64 bits; and a tiny machine on which the directory compacts.  Charges
and the full LRU state must be identical after every round.  The model
invariant "every real holder's bit is set" is checked after every touch
of the oracle walk and after every charge of the fused walk.
"""

from __future__ import annotations

from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.dag import TaskDAG
from repro.graph.task import DataHandle, Task
from repro.machine.cache import CACHE_LINE, CacheHierarchy
from repro.machine.memory import MemoryModel
from repro.machine.presets import broadwell, epyc
from repro.machine.topology import MachineSpec
from repro.sim.cost import CostModel

_ROUNDS = 4


def tiny() -> MachineSpec:
    """Four cores in two L3 groups; 40 lines of cache in all."""
    return MachineSpec(
        name="tiny", n_cores=4, n_sockets=1, n_numa_domains=1,
        l1_size=2 * CACHE_LINE, l2_size=4 * CACHE_LINE,
        l3_size=8 * CACHE_LINE, l3_group_cores=2,
        ghz=1.0, flops_per_cycle=1.0,
        l2_line_cost=1e-9, l3_line_cost=3e-9, dram_line_cost=1e-8,
        numa_penalty=1.5,
    )


class NaiveLRU:
    """One cache level, written for clarity over speed."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.used = 0
        self._entries = OrderedDict()

    def access(self, key, nbytes: int) -> int:
        if nbytes <= 0:
            return 0
        resident = self._entries.pop(key, 0)
        self._entries[key] = min(nbytes, self.capacity)
        self.used += self._entries[key] - resident
        while self.used > self.capacity:
            _, size = self._entries.popitem(last=False)
            self.used -= size
        return max(0, nbytes - resident)

    def invalidate(self, key) -> None:
        self.used -= self._entries.pop(key, 0)


class NaiveHierarchy:
    """The cache model with brute-force write invalidation."""

    def __init__(self, machine: MachineSpec):
        n = machine.n_cores
        self.l1 = [NaiveLRU(machine.l1_size) for _ in range(n)]
        self.l2 = [NaiveLRU(machine.l2_size) for _ in range(n)]
        self.l3 = [NaiveLRU(machine.l3_size)
                   for _ in range(machine.n_l3_groups)]
        self.group_of = [machine.l3_group_of_core(c) for c in range(n)]
        # Any hook keeps CostModel.charge off the fused walk.
        self.trace_hook = lambda lines: None

    def access(self, core, key, nbytes, write=False):
        if nbytes <= 0:
            return (0, 0, 0)
        g = self.group_of[core]
        m1 = self.l1[core].access(key, nbytes)
        m2 = self.l2[core].access(key, m1)
        m3 = self.l3[g].access(key, m2)
        if write:
            for c in range(len(self.l1)):
                if c != core:
                    self.l1[c].invalidate(key)
                    self.l2[c].invalidate(key)
            for gg in range(len(self.l3)):
                if gg != g:
                    self.l3[gg].invalidate(key)
        return tuple(-(-m // CACHE_LINE) for m in (m1, m2, m3))


def lru_state(levels):
    """Entries in LRU order plus used bytes, per unit of each level."""
    return tuple(
        tuple((tuple(u._entries.items()), u.used) for u in units)
        for units in levels
    )


def assert_holders_covered(h: CacheHierarchy) -> None:
    """Every real holder's bit is set: a key in core c's L1/L2 has bit
    c, and a key in group g's L3 has the bit of some core of g."""
    group_mask = [0] * len(h.l3)
    for c, g in enumerate(h._group_of):
        group_mask[g] |= 1 << c
    for c, (a, b) in enumerate(zip(h.l1, h.l2)):
        for k in (*a._entries, *b._entries):
            assert h._holders[k] >> c & 1, (k, c)
    for g, level in enumerate(h.l3):
        for k in level._entries:
            assert h._holders[k] & group_mask[g], (k, g)


def _model(machine, cache, dag):
    cm = CostModel(machine, cache,
                   MemoryModel(machine, first_touch=True, n_parts=8))
    cm.prepare(dag)
    return cm


def run_three(machine, tasks, schedule):
    """Charge ``schedule`` for ``_ROUNDS`` rounds through the fused
    walk, the ``access`` oracle and the reference; assert agreement
    after every round.  Returns the number of directory compactions."""
    dag = TaskDAG.from_tasks(tasks)
    fused_cache = CacheHierarchy(machine)
    oracle_cache = CacheHierarchy(machine)
    ref_cache = NaiveHierarchy(machine)
    fused = _model(machine, fused_cache, dag)
    oracle = _model(machine, oracle_cache, dag)
    ref = _model(machine, ref_cache, dag)
    assert fused._bare_common is not None
    oracle_cache.trace_hook = lambda lines: assert_holders_covered(
        oracle_cache)
    compactions = []
    real_compact = CacheHierarchy._compact_holders

    def counting_compact(self):
        compactions.append(self is fused_cache)
        real_compact(self)

    with mock.patch.object(CacheHierarchy, "_compact_holders",
                           counting_compact):
        for r in range(_ROUNDS):
            got = []
            for ti, core in schedule:
                got.append((tuple(fused.charge(ti, core)),
                            tuple(oracle.charge(ti, core)),
                            tuple(ref.charge(ti, core))))
                assert_holders_covered(fused_cache)
            for a, b, c in got:
                assert a == b == c, r
            want = lru_state((ref_cache.l1, ref_cache.l2, ref_cache.l3))
            for h in (fused_cache, oracle_cache):
                assert lru_state((h.l1, h.l2, h.l3)) == want, r
            assert tuple(fused_cache._holders.items()) == \
                tuple(oracle_cache._holders.items())
            assert fused_cache._holder_limit == oracle_cache._holder_limit
    assert compactions.count(True) * 2 == len(compactions)
    return len(compactions) // 2


MACHINES = {
    # name: (factory, max handle bytes, number of handles, cores drawn)
    "broadwell": (broadwell, 400_000, (2, 8),
                  st.integers(0, broadwell().n_cores - 1)),
    "epyc": (epyc, 2_000_000, (2, 8),
             st.one_of(st.sampled_from([0, 3, 4, 63, 64, 65, 127]),
                       st.integers(0, 127))),
    "tiny": (tiny, 4 * CACHE_LINE, (41, 64), st.integers(0, 3)),
}


@st.composite
def workloads(draw, name):
    """A task set plus a (task, core) schedule for machine ``name``.

    On the tiny machine every handle is first touched by a task of its
    own, so more distinct keys than its 40 lines of capacity pass
    through the directory and compaction fires.
    """
    _, max_bytes, (lo, hi), cores = MACHINES[name]
    n_handles = draw(st.integers(lo, hi))
    handles = [
        DataHandle(f"h{i % 4}", i, draw(st.integers(64, max_bytes)))
        for i in range(n_handles)
    ]
    tasks = []
    n_tasks = n_handles if name == "tiny" else draw(st.integers(1, 5))
    for i in range(n_tasks):
        reads = tuple(
            handles[draw(st.integers(0, n_handles - 1))]
            for _ in range(draw(st.integers(1, 3)))
        )
        if name == "tiny":
            reads = (handles[i],) + reads
        writes = tuple(
            handles[draw(st.integers(0, n_handles - 1))]
            for _ in range(draw(st.integers(0, 1)))
        )
        tasks.append(Task(0, "AXPY", reads, writes,
                          {"rows": draw(st.integers(1, 10_000))}))
    schedule = [(ti, draw(cores)) for ti in range(n_tasks)] \
        if name == "tiny" else []
    schedule += [
        (draw(st.integers(0, n_tasks - 1)), draw(cores))
        for _ in range(draw(st.integers(1, 12)))
    ]
    return tasks, schedule


@pytest.mark.parametrize("name", sorted(MACHINES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_walks_match_no_directory_reference(name, data):
    tasks, schedule = data.draw(workloads(name))
    compactions = run_three(MACHINES[name][0](), tasks, schedule)
    if name == "tiny":
        assert compactions > 0
    else:
        assert compactions == 0


def test_write_invalidation_across_wide_masks():
    """A write from core 0 reaches holders above bit 64 on EPYC."""
    h = CacheHierarchy(epyc())
    key = ("x", 0)
    for core in (5, 64, 127):
        h.access(core, key, 10 * CACHE_LINE)
    assert h._holders[key] == (1 << 5) | (1 << 64) | (1 << 127)
    h.access(0, key, 10 * CACHE_LINE, write=True)
    assert h._holders[key] == 1
    for core in (5, 64, 127):
        assert key not in h.l1[core] and key not in h.l2[core]
        assert key not in h.l3[h._group_of[core]]
    assert key in h.l3[h._group_of[0]]
