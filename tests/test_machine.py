"""Machine model: topology presets, cache LRU, NUMA placement, counters."""

import pytest

from repro.machine import (
    CACHE_LINE,
    CacheHierarchy,
    LRUCache,
    MemoryModel,
    PerfCounters,
    broadwell,
    epyc,
    get_machine,
)
from repro.machine.topology import MachineSpec


def test_broadwell_preset_matches_paper(bw):
    assert bw.n_cores == 28 and bw.n_sockets == 2
    assert bw.l1_size == 32 * 1024 and bw.l2_size == 256 * 1024
    assert bw.l3_size == 35 * 1024 * 1024
    assert bw.l3_group_cores == 14  # one slice per socket
    assert bw.ghz == 2.4
    assert bw.n_numa_domains == 2


def test_epyc_preset_matches_paper(ep):
    assert ep.n_cores == 128
    assert ep.l2_size == 512 * 1024
    assert ep.l3_size == 16 * 1024 * 1024
    assert ep.l3_group_cores == 4  # per CCX
    assert ep.n_numa_domains == 8  # "8 NUMA subregions, 4 per socket"
    assert ep.cores_per_domain == 16


def test_core_coordinates(ep):
    c = ep.core(17)
    assert c.socket == 0 and c.numa_domain == 1 and c.l3_group == 4
    c = ep.core(127)
    assert c.socket == 1 and c.numa_domain == 7 and c.l3_group == 31
    with pytest.raises(IndexError):
        ep.core(128)


def test_get_machine():
    assert get_machine("broadwell").name == "broadwell"
    with pytest.raises(KeyError, match="unknown machine"):
        get_machine("zen5")


def test_invalid_topology_rejected():
    with pytest.raises(ValueError):
        MachineSpec("x", 10, 3, 2, 1, 1, 1, 2, 1.0)  # cores % sockets


# ----------------------------------------------------------------------
def test_lru_basic_hit_miss():
    c = LRUCache(1000)
    assert c.access(("a", 0), 600) == 600  # cold
    assert c.access(("a", 0), 600) == 0    # hot
    assert c.access(("b", 0), 600) == 600  # evicts a partially
    assert c.used <= 1000
    # a was evicted (LRU)
    assert c.access(("a", 0), 600) == 600


def test_lru_partial_residency():
    c = LRUCache(100)
    c.access(("big", 0), 500)  # clamps to 100 resident
    assert c.resident(("big", 0)) == 100
    assert c.access(("big", 0), 500) == 400  # 100 hit, 400 miss


def test_lru_invalidate():
    c = LRUCache(100)
    c.access(("a", 0), 50)
    c.invalidate(("a", 0))
    assert ("a", 0) not in c
    assert c.used == 0
    c.invalidate(("a", 0))  # idempotent


def test_lru_rejects_bad_capacity():
    with pytest.raises(ValueError):
        LRUCache(0)


def test_hierarchy_miss_cascade(bw):
    h = CacheHierarchy(bw)
    nbytes = 100 * CACHE_LINE
    m1, m2, m3 = h.access(0, ("x", 0), nbytes)
    assert m1 == m2 == m3 == 100  # cold everywhere
    m1, m2, m3 = h.access(0, ("x", 0), nbytes)
    assert (m1, m2, m3) == (0, 0, 0)  # hot in L1


def test_hierarchy_l2_hit_after_l1_eviction(bw):
    h = CacheHierarchy(bw)
    h.access(0, ("x", 0), 10 * CACHE_LINE)
    # stream enough to evict x from L1 (32 KB) but not L2 (256 KB)
    h.access(0, ("fill", 0), bw.l1_size)
    m1, m2, _ = h.access(0, ("x", 0), 10 * CACHE_LINE)
    assert m1 == 10 and m2 == 0


def test_write_invalidates_other_cores(bw):
    h = CacheHierarchy(bw)
    h.access(0, ("x", 0), 10 * CACHE_LINE)
    h.access(14, ("x", 0), 10 * CACHE_LINE)  # other socket caches it too
    h.access(1, ("x", 0), 10 * CACHE_LINE, write=True)
    # core 0 (same socket, other core) and core 14 (other socket) lose it
    m1, _, _ = h.access(0, ("x", 0), 10 * CACHE_LINE)
    assert m1 == 10
    m1, m2, m3 = h.access(14, ("x", 0), 10 * CACHE_LINE)
    assert m1 == 10 and m3 == 10  # other L3 group was invalidated too


def test_shared_l3_within_group(bw):
    h = CacheHierarchy(bw)
    h.access(0, ("x", 0), 100 * CACHE_LINE)
    # another core of the same socket finds it in L3
    m1, m2, m3 = h.access(5, ("x", 0), 100 * CACHE_LINE)
    assert m1 == 100 and m2 == 100 and m3 == 0


def test_flush(bw):
    h = CacheHierarchy(bw)
    h.access(0, ("x", 0), 10 * CACHE_LINE)
    h.flush()
    m1, _, m3 = h.access(0, ("x", 0), 10 * CACHE_LINE)
    assert m1 == 10 and m3 == 10


def test_sharer_maps_stay_bounded_by_residency(bw):
    """The lazy sharer directory ``_holders`` must stay bounded by residency.

    Evictions leave ``_holders`` alone, so streaming a long sequence of
    distinct handles through one core would grow it by one entry per
    handle ever touched; compaction rebuilds it from residency whenever
    a new key pushes it past its limit, so the map size stays bounded
    by what the caches can actually hold.  (A small synthetic machine
    keeps the stream short.)
    """
    from repro.machine.topology import MachineSpec

    tiny = MachineSpec(
        name="tiny", n_cores=2, n_sockets=1, n_numa_domains=1,
        l1_size=4 * CACHE_LINE, l2_size=16 * CACHE_LINE,
        l3_size=64 * CACHE_LINE, l3_group_cores=2,
        ghz=1.0, flops_per_cycle=1.0,
        l2_line_cost=1e-9, l3_line_cost=3e-9, dram_line_cost=1e-8,
        numa_penalty=1.5,
    )
    h = CacheHierarchy(tiny)
    n = 4 * (tiny.l3_size // CACHE_LINE)  # far beyond total capacity
    for i in range(n):
        h.access(0, ("s", i), CACHE_LINE)
    resident = sum(len(c) for c in h.l1) + sum(len(c) for c in h.l2) \
        + sum(len(c) for c in h.l3)
    assert len(h._holders) <= 2 * resident
    assert len(h._holders) < n // 2
    # Compaction must not change coherence semantics: a still-resident
    # handle written elsewhere is invalidated exactly as before, both
    # on the compacted tiny directory and on a fresh one.
    last = ("s", n - 1)
    assert h._holders[last] == 0b01
    h.access(1, last, CACHE_LINE, write=True)
    assert h.access(0, last, CACHE_LINE) == (1, 1, 0)  # shared L3 kept
    h2 = CacheHierarchy(bw)
    h2.access(0, ("hot", 0), 10 * CACHE_LINE)
    h2.access(1, ("hot", 0), 10 * CACHE_LINE, write=True)
    m1, _, _ = h2.access(0, ("hot", 0), 10 * CACHE_LINE)
    assert m1 == 10


# ----------------------------------------------------------------------
def test_first_touch_contiguous_placement(ep):
    m = MemoryModel(ep, first_touch=True, n_parts=128)
    assert m.domain_of(("v", 0)) == 0
    assert m.domain_of(("v", 127)) == 7
    assert m.domain_of(("v", 64)) == 4
    assert m.domain_of(("g", None)) == 0  # small data on domain 0


def test_no_first_touch_single_domain(ep):
    m = MemoryModel(ep, first_touch=False, n_parts=128)
    assert all(m.domain_of(("v", i)) == 0 for i in range(0, 128, 17))


def test_remote_dram_penalty(ep):
    m = MemoryModel(ep, first_touch=True, n_parts=128)
    local = m.dram_line_cost(0, ("v", 0))      # core 0 domain 0, chunk 0
    remote = m.dram_line_cost(0, ("v", 127))   # chunk on domain 7
    assert remote == pytest.approx(local * ep.numa_penalty)


# ----------------------------------------------------------------------
def test_perf_counters_record_and_merge():
    a = PerfCounters()
    a.record_task("SPMM", 1.0, (10, 5, 2), 0.1, 0.4, 0.5)
    a.record_task("XY", 0.5, (1, 1, 1), 0.0, 0.3, 0.2)
    assert a.misses() == (11, 6, 3)
    assert a.tasks_executed == 2
    b = PerfCounters()
    b.record_task("SPMM", 2.0, (10, 10, 10), 0.2, 1.0, 1.0)
    a.merge(b)
    assert a.l3_misses == 13
    assert a.kernel_tasks["SPMM"] == 2


def test_normalized_misses():
    base = PerfCounters()
    base.record_task("K", 1.0, (100, 50, 20), 0, 0, 0)
    mine = PerfCounters()
    mine.record_task("K", 1.0, (50, 10, 20), 0, 0, 0)
    assert mine.normalized_misses(base) == (0.5, 0.2, 1.0)
