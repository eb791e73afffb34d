"""Cost model: compute pricing, effective bytes, gather misses."""

import pytest

from repro.graph.task import DataHandle, Task
from repro.machine.cache import CacheHierarchy
from repro.machine.memory import MemoryModel
from repro.sim.cost import KIND_EFFICIENCY, CostModel


def make_cost(bw, first_touch=True, **kw):
    cache = CacheHierarchy(bw)
    mem = MemoryModel(bw, first_touch=first_touch, n_parts=64)
    return CostModel(bw, cache, mem, **kw)


def spmm_task(nnz=1000, rows=1000, cols=1000, width=8, span=None,
              tid=0, buffer=False):
    shape = {"nnz": nnz, "rows": rows, "cols": cols, "width": width}
    if span is not None:
        shape["gather_span"] = span
    a = DataHandle("A", 0, nnz * 16)
    x = DataHandle("X", 0, cols * width * 8)
    y = DataHandle("Y", 0, rows * width * 8)
    return Task(tid, "SPMM", (a, x), (y,), shape,
                {"i": 0, "j": 0, "A": "A", "X": "X", "Y": "Y"})


def xy_task(rows=1000, w=8):
    y = DataHandle("Y", 0, rows * w * 8)
    z = DataHandle("Z", None, w * w * 8)
    q = DataHandle("Q", 0, rows * w * 8)
    return Task(0, "XY", (y, z), (q,), {"rows": rows, "w1": w, "w2": w},
                {"i": 0, "Y": "Y", "Z": "Z", "Q": "Q"})


def test_compute_seconds_kernel_efficiency(bw):
    cm = make_cost(bw)
    t = xy_task()
    expected = t.flops / (bw.ghz * 1e9 * bw.flops_per_cycle *
                          KIND_EFFICIENCY["blas3"])
    assert cm.compute_seconds(t) == pytest.approx(expected)


def test_charge_cold_then_warm(bw):
    cm = make_cost(bw)
    t = xy_task(rows=500)
    cold = cm.charge_task(t, 0)
    warm = cm.charge_task(t, 0)
    assert warm.memory < cold.memory
    assert warm.misses[0] <= cold.misses[0]
    assert cold.duration == pytest.approx(cold.compute + cold.memory)


def test_sparse_effective_bytes_capped_by_nnz(bw):
    """A nearly-empty block must not be charged the whole chunk."""
    cm = make_cost(bw)
    sparse = spmm_task(nnz=10, rows=10**6, cols=10**6)
    charge = cm.charge_task(sparse, 0)
    # 10 nonzeros touch at most ~10 lines of X and a few of Y, plus the
    # tiny matrix block: orders of magnitude below the chunk size.
    assert charge.misses[0] < 1000


def test_gather_span_penalty_orders_csr_vs_csb(bw):
    """Full-vector gathers (CSR) miss deeper than block-confined ones."""
    cm_csr = make_cost(bw)
    cm_csb = make_cost(bw)
    nnz = 200_000
    csr = spmm_task(nnz=nnz, span=500 * 2**20)  # 500 MB span
    csb = spmm_task(nnz=nnz, span=256 * 2**10)  # 256 KB span (fits L2)
    ch_csr = cm_csr.charge_task(csr, 0)
    ch_csb = cm_csb.charge_task(csb, 0)
    assert ch_csr.misses[2] > ch_csb.misses[2]
    assert ch_csr.memory > ch_csb.memory


def test_gather_numa_penalty(ep):
    """Remote input chunks make the DRAM gather leg more expensive."""
    cache = CacheHierarchy(ep)
    mem = MemoryModel(ep, first_touch=True, n_parts=64)
    cm = CostModel(ep, cache, mem)
    nnz = 100_000
    shape = {"nnz": nnz, "rows": 10**6, "cols": 10**6, "width": 1,
             "gather_span": 10**9}
    a = DataHandle("A", 0, nnz * 16)

    def task_reading_part(p):
        x = DataHandle("X", p, 8 * 10**6)
        y = DataHandle("Y", p, 8 * 10**6)
        return Task(0, "SPMV", (a, x), (y,), shape,
                    {"i": p, "j": p, "A": "A", "X": "X", "Y": "Y"})

    # core 0 lives on domain 0; chunk 0 is local, chunk 63 is remote
    local = cm.charge_task(task_reading_part(0), 0)
    cm2 = CostModel(ep, CacheHierarchy(ep), mem)
    remote = cm2.charge_task(task_reading_part(63), 0)
    assert remote.memory > local.memory


def test_zero_gather_intensity_disables_penalty(bw):
    cm = make_cost(bw, gather_intensity=0.0)
    t = spmm_task(nnz=10**6, span=10**9)
    assert cm._gather_bundle(t) is None


def test_gather_misses_monotone_in_span(bw):
    cm = make_cost(bw)
    t_small = spmm_task(nnz=10**5, span=10**5)
    t_big = spmm_task(nnz=10**5, span=10**9)
    a1, a2, a3 = cm._gather_bundle(t_small)[:3]
    b1, b2, b3 = cm._gather_bundle(t_big)[:3]
    assert b1 >= a1 and b2 >= a2 and b3 >= a3
