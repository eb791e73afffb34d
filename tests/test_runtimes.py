"""Runtime façades: the five solver versions produce ordered results."""

import pytest

from repro.graph.builder import BuildOptions
from repro.matrices.csb import CSBMatrix
from repro.matrices.generators import banded_fem
from repro.runtime import (
    BSPRuntime,
    DeepSparseRuntime,
    HPXRuntime,
    RegentRuntime,
    libcsr_partitions,
)
from repro.solvers import lobpcg_trace


@pytest.fixture(scope="module")
def problem():
    csb = CSBMatrix.from_coo(banded_fem(600, 8, seed=6), 60)
    calls, chunked, small = lobpcg_trace(csb, n=4)
    return csb, calls, chunked, small


def test_all_runtimes_complete(bw, problem):
    csb, calls, chunked, small = problem
    for rt in [BSPRuntime(bw, "libcsb"), DeepSparseRuntime(bw),
               HPXRuntime(bw), RegentRuntime(bw)]:
        res = rt.run(csb, calls, chunked, small, iterations=1)
        assert res.counters.tasks_executed > 0
        assert res.machine == "broadwell"


def test_bsp_flavors(bw, problem):
    csb, calls, chunked, small = problem
    r = BSPRuntime(bw, "libcsr")
    assert r.options.csr_storage is True
    assert r.options.skip_empty is False
    r2 = BSPRuntime(bw, "libcsb")
    assert r2.options.csr_storage is False
    with pytest.raises(ValueError, match="flavor"):
        BSPRuntime(bw, "libfoo")


def test_libcsr_partitions(bw):
    assert libcsr_partitions(bw, 28_000) == 1000
    assert libcsr_partitions(bw, 29) == 2


def test_regent_util_split_presets(bw, ep):
    assert RegentRuntime(bw).make_scheduler().util_fraction == \
        pytest.approx(4 / 28)
    assert RegentRuntime(ep).util_fraction == pytest.approx(18 / 128)


def test_regent_fewer_workers_than_cores(bw, problem):
    csb, calls, chunked, small = problem
    res = RegentRuntime(bw).run(csb, calls, chunked, small, iterations=1)
    used_cores = {r.core for r in res.flow.records}
    assert max(used_cores) < 24  # 4 of 28 cores reserved


def test_first_touch_flag_changes_time(ep):
    """Fig. 5 at test scale: no first-touch ⇒ domain-0 saturation."""
    from repro.analysis.experiment import run_version

    on = run_version("epyc", "inline1", "lanczos", "deepsparse",
                     block_count=32, iterations=1, first_touch=True)
    off = run_version("epyc", "inline1", "lanczos", "deepsparse",
                      block_count=32, iterations=1, first_touch=False)
    assert off.time_per_iteration > on.time_per_iteration * 1.5


def test_reduction_mode_option(bw, problem):
    csb, calls, chunked, small = problem
    rt = RegentRuntime(bw, options=BuildOptions(spmm_mode="reduction"))
    dag = rt.build_dag(csb, calls, chunked, small)
    assert "SPMM_REDUCE" in dag.by_kernel()


def test_hpx_numa_flag(ep, problem):
    csb, calls, chunked, small = problem
    aware = HPXRuntime(ep, numa_aware=True).run(
        csb, calls, chunked, small, iterations=1)
    naive = HPXRuntime(ep, numa_aware=False).run(
        csb, calls, chunked, small, iterations=1)
    # NUMA-aware scheduling should not be slower (paper: ~50% gain)
    assert aware.time_per_iteration <= naive.time_per_iteration * 1.05


def test_deterministic_given_seed(bw, problem):
    csb, calls, chunked, small = problem
    a = HPXRuntime(bw, seed=5).run(csb, calls, chunked, small, iterations=1)
    b = HPXRuntime(bw, seed=5).run(csb, calls, chunked, small, iterations=1)
    assert a.total_time == b.total_time
    assert a.counters.misses() == b.counters.misses()


def test_overrides_reach_the_scheduler_and_typos_fail_early(bw):
    """A runtime's overhead constants live only in its scheduler: an
    override is passed through, and an unknown one is rejected when the
    runtime is made, not at its first run."""
    assert DeepSparseRuntime(bw, spawn_cost=1e-6).make_scheduler() \
        .spawn_cost == 1e-6
    assert RegentRuntime(bw, analysis_cost=3e-6).make_scheduler() \
        .analysis_cost == 3e-6
    with pytest.raises(TypeError):
        HPXRuntime(bw, numa_awar=False)
