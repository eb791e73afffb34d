"""BSP library baselines: ``libcsr`` and ``libcsb``.

Both execute every kernel as a fork-join parallel phase with a closing
barrier.  The difference is storage/granularity:

* **libcsr** partitions work as a thread-parallel MKL call would — one
  contiguous row chunk per core (coarse grains that overflow the LLC,
  the cache behaviour the paper attributes BSP's losses to).  Use
  :func:`libcsr_partitions` to get the matching block size.
* **libcsb** keeps the CSB tiling (same DAG as the AMT versions) but
  still executes phase-by-phase — isolating the storage-format effect
  from the scheduling effect (the paper uses it exactly this way in
  Fig. 8's L2 discussion).
"""

from __future__ import annotations

from repro.graph.builder import BuildOptions
from repro.machine.topology import MachineSpec
from repro.runtime.base import Runtime
from repro.sim.engine import RunResult, run_bsp

__all__ = ["BSPRuntime", "libcsr_partitions"]


def libcsr_partitions(machine: MachineSpec, nrows: int) -> int:
    """Block size giving one row chunk per core (the libcsr grain)."""
    return max(1, -(-nrows // machine.n_cores))


class BSPRuntime(Runtime):
    """Fork-join executor for the library baselines.

    Parameters
    ----------
    flavor:
        ``"libcsr"`` or ``"libcsb"`` — a label plus the expectation
        that the caller built the DAG at the matching granularity
        (one chunk per core for libcsr, CSB block size for libcsb).
    """

    default_options = BuildOptions(skip_empty=True, spmm_mode="dependency")

    def __init__(
        self,
        machine: MachineSpec,
        flavor: str = "libcsr",
        first_touch: bool = True,
        seed: int = 0,
        options: BuildOptions = None,
    ):
        if flavor not in ("libcsr", "libcsb", "bsp"):
            raise ValueError(f"unknown BSP flavor {flavor!r}")
        if options is None and flavor == "libcsr":
            # CSR storage: unrestricted gather span, and MKL spawns the
            # loop body for every row chunk (no empty-block skipping).
            options = BuildOptions(skip_empty=False, csr_storage=True)
        super().__init__(machine, first_touch, seed, options)
        self.flavor = flavor
        self.name = flavor

    def execute(self, dag, iterations: int = 1, tracer=None,
                record_flow: bool = True) -> RunResult:
        return run_bsp(
            self.machine,
            dag,
            iterations=iterations,
            first_touch=self.first_touch,
            flavor=self.flavor,
            record_flow=record_flow,
            tracer=tracer,
        )
