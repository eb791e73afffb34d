"""Machine topology: cores, sockets, NUMA domains, cache geometry, rates.

A :class:`MachineSpec` is a frozen description of one node.  Timing
constants are per-cache-line transfer costs (seconds/line) rather than
load-to-use latencies: the simulator charges bandwidth-style amortized
costs, which is the right regime for the streaming sparse kernels the
paper studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["MachineSpec", "CoreInfo"]


@dataclass(frozen=True)
class CoreInfo:
    """Static identity of one core within the node."""

    core_id: int
    socket: int
    numa_domain: int
    l3_group: int


@dataclass(frozen=True)
class MachineSpec:
    """One node of the evaluation testbed.

    Attributes
    ----------
    name:
        Preset name (``"broadwell"``, ``"epyc"``).
    n_cores, n_sockets, n_numa_domains:
        Topology counts; cores are split evenly.
    l1_size, l2_size:
        Per-core data-cache capacities in bytes.
    l3_size:
        Capacity of one L3 slice in bytes.
    l3_group_cores:
        Cores sharing one L3 slice (14 on Broadwell = whole socket;
        4 on EPYC = one CCX).
    ghz:
        Core clock.
    flops_per_cycle:
        Peak double-precision FLOPs per cycle per core.
    l2_line_cost, l3_line_cost, dram_line_cost:
        Seconds to bring one 64-byte line from that level (amortized).
    numa_penalty:
        Multiplier on ``dram_line_cost`` for remote-domain accesses.
    """

    name: str
    n_cores: int
    n_sockets: int
    n_numa_domains: int
    l1_size: int
    l2_size: int
    l3_size: int
    l3_group_cores: int
    ghz: float
    flops_per_cycle: float = 8.0
    l2_line_cost: float = 1.2e-9
    l3_line_cost: float = 3.0e-9
    dram_line_cost: float = 13.0e-9
    numa_penalty: float = 2.0

    def __post_init__(self):
        if self.n_cores % self.n_sockets:
            raise ValueError("cores must divide evenly into sockets")
        if self.n_cores % self.n_numa_domains:
            raise ValueError("cores must divide evenly into NUMA domains")
        if self.n_cores % self.l3_group_cores:
            raise ValueError("cores must divide evenly into L3 groups")

    # ------------------------------------------------------------------
    @property
    def cores_per_socket(self) -> int:
        return self.n_cores // self.n_sockets

    @property
    def cores_per_domain(self) -> int:
        return self.n_cores // self.n_numa_domains

    @property
    def n_l3_groups(self) -> int:
        return self.n_cores // self.l3_group_cores

    def core(self, core_id: int) -> CoreInfo:
        """Topology coordinates of a core."""
        if not 0 <= core_id < self.n_cores:
            raise IndexError(f"core {core_id} out of range on {self.name}")
        return CoreInfo(
            core_id,
            core_id // self.cores_per_socket,
            core_id // self.cores_per_domain,
            core_id // self.l3_group_cores,
        )

    def domain_of_core(self, core_id: int) -> int:
        return core_id // self.cores_per_domain

    def l3_group_of_core(self, core_id: int) -> int:
        return core_id // self.l3_group_cores

    def cores(self):
        """All cores in id order."""
        return [self.core(i) for i in range(self.n_cores)]

    @property
    def peak_flops(self) -> float:
        """Node peak DP FLOP/s."""
        return self.n_cores * self.ghz * 1e9 * self.flops_per_cycle
