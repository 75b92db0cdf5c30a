"""Cluster assembly: nodes, rank placement, device attachment.

A :class:`Cluster` instantiates the simulated hardware for ``n_ranks``
MPI ranks on a Table-I system: one GPU/GCD and one rank-local clock per
rank, whole nodes of ``ranks_per_node`` devices, a
:class:`~repro.mpi.SimComm` wired with the node topology, pm_counters
emulation on HPE/Cray systems, and the vendor management library
(NVML or ROCm SMI) attached to this process so instrumentation code
can reach the devices exactly as it would on the real machine.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .. import nvml, rocm
from ..craypm import PmCounters
from ..hardware.clock import VirtualClock
from ..hardware.gpu import SimulatedGpu
from ..hardware.node import ComputeNode
from ..mpi import SimComm
from ..units import mhz
from .presets import SystemConfig


class Cluster:
    """Simulated allocation of ``n_ranks`` ranks on ``system`` nodes."""

    def __init__(
        self,
        system: SystemConfig,
        n_ranks: int,
        attach_management_library: bool = True,
    ) -> None:
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        if n_ranks % system.ranks_per_node not in (0,) and n_ranks > system.ranks_per_node:
            raise ValueError(
                f"{n_ranks} ranks do not fill whole {system.name} nodes "
                f"of {system.ranks_per_node}"
            )
        self.system = system
        self.n_ranks = n_ranks
        self.clocks: List[VirtualClock] = [VirtualClock() for _ in range(n_ranks)]
        self.gpus: List[SimulatedGpu] = []
        self.nodes: List[ComputeNode] = []
        self.node_of_rank: List[int] = []
        self.pm_counters: List[PmCounters] = []

        rpn = min(system.ranks_per_node, n_ranks)
        n_nodes = (n_ranks + system.ranks_per_node - 1) // system.ranks_per_node
        rank = 0
        for node_idx in range(n_nodes):
            node_gpus: List[SimulatedGpu] = []
            node_rpn = min(rpn, n_ranks - rank)
            lead_clock = self.clocks[rank]
            for local in range(node_rpn):
                gpu = SimulatedGpu(
                    system.gpu_spec, self.clocks[rank], index=local
                )
                node_gpus.append(gpu)
                self.gpus.append(gpu)
                self.node_of_rank.append(node_idx)
                rank += 1
            node = ComputeNode(
                name=f"{system.name.lower()}-node{node_idx:04d}",
                clock=lead_clock,
                cpu_spec=system.cpu_spec,
                power_spec=system.node_power,
                gpus=node_gpus,
            )
            self.nodes.append(node)
            if system.has_pm_counters:
                self.pm_counters.append(PmCounters(node))

        self.comm = SimComm(
            self.clocks,
            model=system.comm_model,
            node_of_rank=self.node_of_rank,
        )
        if attach_management_library:
            self.attach_management_library()

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def gpu_of_rank(self, rank: int) -> SimulatedGpu:
        return self.gpus[rank]

    def node_of(self, rank: int) -> ComputeNode:
        return self.nodes[self.node_of_rank[rank]]

    def local_rank(self, rank: int) -> int:
        """Node-local index of ``rank`` (its GPU/GCD slot)."""
        node = self.node_of_rank[rank]
        return rank - self.node_of_rank.index(node)

    def ranks_on_node(self, node_idx: int) -> List[int]:
        return [r for r, n in enumerate(self.node_of_rank) if n == node_idx]

    def card_of_rank(self, rank: int) -> int:
        """Physical accelerator card index (node-local) driven by ``rank``.

        On MI250X two consecutive ranks share a card; the analysis layer
        uses this to de-duplicate card-level power readings (§III-B).
        """
        gcds = self.node_of(rank).gcds_per_card
        return self.local_rank(rank) // gcds

    # ------------------------------------------------------------------
    # Management library / frequency control
    # ------------------------------------------------------------------

    def attach_management_library(self) -> None:
        """Expose the devices via the vendor's management library
        (NVML, ROCm SMI or Level Zero Sysman), as on the real node."""
        from .. import levelzero

        vendor = self.system.gpu_spec.vendor
        if vendor == "nvidia":
            nvml.attach_devices(
                self.gpus,
                allow_clock_control=self.system.allow_user_freq_control,
            )
            nvml.nvmlInit()
        elif vendor == "amd":
            rocm.attach_devices(self.gpus)
            rocm.rsmi_init()
        elif vendor == "intel":
            levelzero.attach_devices(self.gpus)
            levelzero.zesInit()
        else:  # pragma: no cover - specs only carry known vendors
            raise ValueError(f"unknown GPU vendor {vendor!r}")

    def detach_management_library(self) -> None:
        from .. import levelzero

        vendor = self.system.gpu_spec.vendor
        if vendor == "nvidia":
            nvml.detach_devices()
        elif vendor == "amd":
            rocm.detach_devices()
        else:
            levelzero.detach_devices()

    def apply_gpu_frequency_mhz(self, freq_mhz: float) -> None:
        """Pin every device's application clocks (Slurm ``--gpu-freq``)."""
        for gpu in self.gpus:
            gpu.set_application_clocks(
                gpu.spec.memory_clock_hz, mhz(freq_mhz), charge_latency=False
            )

    def reset_gpu_frequency(self) -> None:
        """Hand every device back to its DVFS governor."""
        for gpu in self.gpus:
            gpu.reset_application_clocks()

    def apply_cpu_frequency_khz(self, freq_khz: int) -> None:
        """Set every node's CPU clock (Slurm ``--cpu-freq``)."""
        for node in self.nodes:
            node.cpu.set_frequency_khz(freq_khz)

    def cpu_slowdown_factor(self, rank: int) -> float:
        """Host-phase slowdown of the node hosting ``rank``."""
        return self.node_of(rank).cpu.slowdown_factor

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Complete hardware state of the allocation.

        Valid at step boundaries (no kernel executing, no open
        measurement); the per-rank clocks, devices, node accumulators,
        comm statistics and pm_counters emulation all round-trip.
        """
        return {
            "system": self.system.name,
            "n_ranks": self.n_ranks,
            "clocks": [c.state_dict() for c in self.clocks],
            "gpus": [g.state_dict() for g in self.gpus],
            "nodes": [n.state_dict() for n in self.nodes],
            "comm_stats": self.comm.stats.state_dict(),
            "pm_counters": [p.state_dict() for p in self.pm_counters],
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        if state["system"] != self.system.name:
            raise ValueError(
                f"checkpoint is for system {state['system']!r}, "
                f"not {self.system.name!r}"
            )
        if int(state["n_ranks"]) != self.n_ranks:
            raise ValueError(
                f"checkpoint has {state['n_ranks']} ranks, "
                f"cluster has {self.n_ranks}"
            )
        for clock, s in zip(self.clocks, state["clocks"]):
            clock.restore_state(s)
        for gpu, s in zip(self.gpus, state["gpus"]):
            gpu.restore_state(s)
        for node, s in zip(self.nodes, state["nodes"]):
            node.restore_state(s)
        self.comm.stats.restore_state(state["comm_stats"])
        for pm, s in zip(self.pm_counters, state["pm_counters"]):
            pm.restore_state(s)

    # ------------------------------------------------------------------
    # Energy accounting
    # ------------------------------------------------------------------

    def total_node_energy_j(self) -> float:
        """Whole-allocation energy (all nodes, all devices)."""
        return sum(node.node_energy_j for node in self.nodes)

    def total_gpu_energy_j(self) -> float:
        return sum(g.energy_j for g in self.gpus)

    def device_energy_breakdown_j(self) -> Dict[str, float]:
        """Fig. 4 style per-device-class totals over the allocation."""
        totals = {"GPU": 0.0, "CPU": 0.0, "Memory": 0.0, "Other": 0.0}
        for node in self.nodes:
            for key, value in node.device_energy_breakdown_j().items():
                totals[key] += value
        return totals

    def elapsed_s(self) -> float:
        """Latest rank-local time (ranks synchronize at collectives)."""
        return max(c.now for c in self.clocks)

    def synchronize(self) -> None:
        """Barrier helper used at phase boundaries."""
        self.comm.barrier()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Cluster({self.system.name!r}, ranks={self.n_ranks}, "
            f"nodes={self.n_nodes})"
        )
