"""The system record and its resolver.

Each :class:`SystemConfig` bundles the node hardware (GPU/CPU specs,
memory + auxiliary power), the topology (ranks == GCDs per node), the
energy-measurement backend available to users on that system, and
whether the centre lets users change GPU clocks (only miniHPC does,
which is why the paper's frequency studies run there, §IV-C).

Every system is defined by a spec file in the hardware catalog
(:mod:`repro.catalog`, docs/catalog.md); :func:`by_name` resolves one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hardware.specs import CpuSpec, GpuSpec, NodePowerSpec
from ..mpi.timing import CommModel


@dataclass(frozen=True)
class SystemConfig:
    """One system: hardware, topology, measurement stack."""

    name: str
    gpu_spec: GpuSpec
    cpu_spec: CpuSpec
    node_power: NodePowerSpec
    #: MPI ranks (= GPUs or GCDs) per node.
    ranks_per_node: int
    #: PMT backend users reach: "cray", "nvml", "rocm" or "levelzero".
    pmt_backend: str
    #: Slurm acct_gather_energy plugin: "pm_counters", "ipmi" or "rapl".
    slurm_energy_plugin: str
    #: Whether users may change GPU application clocks (miniHPC only).
    allow_user_freq_control: bool
    comm_model: CommModel = field(default_factory=CommModel)

    @property
    def has_pm_counters(self) -> bool:
        """HPE/Cray-built systems expose /sys/cray/pm_counters."""
        return self.slurm_energy_plugin == "pm_counters"


def by_name(name: str) -> SystemConfig:
    """Resolve a system by catalog name or spec-file reference.

    A thin resolver over :func:`repro.catalog.resolve_system`: shipped
    and user spec files (including ``path:<file>`` references) resolve
    here. The catalog import is lazy to keep ``repro.systems``
    importable from ``repro.catalog`` without a cycle.
    """
    from ..catalog import resolve_system

    return resolve_system(name)


def all_system_names() -> tuple:
    """Names of every resolvable catalog system.

    The single source for "known systems" lists in error messages —
    campaign spec validation and the resolver's unknown-name error
    both quote this.
    """
    from ..catalog import known_system_names

    return known_system_names()
