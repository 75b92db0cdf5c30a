"""Simulated node hardware: clocks, GPUs, CPUs, power and DVFS models.

This package is the hardware substrate of the reproduction (DESIGN.md
§2): everything the paper measured on real A100 / MI250X nodes runs
here against calibrated performance and power response models on a
deterministic virtual clock.
"""

from .clock import ClockError, VirtualClock
from .cpu import SimulatedCpu
from .dvfs import DvfsGovernor, GovernorDecision
from .gpu import GpuError, SimulatedGpu
from .kernel import KernelLaunch, KernelRecord, merge_kernel_records
from .node import ComputeNode
from .perf_model import GpuPerfModel, KernelTiming
from .power_model import CpuPowerModel, GpuPowerModel, NodeAuxPowerModel
from .specs import (
    CpuSpec,
    ThermalSpec,
    GovernorSpec,
    GpuSpec,
    NodePowerSpec,
)

__all__ = [
    "ClockError",
    "VirtualClock",
    "SimulatedCpu",
    "DvfsGovernor",
    "GovernorDecision",
    "GpuError",
    "SimulatedGpu",
    "KernelLaunch",
    "KernelRecord",
    "merge_kernel_records",
    "ComputeNode",
    "GpuPerfModel",
    "KernelTiming",
    "CpuPowerModel",
    "GpuPowerModel",
    "NodeAuxPowerModel",
    "CpuSpec",
    "ThermalSpec",
    "GovernorSpec",
    "GpuSpec",
    "NodePowerSpec",
]
