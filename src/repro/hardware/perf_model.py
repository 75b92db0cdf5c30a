"""Kernel performance model.

The model is the classic *serial roofline* ("leading loads") form: a
kernel's duration is the sum of a compute phase, whose throughput
scales linearly with the graphics clock, and a memory phase, which is
pinned to the (never rescaled) memory clock:

    t(f) = FLOPs / (T_fp * eff * f / f_max)  +  bytes / BW  +  overhead

This yields exactly the frequency response the paper measures: a kernel
with compute-bound fraction kappa at the reference clock slows down by
``kappa * (f_max / f - 1)`` when down-clocked, so compute-heavy kernels
(MomentumEnergy, IADVelocityDivCurl) pay > 20 % at 1005 MHz while
lightweight kernels barely notice (Fig. 8a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .kernel import KernelLaunch
from .specs import GpuSpec


@dataclass(frozen=True)
class KernelTiming:
    """Breakdown of one launch's duration at a given clock."""

    compute_seconds: float
    memory_seconds: float
    overhead_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.memory_seconds + self.overhead_seconds

    @property
    def compute_fraction(self) -> float:
        """Fraction of the duration that scales with the graphics clock."""
        total = self.total_seconds
        if total <= 0.0:
            return 0.0
        return self.compute_seconds / total


class GpuPerfModel:
    """Maps (kernel work, graphics clock) -> duration for one device."""

    def __init__(self, spec: GpuSpec) -> None:
        self._spec = spec

    @property
    def spec(self) -> GpuSpec:
        return self._spec

    def timing(self, kernel: KernelLaunch, clock_hz: float) -> KernelTiming:
        """Duration breakdown of ``kernel`` at graphics clock ``clock_hz``."""
        compute, memory = self.phase_seconds(
            kernel.flops,
            kernel.bytes_moved,
            clock_hz,
            self._spec.kernel_efficiency(kernel.name),
        )
        return KernelTiming(
            compute_seconds=compute,
            memory_seconds=memory,
            overhead_seconds=kernel.launch_overhead,
        )

    def phase_seconds(
        self, flops: float, bytes_moved: float, clock_hz: float, eff: float
    ) -> Tuple[float, float]:
        """``(compute, memory)`` seconds of the given work at ``clock_hz``.

        The one definition of the roofline: :meth:`timing` and the
        device's per-slice loop both call it. ``eff`` is the kernel's
        :meth:`~repro.hardware.specs.GpuSpec.kernel_efficiency`, which a
        caller advancing one launch over many slices looks up once.
        """
        spec = self._spec
        if clock_hz <= 0.0:
            raise ValueError(f"clock must be positive, got {clock_hz!r}")
        throughput = spec.fp_throughput * eff * (clock_hz / spec.max_clock_hz)
        compute = flops / throughput if flops > 0.0 else 0.0
        memory = bytes_moved / spec.mem_bandwidth if bytes_moved > 0.0 else 0.0
        return compute, memory

    def duration(self, kernel: KernelLaunch, clock_hz: float) -> float:
        """Total duration of ``kernel`` at ``clock_hz`` in seconds."""
        return self.timing(kernel, clock_hz).total_seconds

    def compute_fraction(self, kernel: KernelLaunch, clock_hz: float) -> float:
        """Frequency-sensitive fraction kappa of the kernel at ``clock_hz``."""
        return self.timing(kernel, clock_hz).compute_fraction

    def slowdown(self, kernel: KernelLaunch, clock_hz: float) -> float:
        """Duration at ``clock_hz`` relative to the device's max clock."""
        ref = self.duration(kernel, self._spec.max_clock_hz)
        if ref <= 0.0:
            return 1.0
        return self.duration(kernel, clock_hz) / ref
