"""Device specifications: the dataclasses a system's hardware is built from.

The numbers here are the *calibration layer* of the reproduction
(DESIGN.md §5): device peak throughputs, power envelopes, supported
clock bins and the voltage/frequency power exponent. The paper's
results come out of the models fed with these constants; nothing
downstream hard-codes a result.

The values for each machine live in the hardware catalog's spec files
(:mod:`repro.catalog`, docs/catalog.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..units import mhz


@dataclass(frozen=True)
class GovernorSpec:
    """Parameters of the device's built-in DVFS governor model.

    The governor model is behavioural (DESIGN.md §8): it reproduces the
    frequency traces measured on an A100 in the paper's Fig. 9 rather
    than any vendor's register-level implementation.
    """

    #: Governor decision quantum in seconds.
    quantum: float = 0.010
    #: Lowest clock the governor will select while the device is active.
    active_floor_hz: float = mhz(930.0)
    #: Clock selected after a long fully-idle period.
    idle_clock_hz: float = mhz(210.0)
    #: EWMA smoothing factor per quantum for the utilization estimate.
    ewma: float = 0.55
    #: Utilization attributed to a quantum that merely *contains* kernel
    #: launches, regardless of achieved occupancy. Models the
    #: launch-counting over-estimation of GPU utilization ([25], §IV-E).
    launch_presence_floor: float = 0.55
    #: Extra clock headroom the governor requests above the utilization
    #: target right after a launch burst (boost behaviour).
    boost_hz: float = mhz(120.0)
    #: Voltage-margin penalty: under governor control the device holds a
    #: voltage corresponding to ``f + margin`` to allow fast boosting,
    #: which costs energy relative to pinned application clocks.
    voltage_margin_hz: float = mhz(150.0)
    #: Energy cost of one frequency transition, joules.
    transition_energy_j: float = 0.015


@dataclass(frozen=True)
class ThermalSpec:
    """First-order thermal model of a GPU package.

    Die temperature relaxes toward the steady state
    ``T_ss = ambient + resistance * P`` with time constant ``tau``;
    above ``throttle_temp_c`` the device caps its clock, shedding
    ``throttle_mhz_per_c`` per degree of excess — the standard
    behaviour instrumented codes must coexist with on air-cooled
    nodes (miniHPC's PCIE cards, unlike the SXM/OAM water-cooled
    parts of the large systems).
    """

    #: Inlet/ambient temperature, degC.
    ambient_c: float = 30.0
    #: Steady-state degC per watt of board power.
    resistance_c_per_w: float = 0.135
    #: Thermal time constant, seconds.
    tau_s: float = 20.0
    #: Clock-capping threshold, degC.
    throttle_temp_c: float = 88.0
    #: Clock cap reduction per degC above the threshold, MHz.
    throttle_mhz_per_c: float = 30.0

    def steady_state_c(self, power_w: float) -> float:
        """Equilibrium die temperature at constant ``power_w``."""
        return self.ambient_c + self.resistance_c_per_w * power_w

    def throttle_cap_hz(self, temp_c: float, max_clock_hz: float) -> float:
        """Maximum clock permitted at ``temp_c`` (no cap below limit)."""
        if temp_c <= self.throttle_temp_c:
            return max_clock_hz
        excess = temp_c - self.throttle_temp_c
        return max(
            max_clock_hz - excess * self.throttle_mhz_per_c * 1.0e6,
            0.3 * max_clock_hz,
        )


@dataclass(frozen=True)
class GpuSpec:
    """Static description of a (simulated) GPU or GPU complex die.

    Attributes
    ----------
    name, vendor:
        Marketing name and ``"nvidia"`` / ``"amd"``.
    min_clock_hz, max_clock_hz, clock_step_hz:
        Supported graphics-clock range and bin size
        (A100: 210..1410 MHz in 15 MHz bins).
    default_clock_hz:
        Application clock the HPC centre pins by default (Table I).
    memory_clock_hz:
        Memory clock; the paper never changes it and neither do we.
    idle_power_w / max_power_w:
        Idle draw and board power at max clock under a full-intensity
        kernel. ``dynamic power = max_power_w - idle_power_w``.
    power_exponent:
        alpha in ``P = P_idle + i * P_dyn * (f / f_max) ** alpha``.
        ~1.7 over the 1005-1410 MHz window where voltage scales weakly
        (calibrated to the paper's -13 % / -19 % kernel energies).
    fp_throughput:
        Effective double-precision FLOP/s at ``max_clock_hz``.
    mem_bandwidth:
        Memory bandwidth, bytes/s (frequency independent here; memory
        clocks are never scaled).
    memory_bytes:
        Device memory capacity (caps particles per GPU, §IV-C).
    gcds_per_card:
        GPU complex dies per physical card; power sensors report per
        *card* (MI250X: 2), which creates the LUMI-G accounting quirk.
    arch_efficiency:
        Per-kernel efficiency multipliers on ``fp_throughput``; models
        e.g. MomentumEnergy being poorly optimized for AMD GCDs
        (45.8 % of GPU energy on LUMI-G vs 25.3 % on CSCS-A100, §IV-B).
    governor:
        DVFS governor behaviour parameters.
    """

    name: str
    vendor: str
    min_clock_hz: float
    max_clock_hz: float
    clock_step_hz: float
    default_clock_hz: float
    memory_clock_hz: float
    idle_power_w: float
    max_power_w: float
    power_exponent: float
    fp_throughput: float
    mem_bandwidth: float
    memory_bytes: float
    gcds_per_card: int = 1
    arch_efficiency: Dict[str, float] = field(default_factory=dict)
    governor: GovernorSpec = field(default_factory=GovernorSpec)
    thermal: ThermalSpec = field(default_factory=ThermalSpec)

    def __post_init__(self) -> None:
        if self.min_clock_hz > self.max_clock_hz:
            raise ValueError("min_clock_hz must not exceed max_clock_hz")
        if self.clock_step_hz <= 0:
            raise ValueError("clock_step_hz must be positive")
        if self.idle_power_w >= self.max_power_w:
            raise ValueError("idle power must be below max power")

    @property
    def dynamic_power_w(self) -> float:
        """Dynamic power envelope: max minus idle draw."""
        return self.max_power_w - self.idle_power_w

    def supported_clocks_hz(self) -> Tuple[float, ...]:
        """All supported graphics clocks, descending (as NVML reports)."""
        clocks = []
        c = self.max_clock_hz
        while c >= self.min_clock_hz - 1e-6:
            clocks.append(round(c, 3))
            c -= self.clock_step_hz
        return tuple(clocks)

    def quantize_clock_hz(self, requested_hz: float) -> float:
        """Snap a requested clock to the nearest supported bin (clamped)."""
        clamped = min(max(requested_hz, self.min_clock_hz), self.max_clock_hz)
        steps = round((clamped - self.min_clock_hz) / self.clock_step_hz)
        return min(
            self.min_clock_hz + steps * self.clock_step_hz, self.max_clock_hz
        )

    def kernel_efficiency(self, kernel_name: str) -> float:
        """Per-kernel architecture efficiency multiplier (default 1.0)."""
        return self.arch_efficiency.get(kernel_name, 1.0)


@dataclass(frozen=True)
class CpuSpec:
    """Static description of a (simulated) host CPU package group.

    SPH-EXA runs entirely on the GPU; the host CPUs mostly idle and burn
    near-constant power proportional to wall time (paper §IV-B), with a
    modest bump while driving kernel launches or MPI progress.

    CPU frequency scaling (Slurm ``--cpu-freq``, §II-B; cf. ARCHER2's
    centre-wide down-clocking [24]) scales the dynamic power share as
    ``(f / f_nominal) ** 1.8`` and slows host-side phases by
    ``f_nominal / f``.
    """

    name: str
    sockets: int
    cores_per_socket: int
    idle_power_w: float
    active_power_w: float
    memory_gib: float
    nominal_freq_khz: int = 2_450_000
    min_freq_khz: int = 1_500_000

    #: Exponent of the dynamic-power response to CPU frequency.
    POWER_EXPONENT = 1.8

    @property
    def cores(self) -> int:
        return self.sockets * self.cores_per_socket

    def power_w(self, activity: float, freq_khz: "int | None" = None) -> float:
        """Package power at ``activity`` in [0, 1] and clock ``freq_khz``."""
        a = min(max(activity, 0.0), 1.0)
        f = self.clamp_freq_khz(freq_khz or self.nominal_freq_khz)
        ratio = f / self.nominal_freq_khz
        dynamic = a * (self.active_power_w - self.idle_power_w)
        idle = self.idle_power_w * (0.75 + 0.25 * ratio)
        return idle + dynamic * ratio**self.POWER_EXPONENT

    def clamp_freq_khz(self, freq_khz: int) -> int:
        """Clamp a requested clock to the supported range."""
        return int(
            min(max(freq_khz, self.min_freq_khz), self.nominal_freq_khz)
        )


@dataclass(frozen=True)
class NodePowerSpec:
    """Non-CPU/GPU node power: DIMMs, NIC, fans, VRM/PSU losses.

    The paper reports these as *Memory* (LUMI-G only exposes it
    separately) and *Other* — the second most energy-hungry slice after
    the GPUs (Fig. 4).
    """

    memory_power_w: float
    aux_power_w: float
