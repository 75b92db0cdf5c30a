"""The simulated GPU device.

:class:`SimulatedGpu` executes :class:`~repro.hardware.kernel.KernelLaunch`
work units on a :class:`~repro.hardware.clock.VirtualClock`, integrating
board energy exactly (power is piecewise constant over every advanced
interval). The device runs in one of two clock-management modes:

* **application clocks** — pinned to a supported bin via
  :meth:`set_application_clocks` (what the paper's static and ManDyn
  strategies do through NVML);
* **governor** — the built-in DVFS model of
  :class:`~repro.hardware.dvfs.DvfsGovernor` decides the clock.

The device keeps per-kernel aggregate records, counts clock
transitions, and can record a frequency trace (time, clock) for the
Fig. 9 reproduction.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from .clock import VirtualClock
from .dvfs import DvfsGovernor
from .kernel import KernelLaunch, KernelRecord
from .perf_model import GpuPerfModel
from .power_model import GpuPowerModel
from .specs import GpuSpec


class GpuError(RuntimeError):
    """Raised on invalid device operations (bad clocks, re-entrancy...)."""


class _PowerState:
    """Instantaneous power-relevant device state.

    One instance per device, mutated in place at every transition. The
    kernel fields (clock, intensity, voltage margin) describe the
    resident kernel and are read only while ``busy``.
    """

    __slots__ = ("busy", "clock_hz", "intensity", "voltage_margin_hz")

    def __init__(self) -> None:
        self.busy = False
        self.clock_hz = 0.0
        self.intensity = 0.0
        self.voltage_margin_hz = 0.0


class SimulatedGpu:
    """One GPU (or one MI250X GCD) attached to a rank-local clock."""

    #: Simulated latency of one application-clock change (NVML call +
    #: clock relock). Paid by static/ManDyn policies on every change.
    CLOCK_SET_LATENCY_S = 0.003

    def __init__(
        self, spec: GpuSpec, clock: VirtualClock, index: int = 0
    ) -> None:
        self.spec = spec
        self.index = index
        self._clock = clock
        self._perf = GpuPerfModel(spec)
        self._power = GpuPowerModel(spec)
        self._governor = DvfsGovernor(spec)
        self._app_clock_hz: Optional[float] = spec.default_clock_hz
        self._memory_clock_hz: float = spec.memory_clock_hz
        self._temp_c = spec.thermal.ambient_c
        self._state = _PowerState()
        self._energy_j = 0.0
        self._busy_seconds = 0.0
        self._kernel_records: Dict[str, KernelRecord] = {}
        self._clock_transitions = 0
        self._trace: Optional[List[Tuple[float, float]]] = None
        self._busy_intervals: List[Tuple[float, float]] = []
        self._executing = False
        clock.subscribe(self._on_advance)

    # ------------------------------------------------------------------
    # Clock management
    # ------------------------------------------------------------------

    @property
    def clock(self) -> VirtualClock:
        """The rank-local simulated clock this device integrates over."""
        return self._clock

    @property
    def perf_model(self) -> GpuPerfModel:
        return self._perf

    @property
    def power_model(self) -> GpuPowerModel:
        return self._power

    @property
    def governor(self) -> DvfsGovernor:
        return self._governor

    @property
    def application_clock_hz(self) -> Optional[float]:
        """Pinned application graphics clock, or ``None`` under DVFS."""
        return self._app_clock_hz

    @property
    def memory_clock_hz(self) -> float:
        return self._memory_clock_hz

    @property
    def current_clock_hz(self) -> float:
        """Graphics clock the device is running at right now.

        Thermal throttling caps the requested clock (pinned or
        governor-selected) when the die is above the throttle limit.
        """
        requested = (
            self._app_clock_hz
            if self._app_clock_hz is not None
            else self._governor.clock_hz
        )
        cap = self.spec.thermal.throttle_cap_hz(
            self._temp_c, self.spec.max_clock_hz
        )
        if cap >= requested:
            return requested
        return self.spec.quantize_clock_hz(cap)

    @property
    def temperature_c(self) -> float:
        """Current die temperature, degC."""
        return self._temp_c

    @property
    def thermal_throttle_active(self) -> bool:
        """True when the thermal cap is limiting the requested clock."""
        requested = (
            self._app_clock_hz
            if self._app_clock_hz is not None
            else self._governor.clock_hz
        )
        return self.current_clock_hz < requested

    @property
    def clock_transitions(self) -> int:
        """Application-clock changes performed (ManDyn switch count)."""
        return self._clock_transitions

    def set_application_clocks(
        self, memory_hz: float, graphics_hz: float, charge_latency: bool = True
    ) -> float:
        """Pin application clocks, as ``nvmlDeviceSetApplicationsClocks``.

        The requested graphics clock is snapped to the nearest supported
        bin. Returns the clock actually set. Changing the clock costs
        :data:`CLOCK_SET_LATENCY_S` of simulated time unless the device
        is already at the requested bin.
        """
        if self._executing:
            raise GpuError("cannot change application clocks mid-kernel")
        quantized = self.spec.quantize_clock_hz(graphics_hz)
        self._memory_clock_hz = memory_hz
        if self._app_clock_hz == quantized:
            return quantized
        self._app_clock_hz = quantized
        self._clock_transitions += 1
        if charge_latency:
            self._clock.advance(self.CLOCK_SET_LATENCY_S)
        self._record_trace_point()
        return quantized

    def reset_application_clocks(self) -> None:
        """Unpin application clocks; the DVFS governor takes over."""
        if self._executing:
            raise GpuError("cannot change application clocks mid-kernel")
        if self._app_clock_hz is not None:
            self._app_clock_hz = None
            self._clock_transitions += 1
            self._record_trace_point()

    @property
    def dvfs_active(self) -> bool:
        """True when the governor (not pinned clocks) controls the device."""
        return self._app_clock_hz is None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, kernel: KernelLaunch) -> float:
        """Execute one kernel, advancing simulated time.

        Returns the total duration in seconds (launch overhead plus
        device busy time). Energy is integrated into the device total
        and attributed to the kernel's :class:`KernelRecord`.
        """
        if self._executing:
            raise GpuError("device is already executing a kernel")
        self._executing = True
        try:
            start = self._clock.now
            name = kernel.name
            record = self._kernel_records.get(name)
            if record is None:
                record = self._kernel_records[name] = KernelRecord(name=name)
            governed = self.dvfs_active
            if governed:
                self._governor.note_launch(kernel.power_intensity)
            if kernel.launch_overhead > 0.0:
                # Host-side launch latency: device not yet busy.
                self._set_idle_state()
                self._clock.advance(kernel.launch_overhead)
            energy_before = self._energy_j
            eff = self.spec.kernel_efficiency(name)
            if governed:
                busy = self._execute_governed(kernel, eff)
            else:
                busy = self._execute_pinned(kernel, eff)
            self._set_idle_state()
            record.launches += 1
            record.busy_seconds += busy
            record.energy_joules += self._energy_j - energy_before
            record.flops += kernel.flops
            record.bytes_moved += kernel.bytes_moved
            return self._clock.now - start
        finally:
            self._executing = False

    #: Slice length for re-evaluating thermal caps during pinned kernels.
    THERMAL_SLICE_S = 0.25

    # The slice loops advance plain floats: each slice leaves
    # ``remaining *= 1 - frac`` of the work with ``0 < frac <= 1``, so
    # the work stays non-negative without re-validating a launch.

    def _execute_pinned(self, kernel: KernelLaunch, eff: float) -> float:
        remaining_flops = kernel.flops
        remaining_bytes = kernel.bytes_moved
        intensity = kernel.power_intensity
        phase_seconds = self._perf.phase_seconds
        throttle_near_c = self.spec.thermal.throttle_temp_c - 3.0
        state = self._state
        busy_total = 0.0
        while remaining_flops > 1e-9 or remaining_bytes > 1e-9:
            clock_hz = self.current_clock_hz  # thermal cap applies
            compute, memory = phase_seconds(
                remaining_flops, remaining_bytes, clock_hz, eff
            )
            full = compute + memory
            if full <= 0.0:
                break
            # Full-slice execution unless the die is near the throttle
            # limit, where the cap must be re-evaluated frequently.
            near_limit = self._temp_c > throttle_near_c
            dt = min(full, self.THERMAL_SLICE_S) if near_limit else full
            frac = dt / full
            remaining_flops *= 1.0 - frac
            remaining_bytes *= 1.0 - frac
            state.busy = True
            state.clock_hz = clock_hz
            state.intensity = intensity
            state.voltage_margin_hz = 0.0
            self._clock.advance(dt)
            busy_total += dt
        return busy_total

    def _execute_governed(self, kernel: KernelLaunch, eff: float) -> float:
        remaining_flops = kernel.flops
        remaining_bytes = kernel.bytes_moved
        intensity = kernel.power_intensity
        phase_seconds = self._perf.phase_seconds
        governor = self._governor
        quantum = governor.quantum
        state = self._state
        busy_total = 0.0
        while remaining_flops > 1e-9 or remaining_bytes > 1e-9:
            clock_hz = self.current_clock_hz  # governor + thermal cap
            compute, memory = phase_seconds(
                remaining_flops, remaining_bytes, clock_hz, eff
            )
            full = compute + memory
            if full <= 0.0:
                break
            dt = min(full, quantum)
            frac = dt / full
            remaining_flops *= 1.0 - frac
            remaining_bytes *= 1.0 - frac
            state.busy = True
            state.clock_hz = clock_hz
            state.intensity = intensity
            state.voltage_margin_hz = governor.voltage_margin_hz
            self._clock.advance(dt)
            governor.observe_busy(dt, intensity)
            self._record_trace_point()
            busy_total += dt
        return busy_total

    def _set_idle_state(self) -> None:
        self._state.busy = False

    # ------------------------------------------------------------------
    # Power / energy accounting
    # ------------------------------------------------------------------

    def power_w(self) -> float:
        """Instantaneous board power for the current state."""
        s = self._state
        if s.busy:
            return self._power.busy_power_w(
                s.clock_hz, s.intensity, s.voltage_margin_hz
            )
        if self.dvfs_active:
            residency = self._governor.residency_intensity
            if residency > 0.0:
                return self._power.busy_power_w(
                    self._governor.clock_hz,
                    residency,
                    self._governor.voltage_margin_hz,
                )
            return self._power.idle_power_w(self._governor.clock_hz)
        return self._power.idle_power_w(self.current_clock_hz)

    def _on_advance(self, t0: float, t1: float) -> None:
        dt = t1 - t0
        power = self.power_w()
        self._energy_j += power * dt
        # First-order thermal relaxation toward the steady state at the
        # interval's (constant) power draw.
        thermal = self.spec.thermal
        t_ss = thermal.steady_state_c(power)
        decay = math.exp(-dt / thermal.tau_s)
        self._temp_c = t_ss + (self._temp_c - t_ss) * decay
        if self._state.busy:
            self._busy_seconds += dt
            self._busy_intervals.append((t0, t1))
        elif self.dvfs_active and not self._executing:
            # External idle time (host phases, MPI waits): the governor
            # observes it and decays its clock (Fig. 9 end-of-step dips).
            self._governor.observe_idle(dt)
            self._record_trace_point(at=t1)

    @property
    def energy_j(self) -> float:
        """Cumulative board energy since construction, joules."""
        return self._energy_j

    @property
    def busy_seconds(self) -> float:
        """Cumulative device-busy seconds since construction."""
        return self._busy_seconds

    @property
    def kernel_records(self) -> Dict[str, KernelRecord]:
        """Per-kernel aggregate statistics (by kernel name)."""
        return self._kernel_records

    def utilization(self, window_s: float = 1.0) -> float:
        """Busy fraction over the trailing ``window_s`` of simulated time.

        This mirrors the coarse device utilization NVML reports, which
        the paper (and [25]) note is an overestimate of real occupancy —
        it counts *any* kernel-resident time as utilized.
        """
        if window_s <= 0:
            raise ValueError("window must be positive")
        now = self._clock.now
        lo = now - window_s
        busy = 0.0
        # Prune intervals that fell out of every plausible window.
        while self._busy_intervals and self._busy_intervals[0][1] < now - 10.0 * window_s:
            self._busy_intervals.pop(0)
        for a, b in self._busy_intervals:
            if b <= lo:
                continue
            busy += b - max(a, lo)
        span = min(window_s, now) or 1.0
        return min(busy / span, 1.0)

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Checkpointable device state (valid at kernel boundaries only).

        The instantaneous ``_PowerState`` is not stored: at a step
        boundary the device is idle, so restore resets it via
        :meth:`_set_idle_state`. The Fig. 9 frequency trace is a debug
        aid and deliberately not checkpointed. Busy intervals older
        than every plausible utilization window are pruned, mirroring
        what :meth:`utilization` would discard anyway.
        """
        if self._executing:
            raise RuntimeError("cannot checkpoint a GPU mid-kernel")
        now = self._clock.now
        # As an ndarray, not nested lists: utilization windows retain
        # thousands of intervals at SPH timestep scale, and raw-byte
        # array transport keeps the snapshot's JSON walk off them.
        intervals = np.array(
            [[a, b] for a, b in self._busy_intervals if b >= now - 10.0],
            dtype=np.float64,
        ).reshape(-1, 2)
        return {
            "app_clock_hz": self._app_clock_hz,
            "memory_clock_hz": self._memory_clock_hz,
            "temp_c": self._temp_c,
            "energy_j": self._energy_j,
            "busy_seconds": self._busy_seconds,
            "clock_transitions": self._clock_transitions,
            "busy_intervals": intervals,
            "governor": self._governor.state_dict(),
            "kernel_records": {
                name: {
                    "launches": rec.launches,
                    "busy_seconds": rec.busy_seconds,
                    "energy_joules": rec.energy_joules,
                    "flops": rec.flops,
                    "bytes_moved": rec.bytes_moved,
                }
                for name, rec in self._kernel_records.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        app_clock = state["app_clock_hz"]
        self._app_clock_hz = None if app_clock is None else float(app_clock)
        self._memory_clock_hz = float(state["memory_clock_hz"])
        self._temp_c = float(state["temp_c"])
        self._energy_j = float(state["energy_j"])
        self._busy_seconds = float(state["busy_seconds"])
        self._clock_transitions = int(state["clock_transitions"])
        self._busy_intervals = [
            (float(a), float(b)) for a, b in np.asarray(
                state["busy_intervals"]
            ).reshape(-1, 2)
        ]
        self._governor.restore_state(state["governor"])
        self._kernel_records = {}
        for name, rec in state["kernel_records"].items():
            record = KernelRecord(name=name)
            record.launches = int(rec["launches"])
            record.busy_seconds = float(rec["busy_seconds"])
            record.energy_joules = float(rec["energy_joules"])
            record.flops = float(rec["flops"])
            record.bytes_moved = float(rec["bytes_moved"])
            self._kernel_records[name] = record
        self._set_idle_state()

    # ------------------------------------------------------------------
    # Frequency tracing (Fig. 9)
    # ------------------------------------------------------------------

    def start_frequency_trace(self) -> None:
        """Begin recording (time, clock) samples at every clock event."""
        self._trace = [(self._clock.now, self.current_clock_hz)]

    def stop_frequency_trace(self) -> List[Tuple[float, float]]:
        """Stop recording and return the trace."""
        trace = self._trace or []
        self._trace = None
        return trace

    def _record_trace_point(self, at: Optional[float] = None) -> None:
        if self._trace is not None:
            t = self._clock.now if at is None else at
            hz = self.current_clock_hz
            if not self._trace or self._trace[-1][1] != hz or self._trace[-1][0] != t:
                self._trace.append((t, hz))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "dvfs" if self.dvfs_active else "pinned"
        return (
            f"SimulatedGpu({self.spec.name!r}, index={self.index}, mode={mode}, "
            f"clock={self.current_clock_hz / 1e6:.0f} MHz, "
            f"energy={self._energy_j:.1f} J)"
        )
