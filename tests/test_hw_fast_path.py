"""The device model's slice loops against the per-slice reference.

``SimulatedGpu`` advances each launch over plain floats, mutates one
power state in place and ``SimulatedCpu`` memoizes its power. The
reference below is the loop those replaced: a fresh
:class:`KernelLaunch` (validated) and a fresh power state per slice,
timed by a test-local copy of the roofline expression (a copy, so a
change to the shared definition cannot move both sides at once), and
a CPU that recomputes its power on every interval. Every result must
agree bit for bit: energies, temperature, per-kernel records, clock
transitions, the Fig. 9 frequency trace and every advanced interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import pytest

from repro.hardware import (
    GpuPerfModel,
    KernelLaunch,
    KernelRecord,
    SimulatedCpu,
    SimulatedGpu,
    VirtualClock,
)
from repro.systems import all_system_names, by_name
from repro.units import mhz


def _reference_phases(spec, kernel: KernelLaunch, clock_hz: float):
    """``(compute, memory)`` seconds, as the roofline was written."""
    if clock_hz <= 0.0:
        raise ValueError(f"clock must be positive, got {clock_hz!r}")
    eff = spec.kernel_efficiency(kernel.name)
    throughput = spec.fp_throughput * eff * (clock_hz / spec.max_clock_hz)
    compute = kernel.flops / throughput if kernel.flops > 0.0 else 0.0
    memory = (
        kernel.bytes_moved / spec.mem_bandwidth
        if kernel.bytes_moved > 0.0
        else 0.0
    )
    return compute, memory


@dataclass
class _ReferencePowerState:
    busy: bool
    clock_hz: float
    intensity: float
    voltage_margin_hz: float
    kernel_name: Optional[str]


class _ReferenceGpu(SimulatedGpu):
    """The per-slice loop: one launch and one power state per slice."""

    def __init__(self, spec, clock) -> None:
        super().__init__(spec, clock)
        self._set_idle_state()

    def execute(self, kernel: KernelLaunch) -> float:
        self._executing = True
        try:
            start = self._clock.now
            record = self._kernel_records.setdefault(
                kernel.name, KernelRecord(name=kernel.name)
            )
            if self.dvfs_active:
                self._governor.note_launch(kernel.power_intensity)
            if kernel.launch_overhead > 0.0:
                self._set_idle_state()
                self._clock.advance(kernel.launch_overhead)
            energy_before = self._energy_j
            busy = self._slices(kernel, governed=self.dvfs_active)
            self._set_idle_state()
            record.launches += 1
            record.busy_seconds += busy
            record.energy_joules += self._energy_j - energy_before
            record.flops += kernel.flops
            record.bytes_moved += kernel.bytes_moved
            return self._clock.now - start
        finally:
            self._executing = False

    def _slices(self, kernel: KernelLaunch, governed: bool) -> float:
        remaining_flops = kernel.flops
        remaining_bytes = kernel.bytes_moved
        busy_total = 0.0
        while remaining_flops > 1e-9 or remaining_bytes > 1e-9:
            clock_hz = self.current_clock_hz
            part = KernelLaunch(
                name=kernel.name,
                flops=remaining_flops,
                bytes_moved=remaining_bytes,
                power_intensity=kernel.power_intensity,
            )
            compute, memory = _reference_phases(self.spec, part, clock_hz)
            full = compute + memory
            if full <= 0.0:
                break
            if governed:
                dt = min(full, self._governor.quantum)
            else:
                near_limit = (
                    self._temp_c > self.spec.thermal.throttle_temp_c - 3.0
                )
                dt = min(full, self.THERMAL_SLICE_S) if near_limit else full
            frac = dt / full
            remaining_flops *= 1.0 - frac
            remaining_bytes *= 1.0 - frac
            self._state = _ReferencePowerState(
                busy=True,
                clock_hz=clock_hz,
                intensity=kernel.power_intensity,
                voltage_margin_hz=(
                    self._governor.voltage_margin_hz if governed else 0.0
                ),
                kernel_name=kernel.name,
            )
            self._clock.advance(dt)
            if governed:
                self._governor.observe_busy(dt, kernel.power_intensity)
                self._record_trace_point()
            busy_total += dt
        return busy_total

    def _set_idle_state(self) -> None:
        self._state = _ReferencePowerState(
            busy=False,
            clock_hz=self.current_clock_hz,
            intensity=0.0,
            voltage_margin_hz=0.0,
            kernel_name=None,
        )


class _ReferenceCpu(SimulatedCpu):
    """Package power recomputed on every interval (no memo)."""

    def power_w(self) -> float:
        return self.spec.power_w(self.activity, self.frequency_khz)


#: A step's worth of launches: (name, flops, bytes, intensity, overhead).
#: Mixes compute- and memory-bound work, a zero-work launch, launch
#: overheads, and the names LUMI-G gives non-unit efficiencies.
_LAUNCHES = (
    ("DomainDecompAndSync", 3.1e9, 5.7e9, 0.41, 1.5e-4),
    ("XMass", 4.4e11, 5.0e11, 0.6, 5e-6),
    ("IADVelocityDivCurl", 7.3e12, 5.8e11, 0.92, 5e-6),
    ("Gravity", 3.3e12, 2.1e11, 0.95, 0.0),
    ("MomentumEnergy", 1.4e13, 4.9e11, 1.0, 5e-6),
    ("Timestep", 0.0, 0.0, 0.45, 2e-5),
    ("UpdateQuantities", 2.7e11, 3.6e11, 0.5, 5e-6),
)


def _scenario(
    gpu, cpu, clocks_mhz, host_s: float, scale: float
) -> None:
    """Steps of launches, with clock and CPU changes between them."""
    for step, freq in enumerate(clocks_mhz):
        if freq is None:
            gpu.reset_application_clocks()
        else:
            gpu.set_application_clocks(gpu.spec.memory_clock_hz, mhz(freq))
        cpu.set_activity(0.12 + 0.11 * (step % 4))
        cpu.set_frequency_khz(2_450_000 - 150_000 * (step % 3))
        for name, flops, nbytes, intensity, overhead in _LAUNCHES:
            gpu.execute(
                KernelLaunch(
                    name,
                    flops * scale,
                    nbytes * scale,
                    intensity,
                    overhead,
                )
            )
            # Host tail: the device idles (the governor decays).
            gpu.clock.advance(host_s)


def _run(cls_gpu, cls_cpu, spec, cpu_spec, hot_c, clocks_mhz, host_s, scale):
    clock = VirtualClock()
    intervals: List[Tuple[float, float]] = []
    clock.subscribe(lambda t0, t1: intervals.append((t0, t1)))
    gpu = cls_gpu(spec, clock)
    cpu = cls_cpu(cpu_spec, clock)
    if hot_c is not None:
        state = gpu.state_dict()
        state["temp_c"] = hot_c
        gpu.restore_state(state)
    gpu.start_frequency_trace()
    _scenario(gpu, cpu, clocks_mhz, host_s, scale)
    return {
        "energy_j": gpu.energy_j,
        "temperature_c": gpu.temperature_c,
        "busy_s": gpu.busy_seconds,
        "records": [
            (name, vars(rec)) for name, rec in gpu.kernel_records.items()
        ],
        "transitions": gpu.clock_transitions,
        "governor_transitions": gpu.governor.transitions,
        "trace": gpu.stop_frequency_trace(),
        "intervals": intervals,
        "cpu_energy_j": cpu.energy_j,
        "now": clock.now,
    }


#: (system, start temperature, per-step clocks in MHz or None = DVFS,
#: host idle seconds, work scale).
_PATHS = {
    "pinned-minihpc": ("miniHPC", None, (1410, 1005, 1200, 1005), 0.002, 1.0),
    "pinned-lumi": ("LUMI-G", None, (1700, 1100, 1400, 800), 0.002, 1.0),
    "governed-minihpc": ("miniHPC", None, (None, None, None), 0.004, 0.2),
    "governed-lumi": ("LUMI-G", None, (None, 1300, None, None), 0.03, 0.2),
    # Near the throttle limit pinned launches run in THERMAL_SLICE_S
    # slices, re-reading the thermal cap as the die cools.
    "thermal-minihpc": ("miniHPC", 95.0, (1410, 1410, 1305), 0.05, 25.0),
}


@pytest.mark.parametrize("path", sorted(_PATHS))
def test_fast_path_matches_per_slice_reference_bit_for_bit(path):
    system_name, hot_c, clocks_mhz, host_s, scale = _PATHS[path]
    system = by_name(system_name)
    args = (
        system.gpu_spec, system.cpu_spec, hot_c, clocks_mhz, host_s, scale
    )
    fast = _run(SimulatedGpu, SimulatedCpu, *args)
    ref = _run(_ReferenceGpu, _ReferenceCpu, *args)
    for key in ref:
        assert fast[key] == ref[key], key
    # Not vacuous: the path under test really ran.
    if path.startswith("governed"):
        assert len(ref["trace"]) > 20
        assert ref["governor_transitions"] > 0
    if path.startswith("thermal"):
        slices = sum(
            1 for t0, t1 in ref["intervals"]
            if abs(t1 - t0 - SimulatedGpu.THERMAL_SLICE_S) < 1e-9
        )
        assert slices > 10
        assert min(hz for _, hz in ref["trace"]) < mhz(1305)


def test_timing_keeps_the_roofline_expression_on_every_shipped_spec():
    """``GpuPerfModel.timing`` is the reference expression, bit for bit,
    at every supported clock of every catalog system."""
    for system_name in all_system_names():
        spec = by_name(system_name).gpu_spec
        perf = GpuPerfModel(spec)
        for name, flops, nbytes, intensity, overhead in _LAUNCHES:
            kernel = KernelLaunch(name, flops, nbytes, intensity, overhead)
            for clock_hz in spec.supported_clocks_hz():
                timing = perf.timing(kernel, clock_hz)
                assert (
                    timing.compute_seconds,
                    timing.memory_seconds,
                ) == _reference_phases(spec, kernel, clock_hz)
                assert timing.overhead_seconds == overhead


def test_timing_rejects_a_non_positive_clock():
    perf = GpuPerfModel(by_name("miniHPC").gpu_spec)
    kernel = KernelLaunch("XMass", 1e9, 1e9)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="clock must be positive"):
            perf.timing(kernel, bad)
        with pytest.raises(ValueError, match="clock must be positive"):
            perf.phase_seconds(1e9, 1e9, bad, 1.0)


def test_cpu_power_memo_tracks_activity_and_frequency():
    system = by_name("miniHPC")
    cpu = SimulatedCpu(system.cpu_spec, VirtualClock())
    for activity in (0.12, 0.5, 0.12, 1.0):
        for freq in (2_450_000, 1_800_000, 2_450_000):
            cpu.set_activity(activity)
            cpu.set_frequency_khz(freq)
            assert cpu.power_w() == system.cpu_spec.power_w(activity, freq)
