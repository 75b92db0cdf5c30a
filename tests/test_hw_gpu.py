"""SimulatedGpu: execution, energy integration, clocks, tracing."""

import pytest

from repro.hardware import GpuError, KernelLaunch, SimulatedGpu, VirtualClock
from repro.systems import by_name
from repro.units import mhz, to_mhz


def _kernel(name="MomentumEnergy", flops=1e12, nbytes=1e11, intensity=1.0):
    return KernelLaunch(name, flops, nbytes, intensity)


def test_execute_advances_clock_by_duration(a100):
    d = a100.execute(_kernel())
    assert d > 0
    assert a100.clock.now == pytest.approx(d)


def test_energy_equals_power_times_time_pinned(a100):
    k = _kernel()
    d = a100.execute(k)
    # Full-intensity kernel at max clock draws exactly TDP while busy.
    assert a100.energy_j == pytest.approx(a100.spec.max_power_w * d, rel=1e-9)


def test_downclock_slows_and_saves_energy(a100):
    k = _kernel()
    d0 = a100.execute(k)
    e0 = a100.energy_j
    a100.set_application_clocks(a100.spec.memory_clock_hz, mhz(1005))
    e_before = a100.energy_j
    d1 = a100.execute(k)
    e1 = a100.energy_j - e_before
    assert d1 > d0
    assert e1 < e0


def test_set_application_clocks_quantizes_and_counts(a100):
    set_hz = a100.set_application_clocks(a100.spec.memory_clock_hz, mhz(1007))
    assert to_mhz(set_hz) == 1005.0
    assert a100.clock_transitions == 1
    # Same bin again: no transition, no latency.
    t = a100.clock.now
    a100.set_application_clocks(a100.spec.memory_clock_hz, mhz(1005))
    assert a100.clock_transitions == 1
    assert a100.clock.now == t


def test_clock_set_charges_latency(a100):
    t0 = a100.clock.now
    a100.set_application_clocks(a100.spec.memory_clock_hz, mhz(1200))
    assert a100.clock.now == pytest.approx(t0 + SimulatedGpu.CLOCK_SET_LATENCY_S)


def test_reset_application_clocks_enables_dvfs(a100):
    assert not a100.dvfs_active
    a100.reset_application_clocks()
    assert a100.dvfs_active
    assert a100.application_clock_hz is None


def test_idle_energy_accrues_on_external_advance(a100):
    a100.clock.advance(1.0)
    assert 0 < a100.energy_j <= a100.spec.idle_power_w * 1.0 + 1e-9


def test_kernel_records_accumulate(a100):
    k = _kernel()
    a100.execute(k)
    a100.execute(k)
    rec = a100.kernel_records["MomentumEnergy"]
    assert rec.launches == 2
    assert rec.flops == pytest.approx(2e12)
    assert rec.energy_joules == pytest.approx(a100.energy_j, rel=1e-9)
    assert rec.busy_seconds == pytest.approx(a100.busy_seconds)


def test_launch_overhead_draws_idle_power(a100):
    k = KernelLaunch("K", flops=0.0, bytes_moved=0.0, launch_overhead=0.5)
    d = a100.execute(k)
    assert d == pytest.approx(0.5)
    assert a100.energy_j <= a100.spec.idle_power_w * 0.5 + 1e-9
    assert a100.busy_seconds == 0.0


def test_governed_execution_tracks_governor_clock(a100):
    a100.reset_application_clocks()
    a100.execute(_kernel(intensity=1.0))
    # Full-intensity kernel boosts the governor to max clock.
    assert to_mhz(a100.current_clock_hz) == 1410.0


def test_governed_idle_decays_clock(a100):
    a100.reset_application_clocks()
    a100.execute(_kernel())
    busy_clock = a100.current_clock_hz
    a100.clock.advance(2.0)
    assert a100.current_clock_hz < busy_clock


def test_frequency_trace_records_points(a100):
    a100.reset_application_clocks()
    a100.start_frequency_trace()
    a100.execute(_kernel())
    a100.clock.advance(1.0)
    trace = a100.stop_frequency_trace()
    assert len(trace) >= 2
    times = [t for t, _ in trace]
    assert times == sorted(times)
    # Tracing stops cleanly.
    assert a100.stop_frequency_trace() == []


def test_utilization_reflects_busy_fraction(a100):
    a100.execute(_kernel(flops=5e12, nbytes=0.0))  # ~0.5s busy
    a100.clock.advance(0.5)
    u = a100.utilization(window_s=1.0)
    assert 0.3 < u < 0.8


def test_cannot_change_clocks_mid_kernel(a100):
    # Simulate re-entrancy guard via the private flag.
    a100._executing = True
    with pytest.raises(GpuError):
        a100.set_application_clocks(a100.spec.memory_clock_hz, mhz(1005))
    with pytest.raises(GpuError):
        a100.execute(_kernel())
    a100._executing = False


def test_two_gpus_on_one_clock_both_integrate():
    clk = VirtualClock()
    g1 = SimulatedGpu(by_name("CSCS-A100").gpu_spec, clk, index=0)
    g2 = SimulatedGpu(by_name("CSCS-A100").gpu_spec, clk, index=1)
    g1.execute(_kernel())
    # g2 idles while g1 runs (shared clock).
    assert g2.energy_j > 0
    assert g2.busy_seconds == 0.0
    assert g1.busy_seconds > 0
