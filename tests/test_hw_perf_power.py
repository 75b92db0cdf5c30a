"""Performance and power model responses to frequency."""

import pytest
from hypothesis import given, strategies as st

from repro.hardware import GpuPerfModel, GpuPowerModel, KernelLaunch
from repro.systems import by_name
from repro.units import mhz


@pytest.fixture
def perf():
    return GpuPerfModel(by_name("CSCS-A100").gpu_spec)


@pytest.fixture
def power():
    return GpuPowerModel(by_name("CSCS-A100").gpu_spec)


def _kernel(flops=1e12, nbytes=1e11, intensity=1.0):
    return KernelLaunch("K", flops, nbytes, intensity)


def test_compute_time_scales_inversely_with_clock(perf):
    k = KernelLaunch("K", flops=1e12, bytes_moved=0.0)
    t_full = perf.duration(k, mhz(1410))
    t_half = perf.duration(k, mhz(705))
    assert t_half == pytest.approx(2.0 * t_full)


def test_memory_time_is_clock_independent(perf):
    k = KernelLaunch("K", flops=0.0, bytes_moved=1e11)
    assert perf.duration(k, mhz(1410)) == pytest.approx(
        perf.duration(k, mhz(705))
    )


def test_mixed_kernel_slowdown_follows_kappa(perf):
    k = _kernel()
    kappa = perf.compute_fraction(k, mhz(1410))
    slow = perf.slowdown(k, mhz(1005))
    expected = 1.0 + kappa * (1410.0 / 1005.0 - 1.0)
    assert slow == pytest.approx(expected, rel=1e-6)


def test_arch_efficiency_slows_named_kernels():
    amd = GpuPerfModel(by_name("LUMI-G").gpu_spec)
    mom = KernelLaunch("MomentumEnergy", flops=1e12, bytes_moved=0.0)
    other = KernelLaunch("XMass", flops=1e12, bytes_moved=0.0)
    f = by_name("LUMI-G").gpu_spec.max_clock_hz
    assert amd.duration(mom, f) > amd.duration(other, f)


def test_zero_clock_rejected(perf):
    with pytest.raises(ValueError):
        perf.duration(_kernel(), 0.0)


def test_busy_power_at_max_clock_full_intensity_is_tdp(power):
    spec = by_name("CSCS-A100").gpu_spec
    p = power.busy_power_w(spec.max_clock_hz, 1.0)
    assert p == pytest.approx(spec.max_power_w)


def test_busy_power_decreases_with_clock(power):
    spec = by_name("CSCS-A100").gpu_spec
    assert power.busy_power_w(mhz(1005), 1.0) < power.busy_power_w(
        spec.max_clock_hz, 1.0
    )


def test_busy_power_increases_with_intensity(power):
    f = mhz(1410)
    assert power.busy_power_w(f, 0.3) < power.busy_power_w(f, 0.9)


def test_voltage_margin_raises_power_up_to_cap(power):
    f = mhz(1200)
    base = power.busy_power_w(f, 0.8)
    margined = power.busy_power_w(f, 0.8, voltage_margin_hz=mhz(150))
    assert margined > base
    capped = power.busy_power_w(mhz(1410), 0.8, voltage_margin_hz=mhz(500))
    assert capped == pytest.approx(power.busy_power_w(mhz(1410), 0.8))


def test_idle_power_below_busy_and_clock_dependent(power):
    spec = by_name("CSCS-A100").gpu_spec
    idle_hi = power.idle_power_w(spec.max_clock_hz)
    idle_lo = power.idle_power_w(spec.min_clock_hz)
    assert idle_lo < idle_hi <= spec.idle_power_w
    assert idle_hi < power.busy_power_w(spec.max_clock_hz, 0.1)


def test_invalid_intensity_rejected(power):
    with pytest.raises(ValueError):
        power.busy_power_w(mhz(1410), 1.5)


@given(
    st.floats(min_value=210.0, max_value=1410.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_power_bounded_by_idle_and_tdp(f_mhz, intensity):
    power = GpuPowerModel(by_name("CSCS-A100").gpu_spec)
    spec = by_name("CSCS-A100").gpu_spec
    p = power.busy_power_w(mhz(f_mhz), intensity)
    assert spec.idle_power_w <= p <= spec.max_power_w + 1e-9


@given(st.floats(min_value=210.0, max_value=1409.0))
def test_power_monotone_in_clock(f_mhz):
    power = GpuPowerModel(by_name("CSCS-A100").gpu_spec)
    assert power.busy_power_w(mhz(f_mhz), 1.0) <= power.busy_power_w(
        mhz(f_mhz + 1.0), 1.0
    )


def test_kernel_launch_validation():
    with pytest.raises(ValueError):
        KernelLaunch("K", flops=-1.0, bytes_moved=0.0)
    with pytest.raises(ValueError):
        KernelLaunch("K", flops=0.0, bytes_moved=0.0, power_intensity=2.0)
    with pytest.raises(ValueError):
        KernelLaunch("K", flops=0.0, bytes_moved=0.0, launch_overhead=-1.0)


def test_kernel_scaled_halves_work():
    k = KernelLaunch("K", flops=10.0, bytes_moved=20.0)
    half = k.scaled(0.5)
    assert half.flops == 5.0 and half.bytes_moved == 10.0
    assert half.name == "K"
