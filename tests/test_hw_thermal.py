"""Thermal model: temperature dynamics and clock throttling."""

import dataclasses

import pytest

from repro import nvml
from repro.hardware import (
    KernelLaunch,
    SimulatedGpu,
    ThermalSpec,
    VirtualClock,
)
from repro.systems import by_name
from repro.units import mhz, to_mhz


def _hot_spec():
    """An A100 with constrained cooling: full power exceeds the limit."""
    base = by_name("miniHPC").gpu_spec
    return dataclasses.replace(
        base,
        thermal=ThermalSpec(
            ambient_c=35.0,
            resistance_c_per_w=0.24,  # steady state at 250 W: 95 C
            tau_s=5.0,
            throttle_temp_c=88.0,
        ),
    )


def test_idle_device_stays_at_ambient():
    gpu = SimulatedGpu(by_name("CSCS-A100").gpu_spec, VirtualClock())
    gpu.clock.advance(100.0)
    # Idle draw warms the die a little above ambient, far below limit.
    assert gpu.temperature_c < 45.0
    assert not gpu.thermal_throttle_active


def test_temperature_rises_under_load_toward_steady_state():
    gpu = SimulatedGpu(by_name("CSCS-A100").gpu_spec, VirtualClock())
    spec = gpu.spec
    k = KernelLaunch("K", flops=5e13, bytes_moved=0.0, power_intensity=1.0)
    t0 = gpu.temperature_c
    gpu.execute(k)  # ~5 s at full power
    assert gpu.temperature_c > t0
    steady = spec.thermal.steady_state_c(spec.max_power_w)
    assert gpu.temperature_c < steady + 1e-9
    # Long sustained load approaches (but does not exceed) steady state.
    for _ in range(20):
        gpu.execute(k)
    assert gpu.temperature_c == pytest.approx(steady, abs=1.0)


def test_stock_presets_never_throttle_at_full_power():
    for system in ("CSCS-A100", "miniHPC"):
        spec = by_name(system).gpu_spec
        steady = spec.thermal.steady_state_c(spec.max_power_w)
        assert steady < spec.thermal.throttle_temp_c


def test_temperature_cools_when_idle():
    gpu = SimulatedGpu(by_name("CSCS-A100").gpu_spec, VirtualClock())
    k = KernelLaunch("K", flops=5e13, bytes_moved=0.0, power_intensity=1.0)
    for _ in range(10):
        gpu.execute(k)
    hot = gpu.temperature_c
    gpu.clock.advance(200.0)
    assert gpu.temperature_c < hot


def test_constrained_cooling_triggers_throttling():
    gpu = SimulatedGpu(_hot_spec(), VirtualClock())
    k = KernelLaunch("K", flops=2e13, bytes_moved=0.0, power_intensity=1.0)
    for _ in range(30):
        gpu.execute(k)
    assert gpu.temperature_c > gpu.spec.thermal.throttle_temp_c
    assert gpu.thermal_throttle_active
    assert gpu.current_clock_hz < gpu.spec.max_clock_hz
    # The throttled clock is still a supported bin.
    assert gpu.current_clock_hz in gpu.spec.supported_clocks_hz()


def test_throttling_slows_execution():
    cool = SimulatedGpu(by_name("miniHPC").gpu_spec, VirtualClock())
    hot = SimulatedGpu(_hot_spec(), VirtualClock())
    k = KernelLaunch("K", flops=2e13, bytes_moved=0.0, power_intensity=1.0)
    d_cool = sum(cool.execute(k) for _ in range(30))
    d_hot = sum(hot.execute(k) for _ in range(30))
    assert d_hot > d_cool * 1.02


def test_downclocking_avoids_throttling():
    gpu = SimulatedGpu(_hot_spec(), VirtualClock())
    gpu.set_application_clocks(gpu.spec.memory_clock_hz, mhz(1005))
    k = KernelLaunch("K", flops=2e13, bytes_moved=0.0, power_intensity=1.0)
    for _ in range(30):
        gpu.execute(k)
    # At 1005 MHz the power (and thus temperature) stays below the limit.
    assert not gpu.thermal_throttle_active
    assert to_mhz(gpu.current_clock_hz) == 1005.0


def test_throttle_cap_floor():
    spec = ThermalSpec(throttle_temp_c=80.0, throttle_mhz_per_c=100.0)
    cap = spec.throttle_cap_hz(200.0, mhz(1410))
    assert cap == pytest.approx(0.3 * mhz(1410))


def test_nvml_reports_model_temperature():
    clk = VirtualClock()
    gpu = SimulatedGpu(by_name("CSCS-A100").gpu_spec, clk)
    nvml.attach_devices([gpu])
    nvml.nvmlInit()
    h = nvml.nvmlDeviceGetHandleByIndex(0)
    gpu.execute(KernelLaunch("K", 5e13, 0.0, 1.0))
    reported = nvml.nvmlDeviceGetTemperature(h, nvml.NVML_TEMPERATURE_GPU)
    assert reported == int(round(gpu.temperature_c))
