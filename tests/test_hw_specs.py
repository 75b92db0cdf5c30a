"""Shipped device specs (through the catalog) and clock quantization."""

import pytest
from hypothesis import given, strategies as st

from repro.hardware import GpuSpec
from repro.systems import by_name
from repro.units import mhz, to_mhz


def test_a100_sxm_clock_range_matches_table1():
    spec = by_name("CSCS-A100").gpu_spec
    assert to_mhz(spec.max_clock_hz) == 1410.0
    assert to_mhz(spec.memory_clock_hz) == 1593.0
    assert spec.vendor == "nvidia"
    assert spec.gcds_per_card == 1


def test_mi250x_matches_table1():
    spec = by_name("LUMI-G").gpu_spec
    assert to_mhz(spec.max_clock_hz) == 1700.0
    assert to_mhz(spec.memory_clock_hz) == 1600.0
    assert spec.vendor == "amd"
    assert spec.gcds_per_card == 2


def test_supported_clocks_descending_and_within_range():
    spec = by_name("CSCS-A100").gpu_spec
    clocks = spec.supported_clocks_hz()
    assert clocks[0] == spec.max_clock_hz
    assert clocks[-1] >= spec.min_clock_hz
    assert all(a > b for a, b in zip(clocks, clocks[1:]))
    # A100: 210..1410 in 15 MHz bins -> 81 clocks.
    assert len(clocks) == 81


def test_quantize_snaps_to_nearest_bin():
    spec = by_name("CSCS-A100").gpu_spec
    assert to_mhz(spec.quantize_clock_hz(mhz(1004.0))) == 1005.0
    assert to_mhz(spec.quantize_clock_hz(mhz(1012.0))) == 1005.0
    assert to_mhz(spec.quantize_clock_hz(mhz(1013.0))) == 1020.0


def test_quantize_clamps_out_of_range():
    spec = by_name("CSCS-A100").gpu_spec
    assert spec.quantize_clock_hz(mhz(5000.0)) == spec.max_clock_hz
    assert spec.quantize_clock_hz(mhz(1.0)) == spec.min_clock_hz


@given(st.floats(min_value=1.0, max_value=5000.0))
def test_quantize_always_returns_supported_clock(req_mhz):
    spec = by_name("CSCS-A100").gpu_spec
    q = spec.quantize_clock_hz(mhz(req_mhz))
    assert q in spec.supported_clocks_hz()


def test_dynamic_power_positive_for_all_presets():
    for system in ("CSCS-A100", "miniHPC", "LUMI-G"):
        assert by_name(system).gpu_spec.dynamic_power_w > 0


def test_invalid_spec_rejected():
    spec = by_name("CSCS-A100").gpu_spec
    with pytest.raises(ValueError):
        GpuSpec(
            name="bad",
            vendor="nvidia",
            min_clock_hz=mhz(1000),
            max_clock_hz=mhz(500),
            clock_step_hz=mhz(15),
            default_clock_hz=mhz(500),
            memory_clock_hz=mhz(1593),
            idle_power_w=50,
            max_power_w=400,
            power_exponent=1.5,
            fp_throughput=1e12,
            mem_bandwidth=1e12,
            memory_bytes=1e9,
        )


def test_kernel_efficiency_defaults_to_one():
    spec = by_name("CSCS-A100").gpu_spec
    assert spec.kernel_efficiency("MomentumEnergy") == 1.0
    amd = by_name("LUMI-G").gpu_spec
    assert amd.kernel_efficiency("MomentumEnergy") < 1.0
    assert amd.kernel_efficiency("UnknownKernel") == 1.0


def test_cpu_power_interpolates_between_idle_and_active():
    cpu = by_name("CSCS-A100").cpu_spec
    assert cpu.power_w(0.0) == cpu.idle_power_w
    assert cpu.power_w(1.0) == cpu.active_power_w
    mid = cpu.power_w(0.5)
    assert cpu.idle_power_w < mid < cpu.active_power_w


def test_cpu_presets_core_counts():
    assert by_name("CSCS-A100").cpu_spec.cores == 64
    assert by_name("LUMI-G").cpu_spec.cores == 64
    assert by_name("miniHPC").cpu_spec.cores == 56
