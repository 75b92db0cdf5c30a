"""rocm-smi shim: card-level sensors over per-GCD devices."""

import pytest

from repro import rocm
from repro.hardware import KernelLaunch, SimulatedGpu, VirtualClock
from repro.systems import by_name
from repro.units import mhz


@pytest.fixture
def gcds():
    clk = VirtualClock()
    devices = [SimulatedGpu(by_name("LUMI-G").gpu_spec, clk, index=i) for i in range(4)]
    rocm.attach_devices(devices)
    rocm.rsmi_init()
    return devices


def test_uninitialized_raises():
    rocm.attach_devices([])
    rocm.rsmi_shut_down()
    with pytest.raises(rocm.RocmSmiError):
        rocm.rsmi_num_monitor_devices()


def test_device_enumeration(gcds):
    assert rocm.rsmi_num_monitor_devices() == 4
    assert "MI250X" in rocm.rsmi_dev_name_get(0)


def test_power_is_card_level(gcds):
    # GCDs 0 and 1 share a card: they report identical power.
    gcds[0].execute(KernelLaunch("K", 1e12, 0.0, 1.0))
    p0 = rocm.rsmi_dev_power_ave_get(0)
    p1 = rocm.rsmi_dev_power_ave_get(1)
    assert p0 == p1
    # And the card power is the sum of both GCDs' true draws.
    expected = (gcds[0].power_w() + gcds[1].power_w()) * 1e6
    assert p0 == pytest.approx(expected, abs=1.0)


def test_energy_counter_card_level_double_counts_if_summed(gcds):
    gcds[0].execute(KernelLaunch("K", 1e12, 0.0, 1.0))
    card_uj = rocm.rsmi_dev_energy_count_get(0)
    true_j = gcds[0].energy_j + gcds[1].energy_j
    assert card_uj == pytest.approx(true_j * 1e6, rel=1e-6)
    # Summing "per-device" readings over all 4 GCDs counts every card
    # twice — the paper's measurement pitfall (section III-B).
    naive_sum = sum(rocm.rsmi_dev_energy_count_get(i) for i in range(4))
    true_total = sum(g.energy_j for g in gcds) * 1e6
    assert naive_sum == pytest.approx(2.0 * true_total, rel=1e-6)


def test_clock_get_and_set_per_gcd(gcds):
    assert rocm.rsmi_dev_gpu_clk_freq_get(0, rocm.RSMI_CLK_TYPE_SYS) == int(
        mhz(1700)
    )
    rocm.rsmi_dev_gpu_clk_freq_set(0, rocm.RSMI_CLK_TYPE_SYS, mhz(1200))
    assert rocm.rsmi_dev_gpu_clk_freq_get(0, rocm.RSMI_CLK_TYPE_SYS) == int(
        mhz(1200)
    )
    # Clock control is per GCD: the sibling is untouched.
    assert rocm.rsmi_dev_gpu_clk_freq_get(1, rocm.RSMI_CLK_TYPE_SYS) == int(
        mhz(1700)
    )


def test_clock_reset_returns_to_governor(gcds):
    rocm.rsmi_dev_gpu_clk_freq_set(2, rocm.RSMI_CLK_TYPE_SYS, mhz(1000))
    rocm.rsmi_dev_gpu_clk_freq_reset(2)
    assert gcds[2].dvfs_active


def test_memory_clock_readable_not_settable(gcds):
    assert rocm.rsmi_dev_gpu_clk_freq_get(0, rocm.RSMI_CLK_TYPE_MEM) == int(
        mhz(1600)
    )
    with pytest.raises(rocm.RocmSmiError):
        rocm.rsmi_dev_gpu_clk_freq_set(0, rocm.RSMI_CLK_TYPE_MEM, mhz(1000))


def test_bad_index_raises(gcds):
    with pytest.raises(rocm.RocmSmiError):
        rocm.rsmi_dev_power_ave_get(9)


def test_gcds_per_card_topology(gcds):
    assert rocm.gcds_per_card(0) == 2


def test_status_string_unknown_code_formats_readably():
    assert rocm.rsmi_status_string(rocm.RSMI_STATUS_BUSY) == "Device Busy"
    assert rocm.rsmi_status_string(12345) == "unknown rsmi status 12345"
    assert rocm.rsmi_status_string(None) == "unknown rsmi status None"
    err = rocm.RocmSmiError(777)
    assert err.status == 777
    assert "unknown rsmi status 777" in str(err)
