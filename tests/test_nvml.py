"""pynvml-compatible API surface over simulated devices."""

import pytest

from repro import nvml
from repro.hardware import KernelLaunch, SimulatedGpu, VirtualClock
from repro.systems import by_name
from repro.units import mhz


@pytest.fixture
def devices():
    clk = VirtualClock()
    gpus = [SimulatedGpu(by_name("CSCS-A100").gpu_spec, clk, index=i) for i in range(2)]
    nvml.attach_devices(gpus)
    nvml.nvmlInit()
    return gpus


def test_uninitialized_calls_raise():
    nvml.attach_devices([])
    with pytest.raises(nvml.NVMLError) as exc:
        nvml.nvmlDeviceGetCount()
    assert exc.value.value == nvml.NVML_ERROR_UNINITIALIZED


def test_device_count_and_handles(devices):
    assert nvml.nvmlDeviceGetCount() == 2
    h = nvml.nvmlDeviceGetHandleByIndex(1)
    assert nvml.nvmlDeviceGetIndex(h) == 1
    assert "A100" in nvml.nvmlDeviceGetName(h)


def test_bad_index_raises(devices):
    with pytest.raises(nvml.NVMLError) as exc:
        nvml.nvmlDeviceGetHandleByIndex(7)
    assert exc.value.value == nvml.NVML_ERROR_INVALID_ARGUMENT


def test_clock_info_in_mhz(devices):
    h = nvml.nvmlDeviceGetHandleByIndex(0)
    assert nvml.nvmlDeviceGetClockInfo(h, nvml.NVML_CLOCK_GRAPHICS) == 1410
    assert nvml.nvmlDeviceGetClockInfo(h, nvml.NVML_CLOCK_MEM) == 1593
    assert nvml.nvmlDeviceGetMaxClockInfo(h, nvml.NVML_CLOCK_SM) == 1410


def test_supported_graphics_clocks_descending(devices):
    h = nvml.nvmlDeviceGetHandleByIndex(0)
    mem = nvml.nvmlDeviceGetSupportedMemoryClocks(h)[0]
    clocks = nvml.nvmlDeviceGetSupportedGraphicsClocks(h, mem)
    assert clocks[0] == 1410
    assert clocks == sorted(clocks, reverse=True)
    assert 1005 in clocks


def test_set_applications_clocks(devices):
    h = nvml.nvmlDeviceGetHandleByIndex(0)
    nvml.nvmlDeviceSetApplicationsClocks(h, 1593, 1005)
    assert nvml.nvmlDeviceGetClockInfo(h, nvml.NVML_CLOCK_GRAPHICS) == 1005
    assert (
        nvml.nvmlDeviceGetApplicationsClock(h, nvml.NVML_CLOCK_GRAPHICS) == 1005
    )


def test_set_unsupported_clock_rejected(devices):
    h = nvml.nvmlDeviceGetHandleByIndex(0)
    with pytest.raises(nvml.NVMLError):
        nvml.nvmlDeviceSetApplicationsClocks(h, 1593, 1007)
    with pytest.raises(nvml.NVMLError):
        nvml.nvmlDeviceSetApplicationsClocks(h, 1200, 1005)


def test_reset_applications_clocks_enables_governor(devices):
    h = nvml.nvmlDeviceGetHandleByIndex(0)
    nvml.nvmlDeviceResetApplicationsClocks(h)
    assert devices[0].dvfs_active


def test_clock_control_permission_denied():
    clk = VirtualClock()
    gpus = [SimulatedGpu(by_name("CSCS-A100").gpu_spec, clk)]
    nvml.attach_devices(gpus, allow_clock_control=False)
    nvml.nvmlInit()
    h = nvml.nvmlDeviceGetHandleByIndex(0)
    with pytest.raises(nvml.NVMLError) as exc:
        nvml.nvmlDeviceSetApplicationsClocks(h, 1593, 1005)
    assert exc.value.value == nvml.NVML_ERROR_NO_PERMISSION


def test_power_and_energy_counters(devices):
    h = nvml.nvmlDeviceGetHandleByIndex(0)
    devices[0].execute(KernelLaunch("K", 1e12, 0.0, 1.0))
    mj = nvml.nvmlDeviceGetTotalEnergyConsumption(h)
    assert mj == pytest.approx(devices[0].energy_j * 1000.0, abs=1.0)
    mw = nvml.nvmlDeviceGetPowerUsage(h)
    assert mw > 0
    limit = nvml.nvmlDeviceGetEnforcedPowerLimit(h)
    assert limit == 400_000


def test_utilization_and_temperature(devices):
    h = nvml.nvmlDeviceGetHandleByIndex(0)
    util = nvml.nvmlDeviceGetUtilizationRates(h)
    assert 0 <= util.gpu <= 100
    temp = nvml.nvmlDeviceGetTemperature(h, nvml.NVML_TEMPERATURE_GPU)
    assert 20 < temp < 100


def test_rank_to_device_helper(devices):
    h = nvml.get_nvml_device_for_rank(1)
    assert nvml.nvmlDeviceGetIndex(h) == 1


def test_supported_clock_window(devices):
    h = nvml.nvmlDeviceGetHandleByIndex(0)
    window = nvml.supported_clock_window_mhz(h, 1005, 1410)
    assert window[0] == 1410 and window[-1] == 1005
    assert len(window) == 28  # (1410-1005)/15 + 1


def test_shutdown_reference_counting(devices):
    nvml.nvmlInit()  # second init
    nvml.nvmlShutdown()
    nvml.nvmlDeviceGetCount()  # still initialized
    nvml.nvmlShutdown()
    with pytest.raises(nvml.NVMLError):
        nvml.nvmlDeviceGetCount()


def test_error_strings():
    assert nvml.nvmlErrorString(nvml.NVML_SUCCESS) == "Success"


def test_error_string_unknown_code_formats_readably():
    # Codes outside the table (future drivers, fault injection) must
    # degrade to a readable message, never a KeyError mid-error-path.
    assert nvml.nvmlErrorString(12345) == "unknown error code 12345"
    assert nvml.nvmlErrorString(-1) == "unknown error code -1"
    # Unhashable garbage degrades the same way instead of raising.
    assert nvml.nvmlErrorString([3]) == "unknown error code [3]"


def test_nvml_error_carries_code_and_readable_message():
    err = nvml.NVMLError(nvml.NVML_ERROR_GPU_IS_LOST)
    assert err.value == nvml.NVML_ERROR_GPU_IS_LOST
    assert "GPU is lost" in str(err)
    exotic = nvml.NVMLError(777)
    assert "unknown error code 777" in str(exotic)
