"""FaultInjector mechanics: patching, triggers, sensors, determinism."""

from __future__ import annotations

import pytest

from repro import nvml, rocm
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    JobPreempted,
    OP_PMT_READ,
    preemption_after_steps,
)
from repro.hardware import SimulatedGpu, VirtualClock
from repro.nvml import NVML_ERROR_GPU_IS_LOST, NVML_ERROR_TIMEOUT, NVMLError
from repro.pmt import PMT, PowerReadError, State
from repro.rocm import RSMI_STATUS_BUSY, RocmSmiError
from repro.systems import by_name


class ConstantPowerPMT(PMT):
    """Test sensor: a perfect counter integrating constant watts."""

    platform = "test"

    def __init__(self, clock: VirtualClock, watts: float = 100.0) -> None:
        self._clock = clock
        self._watts = watts

    def read(self) -> State:
        t = self._clock.now
        return State(timestamp_s=t, joules=self._watts * t, watts=self._watts)


@pytest.fixture
def device():
    clock = VirtualClock()
    gpu = SimulatedGpu(by_name("CSCS-A100").gpu_spec, clock)
    nvml.attach_devices([gpu])
    nvml.nvmlInit()
    return gpu


def _set_clock(index: int = 0, mhz: int = 1410) -> None:
    handle = nvml.nvmlDeviceGetHandleByIndex(index)
    mem = nvml.nvmlDeviceGetSupportedMemoryClocks(handle)[0]
    nvml.nvmlDeviceSetApplicationsClocks(handle, mem, mhz)


def test_install_uninstall_restores_package_attributes(device):
    original = nvml.nvmlDeviceSetApplicationsClocks
    injector = FaultInjector(FaultPlan())
    injector.install()
    assert nvml.nvmlDeviceSetApplicationsClocks is not original
    injector.uninstall()
    assert nvml.nvmlDeviceSetApplicationsClocks is original


def test_install_is_reference_counted(device):
    original = nvml.nvmlDeviceSetApplicationsClocks
    injector = FaultInjector(FaultPlan())
    injector.install()
    injector.install()
    injector.uninstall()
    assert nvml.nvmlDeviceSetApplicationsClocks is not original
    injector.uninstall()
    assert nvml.nvmlDeviceSetApplicationsClocks is original
    # Extra uninstalls are harmless.
    injector.uninstall()


def test_empty_plan_passes_calls_through(device):
    with FaultInjector(FaultPlan()):
        _set_clock()
    assert device.application_clock_hz == pytest.approx(1410e6)


def test_after_calls_trigger_strikes_on_nth_call(device):
    plan = FaultPlan().add(
        FaultSpec(
            op="nvmlDeviceSetApplicationsClocks",
            kind=FaultKind.GPU_IS_LOST,
            after_calls=3,
        )
    )
    injector = FaultInjector(plan)
    with injector:
        _set_clock(mhz=1410)
        _set_clock(mhz=1395)
        with pytest.raises(NVMLError) as err:
            _set_clock(mhz=1380)
    assert err.value.value == NVML_ERROR_GPU_IS_LOST
    assert len(injector.records) == 1
    assert injector.records[0].call_index == 3


def test_at_time_trigger_uses_rank_clock(device):
    plan = FaultPlan().add(
        FaultSpec(
            op="nvmlDeviceSetApplicationsClocks",
            kind=FaultKind.NOT_SUPPORTED,
            at_time_s=1.0,
        )
    )
    injector = FaultInjector(plan, clocks=[device.clock])
    with injector:
        _set_clock(mhz=1410)  # t < 1s: passes
        device.clock.advance(2.0)
        with pytest.raises(NVMLError):
            _set_clock(mhz=1395)


def test_count_limits_strikes_per_rank(device):
    plan = FaultPlan().add(
        FaultSpec(
            op="nvmlDeviceSetApplicationsClocks",
            kind=FaultKind.NO_PERMISSION,
            count=1,
        )
    )
    with FaultInjector(plan):
        with pytest.raises(NVMLError):
            _set_clock(mhz=1410)
        _set_clock(mhz=1410)  # spent: passes now
    assert device.application_clock_hz == pytest.approx(1410e6)


def test_timeout_burns_latency_then_raises(device):
    plan = FaultPlan().add(
        FaultSpec(
            op="nvmlDeviceSetApplicationsClocks",
            kind=FaultKind.TIMEOUT,
            count=1,
            latency_s=0.25,
        )
    )
    injector = FaultInjector(plan, clocks=[device.clock])
    t0 = device.clock.now
    with injector:
        with pytest.raises(NVMLError) as err:
            _set_clock()
    assert err.value.value == NVML_ERROR_TIMEOUT
    assert device.clock.now == pytest.approx(t0 + 0.25)


def test_latency_burns_time_but_succeeds(device):
    plan = FaultPlan().add(
        FaultSpec(
            op="nvmlDeviceSetApplicationsClocks",
            kind=FaultKind.LATENCY,
            count=1,
            latency_s=0.1,
        )
    )
    injector = FaultInjector(plan, clocks=[device.clock])
    with injector:
        _set_clock()
    assert device.application_clock_hz == pytest.approx(1410e6)
    assert len(injector.records) == 1


def test_rank_filter_spares_other_ranks():
    clock = VirtualClock()
    gpus = [SimulatedGpu(by_name("CSCS-A100").gpu_spec, clock, index=i) for i in range(2)]
    nvml.attach_devices(gpus)
    nvml.nvmlInit()
    plan = FaultPlan().add(
        FaultSpec(
            op="nvmlDeviceSetApplicationsClocks",
            kind=FaultKind.NO_PERMISSION,
            rank=0,
        )
    )
    with FaultInjector(plan):
        with pytest.raises(NVMLError):
            _set_clock(index=0)
        _set_clock(index=1)  # rank 1 untouched
    assert gpus[1].application_clock_hz == pytest.approx(1410e6)


def test_rocm_ops_raise_rocm_errors():
    clock = VirtualClock()

    gpus = [SimulatedGpu(by_name("LUMI-G").gpu_spec, clock, index=0)]
    rocm.attach_devices(gpus)
    rocm.rsmi_init()
    plan = FaultPlan().add(
        FaultSpec(op="rsmi_dev_gpu_clk_freq_set", kind=FaultKind.TIMEOUT)
    )
    with FaultInjector(plan, clocks=[clock]):
        with pytest.raises(RocmSmiError) as err:
            rocm.rsmi_dev_gpu_clk_freq_set(0, rocm.RSMI_CLK_TYPE_SYS, 1.0e9)
    assert err.value.status == RSMI_STATUS_BUSY


def test_probability_draws_are_seed_deterministic(device):
    def run(seed: int) -> list:
        plan = FaultPlan(seed=seed).add(
            FaultSpec(
                op="nvmlDeviceSetApplicationsClocks",
                kind=FaultKind.NO_PERMISSION,
                probability=0.5,
            )
        )
        injector = FaultInjector(plan)
        outcomes = []
        with injector:
            for i in range(12):
                mhz = 1410 - 15 * (i % 2)
                try:
                    _set_clock(mhz=mhz)
                    outcomes.append(False)
                except NVMLError:
                    outcomes.append(True)
        return outcomes

    first = run(99)
    second = run(99)
    different = run(100)
    assert first == second
    assert True in first and False in first
    assert first != different  # overwhelmingly likely for 12 draws


def test_faulty_sensor_dropout_and_stuck_and_non_monotone():
    clock = VirtualClock()
    sensor = ConstantPowerPMT(clock, watts=100.0)
    plan = (
        FaultPlan()
        .add(FaultSpec(op=OP_PMT_READ, kind=FaultKind.DROPOUT, after_calls=2, count=1))
        .add(FaultSpec(op=OP_PMT_READ, kind=FaultKind.STUCK, after_calls=3, count=1))
        .add(
            FaultSpec(
                op=OP_PMT_READ,
                kind=FaultKind.NON_MONOTONE,
                after_calls=4,
                count=1,
                magnitude_j=5.0,
            )
        )
    )
    injector = FaultInjector(plan, clocks=[clock])
    wrapped = injector.wrap_sensor(sensor, rank=0)

    first = wrapped.read()  # call 1: clean
    clock.advance(1.0)
    with pytest.raises(PowerReadError):
        wrapped.read()  # call 2: dropout
    clock.advance(1.0)
    stuck = wrapped.read()  # call 3: stuck at the last good reading
    assert stuck == first
    clock.advance(1.0)
    bogus = wrapped.read()  # call 4: runs backwards by magnitude_j
    real = sensor.read()
    assert bogus.joules == pytest.approx(real.joules - 5.0)
    clock.advance(1.0)
    clean = wrapped.read()  # call 5: clean again
    assert clean.joules > bogus.joules


def test_stuck_before_first_read_degrades_to_dropout():
    clock = VirtualClock()
    sensor = ConstantPowerPMT(clock, watts=50.0)
    plan = FaultPlan().add(
        FaultSpec(op=OP_PMT_READ, kind=FaultKind.STUCK, count=1)
    )
    wrapped = FaultInjector(plan).wrap_sensor(sensor, rank=0)
    with pytest.raises(PowerReadError):
        wrapped.read()


def test_check_preemption_counts_steps():
    plan = FaultPlan().add(preemption_after_steps(2))
    injector = FaultInjector(plan)
    injector.check_preemption(0)  # before step 1
    injector.check_preemption(1)  # before step 2
    with pytest.raises(JobPreempted) as err:
        injector.check_preemption(2)  # before step 3: strikes
    assert err.value.steps_done == 2


def test_summary_aggregates_by_kind_op_and_rank(device):
    plan = FaultPlan(seed=5, name="agg").add(
        FaultSpec(
            op="nvmlDeviceSetApplicationsClocks",
            kind=FaultKind.NO_PERMISSION,
            count=2,
        )
    )
    injector = FaultInjector(plan)
    with injector:
        for mhz in (1410, 1395):
            with pytest.raises(NVMLError):
                _set_clock(mhz=mhz)
    summary = injector.summary()
    assert summary["plan"] == "agg"
    assert summary["seed"] == 5
    assert summary["total_injected"] == 2
    assert summary["by_kind"] == {"no-permission": 2}
    assert summary["by_op"] == {"nvmlDeviceSetApplicationsClocks": 2}
    assert summary["by_rank"] == {"0": 2}
