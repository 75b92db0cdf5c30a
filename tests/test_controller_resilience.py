"""FrequencyController resilience: retries, circuit breaker, restore."""

from __future__ import annotations

import pytest

from repro import nvml, rocm
from repro.core import (
    DegradationRecord,
    FrequencyController,
    ManDynPolicy,
    ResilienceConfig,
)
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.hardware import SimulatedGpu, VirtualClock
from repro.nvml import NVMLError
from repro.systems import by_name
from repro.telemetry import TRACK_FAULTS, TraceCollector
from repro.units import to_mhz


def _nvidia_rig(n: int = 2):
    clocks = [VirtualClock() for _ in range(n)]
    gpus = [
        SimulatedGpu(by_name("CSCS-A100").gpu_spec, clocks[i], index=i) for i in range(n)
    ]
    nvml.attach_devices(gpus)
    nvml.nvmlInit()
    return clocks, gpus


def _amd_rig(n: int = 2):
    clocks = [VirtualClock() for _ in range(n)]
    gpus = [SimulatedGpu(by_name("LUMI-G").gpu_spec, clocks[i], index=i) for i in range(n)]
    rocm.attach_devices(gpus)
    rocm.rsmi_init()
    return clocks, gpus


def _policy():
    # Devices boot pinned at their default clock, so every bin here is
    # off-default and distinct: each before_function is a real vendor
    # call (the same-bin skip never kicks in).
    return ManDynPolicy(
        {"Hot": 1395.0, "Cold": 1005.0}, default_mhz=1200.0
    )


def _amd_policy():
    return ManDynPolicy({"Hot": 1600.0, "Cold": 800.0}, default_mhz=1200.0)


def test_resilience_config_validation():
    with pytest.raises(ValueError):
        ResilienceConfig(max_retries=-1)
    with pytest.raises(ValueError):
        ResilienceConfig(backoff_s=-0.1)
    with pytest.raises(ValueError):
        ResilienceConfig(backoff_multiplier=0.5)
    with pytest.raises(ValueError):
        ResilienceConfig(breaker_threshold=0)
    cfg = ResilienceConfig(backoff_s=0.01, backoff_multiplier=3.0)
    assert cfg.backoff_for_attempt(0) == pytest.approx(0.01)
    assert cfg.backoff_for_attempt(2) == pytest.approx(0.09)


def test_fail_loud_without_config():
    _, gpus = _nvidia_rig(1)
    controller = FrequencyController(gpus, _policy())
    plan = FaultPlan().add(
        FaultSpec(
            op="nvmlDeviceSetApplicationsClocks",
            kind=FaultKind.NO_PERMISSION,
        )
    )
    with FaultInjector(plan):
        with pytest.raises(NVMLError):
            controller.before_function("Hot", 0)
    assert controller.degradations == []


def test_transient_timeouts_are_retried_and_absorbed():
    clocks, gpus = _nvidia_rig(1)
    controller = FrequencyController(
        gpus, _policy(), resilience=ResilienceConfig(max_retries=2)
    )
    # Two timeouts, then the call goes through on the second retry.
    plan = FaultPlan().add(
        FaultSpec(
            op="nvmlDeviceSetApplicationsClocks",
            kind=FaultKind.TIMEOUT,
            count=2,
            latency_s=0.001,
        )
    )
    t0 = clocks[0].now
    with FaultInjector(plan, clocks=clocks):
        controller.before_function("Hot", 0)
    assert controller.retries_performed == 2
    assert controller.vendor_errors == 2
    assert controller.degradations == []
    assert gpus[0].application_clock_hz == pytest.approx(1395e6)
    # Fault latency plus both deterministic backoffs burned on the clock.
    expected = 2 * 0.001 + 0.002 + 0.004
    assert clocks[0].now - t0 >= expected - 1e-12


def test_retry_exhaustion_counts_toward_breaker_not_crash():
    _, gpus = _nvidia_rig(1)
    controller = FrequencyController(
        gpus,
        _policy(),
        resilience=ResilienceConfig(max_retries=1, breaker_threshold=2),
    )
    plan = FaultPlan().add(
        FaultSpec(
            op="nvmlDeviceSetApplicationsClocks", kind=FaultKind.TIMEOUT
        )
    )
    with FaultInjector(plan):
        controller.before_function("Hot", 0)  # retry, fail: strike 1
        assert not controller.is_degraded(0)
        controller.before_function("Cold", 0)  # strike 2: breaker trips
    assert controller.is_degraded(0)
    assert gpus[0].dvfs_active


def test_fatal_error_degrades_immediately_and_controller_goes_quiet():
    clocks, gpus = _nvidia_rig(2)
    collector = TraceCollector(clocks=clocks, gpus=gpus)
    controller = FrequencyController(
        gpus, _policy(), telemetry=collector,
        resilience=ResilienceConfig(),
    )
    plan = FaultPlan().add(
        FaultSpec(
            op="nvmlDeviceSetApplicationsClocks",
            kind=FaultKind.GPU_IS_LOST,
            rank=0,
        )
    )
    injector = FaultInjector(plan)
    with injector:
        controller.before_function("Hot", 0)
        controller.before_function("Hot", 1)
        # Degraded rank 0 stops issuing vendor calls entirely.
        calls_after_trip = len(injector.records)
        controller.before_function("Cold", 0)
        assert len(injector.records) == calls_after_trip

    assert controller.degraded_ranks == [0]
    record = controller.degradation_for(0)
    assert isinstance(record, DegradationRecord)
    assert "GPU is lost" in record.reason
    assert "set_application_clocks" in record.reason
    assert "rank 0" in record.describe()
    assert gpus[0].dvfs_active  # handed to the governor
    assert gpus[1].application_clock_hz == pytest.approx(1395e6)

    instants = [
        e.name for e in collector.events if e.track == TRACK_FAULTS
    ]
    assert "rank-degraded" in instants
    snap = collector.metrics.snapshot()
    assert snap["counters"]["ranks_degraded"] == 1


def test_breaker_threshold_on_persistent_hard_errors():
    _, gpus = _nvidia_rig(1)
    controller = FrequencyController(
        gpus,
        _policy(),
        resilience=ResilienceConfig(max_retries=0, breaker_threshold=3),
    )
    plan = FaultPlan().add(
        FaultSpec(
            op="nvmlDeviceSetApplicationsClocks",
            kind=FaultKind.NO_PERMISSION,
        )
    )
    with FaultInjector(plan):
        controller.before_function("Hot", 0)
        controller.before_function("Cold", 0)
        assert not controller.is_degraded(0)
        controller.before_function("Hot", 0)
    assert controller.is_degraded(0)
    assert "3 consecutive failed operations" in (
        controller.degradation_for(0).reason
    )


def test_success_resets_consecutive_failure_counter():
    _, gpus = _nvidia_rig(1)
    controller = FrequencyController(
        gpus,
        _policy(),
        resilience=ResilienceConfig(max_retries=0, breaker_threshold=2),
    )
    plan = (
        FaultPlan()
        # Strikes on calls 1 and 3 only; call 2 succeeds in between.
        .add(
            FaultSpec(
                op="nvmlDeviceSetApplicationsClocks",
                kind=FaultKind.NO_PERMISSION,
                count=1,
            )
        )
        .add(
            FaultSpec(
                op="nvmlDeviceSetApplicationsClocks",
                kind=FaultKind.NO_PERMISSION,
                after_calls=3,
                count=1,
            )
        )
    )
    with FaultInjector(plan):
        controller.before_function("Hot", 0)  # fail 1
        controller.before_function("Cold", 0)  # success: counter resets
        controller.before_function("Hot", 0)  # fail 1 again — no trip
    assert not controller.is_degraded(0)


def test_restore_defaults_pins_default_clock():
    _, gpus = _nvidia_rig(2)
    controller = FrequencyController(gpus, _policy())
    controller.apply_initial_mode()
    controller.before_function("Hot", 0)
    controller.before_function("Cold", 1)
    controller.restore_defaults()
    default_hz = gpus[0].spec.default_clock_hz
    for gpu in gpus:
        assert gpu.application_clock_hz == pytest.approx(default_hz)
        assert not gpu.dvfs_active


def test_restore_defaults_leaves_degraded_ranks_with_governor():
    _, gpus = _nvidia_rig(2)
    controller = FrequencyController(
        gpus, _policy(), resilience=ResilienceConfig()
    )
    plan = FaultPlan().add(
        FaultSpec(
            op="nvmlDeviceSetApplicationsClocks",
            kind=FaultKind.GPU_IS_LOST,
            rank=0,
        )
    )
    injector = FaultInjector(plan)
    with injector:
        controller.apply_initial_mode()  # rank 0 lost right away
        assert controller.degraded_ranks == [0]
        records_before = len(injector.records)
        controller.restore_defaults()
        # No further vendor calls were attempted for the degraded rank.
        assert len(injector.records) == records_before
    assert gpus[0].dvfs_active  # still the governor's device
    assert gpus[1].application_clock_hz == pytest.approx(
        gpus[1].spec.default_clock_hz
    )


# -- AMD / ROCm SMI path ------------------------------------------------------


def test_rocm_transient_busy_is_retried():
    clocks, gpus = _amd_rig(1)
    controller = FrequencyController(
        gpus, _amd_policy(), resilience=ResilienceConfig(max_retries=1)
    )
    plan = FaultPlan().add(
        FaultSpec(
            op="rsmi_dev_gpu_clk_freq_set",
            kind=FaultKind.TIMEOUT,
            count=1,
        )
    )
    with FaultInjector(plan, clocks=clocks):
        controller.before_function("Hot", 0)
    assert controller.retries_performed == 1
    assert controller.degradations == []
    assert gpus[0].application_clock_hz == pytest.approx(
        gpus[0].spec.quantize_clock_hz(1600e6)
    )


def test_rocm_device_lost_mid_run_hands_over_to_dvfs():
    clocks, gpus = _amd_rig(2)
    collector = TraceCollector(clocks=clocks, gpus=gpus)
    controller = FrequencyController(
        gpus, _amd_policy(), telemetry=collector,
        resilience=ResilienceConfig(),
    )
    plan = FaultPlan().add(
        FaultSpec(
            op="rsmi_dev_gpu_clk_freq_set",
            kind=FaultKind.GPU_IS_LOST,
            rank=1,
            after_calls=2,
        )
    )
    with FaultInjector(plan):
        controller.apply_initial_mode()  # call 1 per rank: fine
        controller.before_function("Hot", 0)
        controller.before_function("Hot", 1)  # call 2 on rank 1: lost
    assert controller.degraded_ranks == [1]
    assert "AMDGPU Restart" in controller.degradation_for(1).reason
    assert gpus[1].dvfs_active
    assert not gpus[0].dvfs_active
    # restore_defaults still works for the healthy rank.
    controller.restore_defaults()
    assert gpus[0].application_clock_hz == pytest.approx(
        gpus[0].spec.default_clock_hz
    )
    assert gpus[1].dvfs_active
    snap = collector.metrics.snapshot()
    assert snap["counters"]["ranks_degraded"] == 1


def test_rocm_reset_path_is_guarded_too():
    _, gpus = _amd_rig(1)
    gpus[0].set_application_clocks(1.6e9, 1.2e9)  # pinned: reset is real
    controller = FrequencyController(
        gpus,
        _amd_policy(),
        resilience=ResilienceConfig(max_retries=0, breaker_threshold=1),
    )
    plan = FaultPlan().add(
        FaultSpec(
            op="rsmi_dev_gpu_clk_freq_reset",
            kind=FaultKind.NO_PERMISSION,
        )
    )
    with FaultInjector(plan):
        controller._reset(0)
    assert controller.is_degraded(0)
    assert "reset_application_clocks" in controller.degradation_for(0).reason
    assert gpus[0].dvfs_active
