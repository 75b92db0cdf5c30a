"""DeviceSampler: clock-driven polling, gap detection, external feeds."""

import pytest

from repro.hardware import KernelLaunch, SimulatedGpu, VirtualClock
from repro.monitor import DEVICE_SERIES, DeviceSampler
from repro.systems import Cluster, by_name
from repro.telemetry import TRACK_FAULTS, TraceCollector


def _sampler(period_s=0.05, **kwargs):
    clock = VirtualClock()
    gpu = SimulatedGpu(by_name("miniHPC").gpu_spec, clock)
    return DeviceSampler([gpu], [clock], period_s=period_s, **kwargs), gpu, clock


def test_sampler_records_every_device_series():
    sampler, gpu, clock = _sampler()
    sampler.start()
    for _ in range(10):
        clock.advance(0.05)
    sampler.stop()
    for name in DEVICE_SERIES:
        series = sampler.series(name, rank=0)
        assert series.n_samples >= 10, name
    assert sampler.series("power_w").last == pytest.approx(gpu.power_w())
    assert sampler.series("energy_j").last == pytest.approx(gpu.energy_j)


def test_sampler_respects_period():
    sampler, gpu, clock = _sampler(period_s=0.1)
    sampler.start()
    for _ in range(100):
        clock.advance(0.01)  # 1.0 s total, 10 periods
    sampler.stop()
    # 1 start + 10 periodic + (stop pins only if needed): t=1.0 is a
    # period boundary, so the final sample was already taken.
    assert sampler.series("power_w").n_samples == 11


def test_long_advance_is_recorded_as_gap():
    sampler, gpu, clock = _sampler(period_s=0.05, gap_factor=4.0)
    sampler.start()
    clock.advance(1.0)  # 20 periods in one unobservable advance
    sampler.stop()
    assert len(sampler.gaps) == 1
    gap = sampler.gaps[0]
    assert gap.rank == 0
    assert gap.t0_s == 0.0 and gap.t1_s == 1.0
    assert gap.missed_ticks == 19
    assert sampler.metrics.counter("sampler_gaps", rank=0).value == 1.0


def test_short_advances_are_not_gaps():
    sampler, gpu, clock = _sampler(period_s=0.05, gap_factor=4.0)
    sampler.start()
    for _ in range(20):
        clock.advance(0.06)  # slightly late, never gap_factor late
    sampler.stop()
    assert sampler.gaps == []


def test_gap_emits_fault_instant_in_telemetry():
    collector = TraceCollector()
    sampler, gpu, clock = _sampler(period_s=0.05, telemetry=collector)
    sampler.start()
    clock.advance(2.0)
    sampler.stop()
    gaps = [
        e for e in collector.instants(TRACK_FAULTS) if e.name == "sampler-gap"
    ]
    assert len(gaps) == 1
    assert gaps[0].args["missed_ticks"] == 39


def test_sampler_mirrors_samples_into_telemetry():
    collector = TraceCollector()
    sampler, gpu, clock = _sampler(telemetry=collector)
    sampler.start()
    clock.advance(0.05)
    sampler.stop()
    device_counters = [
        c for c in collector.counters() if c.name == "device"
    ]
    assert device_counters
    assert set(device_counters[0].values) == {
        "power_w", "clock_mhz", "temp_c", "utilization"
    }
    # The shared registry carries live gauges for every series.
    snap = collector.metrics.snapshot()
    assert "monitor_power_w{rank=0}" in snap["gauges"]


def test_sampler_sees_kernel_activity():
    sampler, gpu, clock = _sampler(period_s=0.01)
    sampler.start()
    gpu.execute(KernelLaunch("K", flops=1e12, bytes_moved=0.0,
                             power_intensity=1.0))
    clock.advance(0.05)
    sampler.stop()
    energy = sampler.series("energy_j")
    assert energy.last > 0.0
    assert sampler.series("power_ema_w").last > 0.0


def test_observe_external_feeds_named_series():
    sampler, gpu, clock = _sampler()
    sampler.observe_external("pmt_power_w", 0, 0.1, 240.0)
    sampler.observe_external("pmt_power_w", 0, 0.2, 260.0)
    series = sampler.series("pmt_power_w")
    assert series.n_samples == 2
    assert series.last == 260.0
    assert ("pmt_power_w", 0) in sampler.series_names()


def test_observe_external_gap_counts_ticks():
    sampler, gpu, clock = _sampler(period_s=0.1)
    sampler.observe_external_gap(0, 1.0, 2.0)
    assert len(sampler.gaps) == 1
    assert sampler.gaps[0].missed_ticks == 10


def test_for_cluster_covers_every_rank():
    cluster = Cluster(by_name("miniHPC"), 2)
    try:
        sampler = DeviceSampler.for_cluster(cluster, period_s=0.05)
        sampler.start()
        for clock in cluster.clocks:
            clock.advance(0.2)
        sampler.stop()
    finally:
        cluster.detach_management_library()
    assert sampler.n_ranks == 2
    for rank in range(2):
        assert sampler.series("power_w", rank).n_samples > 0
    snap = sampler.snapshot()
    assert "power_w[0]" in snap and "power_w[1]" in snap


def test_sampler_lifecycle_guards():
    sampler, gpu, clock = _sampler()
    with pytest.raises(RuntimeError):
        sampler.stop()
    sampler.start()
    with pytest.raises(RuntimeError):
        sampler.start()
    sampler.stop()


def test_sampler_validates_construction():
    clock = VirtualClock()
    gpu = SimulatedGpu(by_name("miniHPC").gpu_spec, clock)
    with pytest.raises(ValueError):
        DeviceSampler([gpu], [])
    with pytest.raises(ValueError):
        DeviceSampler([], [])
    with pytest.raises(ValueError):
        DeviceSampler([gpu], [clock], period_s=0.0)
    with pytest.raises(ValueError):
        DeviceSampler([gpu], [clock], gap_factor=0.5)
