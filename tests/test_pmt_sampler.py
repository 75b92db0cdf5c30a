"""Periodic PMT sampling (dump mode)."""

import numpy as np
import pytest

from repro import nvml
from repro.hardware import KernelLaunch, SimulatedGpu, VirtualClock
from repro.pmt import PmtSampler, create
from repro.systems import by_name


@pytest.fixture
def rig():
    clk = VirtualClock()
    gpu = SimulatedGpu(by_name("CSCS-A100").gpu_spec, clk)
    nvml.attach_devices([gpu])
    sensor = create("nvml", device_index=0)
    return clk, gpu, sensor


def test_sampler_takes_samples_at_period(rig):
    clk, gpu, sensor = rig
    sampler = PmtSampler(sensor, clk, period_s=0.1)
    sampler.start()
    clk.advance(1.05)
    series = sampler.stop()
    # First immediate sample + 10 ticks inside [0, 1.05].
    assert len(series) == 11
    times = [s.timestamp_s for s in series]
    assert times == sorted(times)
    assert times[1] == pytest.approx(0.1)
    assert times[-1] == pytest.approx(1.0)


def test_sampler_power_matches_device_draw(rig):
    clk, gpu, sensor = rig
    sampler = PmtSampler(sensor, clk, period_s=0.05)
    sampler.start()
    gpu.execute(KernelLaunch("K", flops=5e12, bytes_moved=0.0,
                             power_intensity=1.0))
    series = sampler.stop()
    # Interior samples during a full-power kernel read ~TDP.
    busy = [s.watts for s in series[2:-1]]
    assert len(busy) > 3
    assert np.allclose(busy, gpu.spec.max_power_w, rtol=1e-2)


def test_sampler_energy_is_consistent_with_counter(rig):
    clk, gpu, sensor = rig
    sampler = PmtSampler(sensor, clk, period_s=0.2)
    sampler.start()
    gpu.execute(KernelLaunch("K", flops=2e12, bytes_moved=1e11,
                             power_intensity=0.8))
    clk.advance(0.5)
    series = sampler.stop()
    # Cumulative joules are monotone and end near the device counter.
    joules = [s.joules for s in series]
    assert all(b >= a for a, b in zip(joules, joules[1:]))
    assert joules[-1] <= gpu.energy_j + 1e-9
    assert joules[-1] > 0.9 * gpu.energy_j  # last tick close to the end


def test_sampler_interpolates_within_long_advances(rig):
    clk, gpu, sensor = rig
    sampler = PmtSampler(sensor, clk, period_s=0.1)
    sampler.start()
    clk.advance(1.0)  # one advance crossing 10 ticks, idle power
    series = sampler.stop()
    idle_w = gpu.power_model.idle_power_w(gpu.current_clock_hz)
    for s in series[1:]:
        assert s.watts == pytest.approx(idle_w, rel=1e-6)


def test_sampler_lifecycle_errors(rig):
    clk, gpu, sensor = rig
    sampler = PmtSampler(sensor, clk, period_s=0.1)
    with pytest.raises(RuntimeError):
        sampler.stop()
    sampler.start()
    with pytest.raises(RuntimeError):
        sampler.start()
    sampler.stop()
    with pytest.raises(ValueError):
        PmtSampler(sensor, clk, period_s=0.0)


def test_dump_roundtrip(tmp_path, rig):
    clk, gpu, sensor = rig
    sampler = PmtSampler(sensor, clk, period_s=0.1)
    sampler.start()
    gpu.execute(KernelLaunch("K", 1e12, 0.0, 1.0))
    sampler.stop()
    path = str(tmp_path / "pmt.dump")
    sampler.dump(path)
    loaded = PmtSampler.load_dump(path)
    assert len(loaded) == len(sampler.samples)
    assert loaded[-1].joules == pytest.approx(
        sampler.samples[-1].joules, abs=1e-5
    )


def test_dump_has_versioned_header_and_roundtrips_exactly(tmp_path, rig):
    import json

    clk, gpu, sensor = rig
    sampler = PmtSampler(sensor, clk, period_s=0.07)
    sampler.start()
    gpu.execute(KernelLaunch("K", 3e12, 1e11, 0.9))
    clk.advance(0.31)
    sampler.stop()
    path = str(tmp_path / "pmt.dump")
    sampler.dump(path)

    lines = open(path, encoding="ascii").read().splitlines()
    assert lines[0].startswith("# {")
    header = json.loads(lines[0][1:].strip())
    assert header["schema"] == 1
    assert header["kind"] == "pmt-dump"
    assert header["columns"] == ["timestamp_s", "joules", "watts"]
    assert header["period_s"] == pytest.approx(0.07)

    # repr-formatted floats make the round trip bit-exact.
    assert PmtSampler.load_dump(path) == sampler.samples


def test_dump_load_rejects_future_schema(tmp_path, rig):
    import json

    clk, gpu, sensor = rig
    sampler = PmtSampler(sensor, clk, period_s=0.1)
    sampler.start()
    clk.advance(0.2)
    sampler.stop()
    path = tmp_path / "pmt.dump"
    sampler.dump(str(path))
    lines = path.read_text(encoding="ascii").splitlines()
    header = json.loads(lines[0][1:].strip())
    header["schema"] = 99
    lines[0] = "# " + json.dumps(header)
    bad = tmp_path / "future.dump"
    bad.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(ValueError):
        PmtSampler.load_dump(str(bad))


def test_load_dump_accepts_legacy_headerless_files(tmp_path):
    path = tmp_path / "legacy.dump"
    path.write_text(
        "# timestamp_s joules watts\n"
        "0.0 0.0 0.0\n"
        "0.1 25.0 250.0\n",
        encoding="ascii",
    )
    loaded = PmtSampler.load_dump(str(path))
    assert len(loaded) == 2
    assert loaded[1].watts == 250.0


def test_sampler_mirrors_samples_to_telemetry(rig):
    from repro.telemetry import TraceCollector

    clk, gpu, sensor = rig
    collector = TraceCollector()
    sampler = PmtSampler(
        sensor, clk, period_s=0.1, telemetry=collector, rank=3
    )
    sampler.start()
    gpu.execute(KernelLaunch("K", 1e12, 0.0, 1.0))
    clk.advance(0.25)
    series = sampler.stop()
    counters = [c for c in collector.counters() if c.name == "power"]
    assert len(counters) == len(series)
    for event, sample in zip(counters, series):
        assert event.rank == 3
        assert event.ts_s == sample.timestamp_s
        assert event.values == {
            "watts": sample.watts, "joules": sample.joules
        }
    snap = collector.metrics.snapshot()
    assert snap["counters"]["counter_samples{name=power}"] == len(series)
    assert snap["gauges"]["last_power_joules{rank=3}"] == series[-1].joules


# -- resilience: failed reads, gaps, monotonicity ----------------------------


class _FlakySensor:
    """Scriptable sensor: perfect counter unless told to fail or skew.

    Integrates energy on its own clock subscription, like the device
    models do — construct it *before* the sampler so its counter is
    up to date when the sampler's listener reads it.
    """

    platform = "test"

    def __init__(self, clock, watts=100.0):
        self._clock = clock
        self._watts = watts
        self._joules = 0.0
        self.fail_now = False
        self.offset_j = 0.0
        clock.subscribe(self._integrate)

    def _integrate(self, t0, t1):
        self._joules += self._watts * (t1 - t0)

    def read(self):
        from repro.pmt import PowerReadError, State

        if self.fail_now:
            raise PowerReadError("injected sensor failure")
        return State(
            self._clock.now, self._joules + self.offset_j, self._watts
        )


def test_start_with_broken_sensor_does_not_wedge():
    from repro.pmt import PmtSampler, PowerReadError

    clk = VirtualClock()
    sensor = _FlakySensor(clk)
    sensor.fail_now = True
    sampler = PmtSampler(sensor, clk, period_s=0.1)
    # Regression: the first read used to happen after _running was set,
    # leaving a failed start() wedged (start and stop both unusable).
    with pytest.raises(PowerReadError):
        sampler.start()
    assert not sampler.running
    with pytest.raises(RuntimeError):
        sampler.stop()  # never started
    sensor.fail_now = False
    sampler.start()  # recovers cleanly
    clk.advance(0.2)
    series = sampler.stop()
    assert len(series) == 3


def test_failed_reads_become_gaps_and_ticks_are_backfilled():
    from repro.pmt import PmtSampler

    clk = VirtualClock()
    sensor = _FlakySensor(clk, watts=100.0)
    sampler = PmtSampler(sensor, clk, period_s=0.1)
    sampler.start()
    clk.advance(0.2)  # good: ticks 0.1, 0.2
    sensor.fail_now = True
    clk.advance(0.2)  # failed
    assert sampler.in_gap
    clk.advance(0.2)  # failed again: same gap
    sensor.fail_now = False
    clk.advance(0.2)  # recovery read at t=0.8 back-fills the gap
    series = sampler.stop()

    assert sampler.failed_reads == 2
    assert sampler.gaps == [(pytest.approx(0.2), pytest.approx(0.8))]
    assert not sampler.in_gap
    # The series stays on the sampling grid with no holes.
    times = [s.timestamp_s for s in series]
    assert times == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
    # Constant draw makes the linear back-fill exact.
    for s in series[1:]:
        assert s.joules == pytest.approx(100.0 * s.timestamp_s)
        assert s.watts == pytest.approx(100.0)


def test_monotonicity_guard_clamps_backwards_counter():
    from repro.pmt import PmtSampler

    clk = VirtualClock()
    sensor = _FlakySensor(clk, watts=100.0)
    sampler = PmtSampler(sensor, clk, period_s=0.1)
    sampler.start()
    clk.advance(0.1)  # 10 J at t=0.1
    sensor.offset_j = -30.0  # counter appears to run backwards
    clk.advance(0.1)
    sensor.offset_j = 0.0
    clk.advance(0.1)
    series = sampler.stop()

    assert sampler.monotonicity_violations == 1
    joules = [s.joules for s in series]
    assert joules == sorted(joules)  # still monotone
    assert all(s.watts >= 0.0 for s in series)  # never negative power
    assert series[2].joules == pytest.approx(10.0)  # clamped, not -10


def test_gap_still_open_at_stop_is_closed_at_stop_time():
    from repro.pmt import PmtSampler

    clk = VirtualClock()
    sensor = _FlakySensor(clk)
    sampler = PmtSampler(sensor, clk, period_s=0.1)
    sampler.start()
    sensor.fail_now = True
    clk.advance(0.5)  # the sensor never comes back
    series = sampler.stop()
    assert len(series) == 1  # just the immediate first sample
    assert sampler.gaps == [(pytest.approx(0.0), pytest.approx(0.5))]
    assert not sampler.in_gap


def test_power_gaps_are_visible_on_the_telemetry_faults_track():
    from repro.pmt import PmtSampler
    from repro.telemetry import TRACK_FAULTS, TraceCollector

    clk = VirtualClock()
    sensor = _FlakySensor(clk)
    collector = TraceCollector(clocks=[clk])
    sampler = PmtSampler(
        sensor, clk, period_s=0.1, telemetry=collector, rank=0
    )
    sampler.start()
    sensor.fail_now = True
    clk.advance(0.2)
    sensor.fail_now = False
    clk.advance(0.2)
    sampler.stop()
    spans = [
        e for e in collector.events
        if e.track == TRACK_FAULTS and e.name == "power-gap"
    ]
    assert len(spans) == 1
    snap = collector.metrics.snapshot()
    assert snap["counters"]["power_read_gaps{rank=0}"] == 1
