"""TraceCollector: ring buffer, hook behavior, explicit emit APIs."""

import pytest

from repro.hardware import VirtualClock
from repro.slurm import JobSpec, SlurmController
from repro.systems import Cluster, by_name
from repro.telemetry import (
    TRACK_CLOCKS,
    TRACK_COUNTERS,
    TRACK_JOB,
    CounterEvent,
    InstantEvent,
    SpanEvent,
    TraceCollector,
)


def test_hook_spans_open_and_close():
    clk = VirtualClock()
    collector = TraceCollector(clocks=[clk])
    collector.before_function("XMass", 0)
    clk.advance(0.25)
    collector.after_function("XMass", 0)
    spans = collector.spans()
    assert len(spans) == 1
    assert spans[0].name == "XMass"
    assert spans[0].duration_s == pytest.approx(0.25)
    assert spans[0].args["step"] == 0


def test_step_index_attached_to_spans():
    clk = VirtualClock()
    collector = TraceCollector(clocks=[clk])
    for step in range(3):
        collector.before_function("F", 0)
        clk.advance(0.1)
        collector.after_function("F", 0)
        collector.mark_step()
    assert [s.args["step"] for s in collector.spans()] == [0, 1, 2]


def test_mismatched_close_raises():
    collector = TraceCollector(clocks=[VirtualClock()])
    collector.before_function("A", 0)
    with pytest.raises(RuntimeError):
        collector.after_function("B", 0)


def test_unbound_collector_rejects_implicit_timestamps():
    collector = TraceCollector()
    with pytest.raises(RuntimeError):
        collector.before_function("A", 0)
    # Explicit-timestamp emits still work without clocks.
    collector.emit_counter_sample("power", 0, {"watts": 1.0}, ts=0.5)
    collector.emit_phase("setup", 0, t0=0.0, t1=1.0)
    assert len(collector) == 2


def test_ring_buffer_drops_oldest_and_counts():
    collector = TraceCollector(clocks=[VirtualClock()], max_events=3)
    for i in range(5):
        collector.emit_instant(f"e{i}", 0, ts=float(i))
    assert len(collector) == 3
    assert [e.name for e in collector.events] == ["e2", "e3", "e4"]
    assert collector.dropped == 2
    snap = collector.metrics.snapshot()
    assert snap["counters"]["trace_events_dropped"] == 2.0


def test_clock_change_emits():
    collector = TraceCollector(clocks=[VirtualClock()])
    collector.record_clock_set(0, 1410.0, from_mhz=1005.0)
    collector.record_clock_skip(0, 1410.0)
    collector.record_clock_set(0, None, reset=True)
    collector.record_dvfs_handover(0)
    instants = collector.instants(TRACK_CLOCKS)
    names = [i.name for i in instants]
    # A skip emits no instant: instants track performed calls only.
    assert names == ["clock-set", "clock-reset", "dvfs-governor"]
    assert instants[0].args == {"to_mhz": 1410.0, "from_mhz": 1005.0}
    snap = collector.metrics.snapshot()
    assert snap["counters"]["clock_set_calls{rank=0}"] == 2.0
    assert snap["counters"]["clock_set_skipped{rank=0}"] == 1.0
    # Performed sets with a target also produce a clock counter sample.
    clock_counters = [
        c for c in collector.counters(TRACK_CLOCKS)
        if c.name == "application_clock"
    ]
    assert len(clock_counters) == 1
    assert clock_counters[0].values == {"mhz": 1410.0}


def test_counter_samples_update_gauges():
    collector = TraceCollector()
    collector.emit_counter_sample(
        "power", 1, {"watts": 250.0, "joules": 10.0}, ts=1.0
    )
    snap = collector.metrics.snapshot()
    assert snap["gauges"]["last_power_watts{rank=1}"] == 250.0
    assert snap["counters"]["counter_samples{name=power}"] == 1.0
    [event] = collector.counters(TRACK_COUNTERS)
    assert isinstance(event, CounterEvent)
    assert event.ts_s == 1.0


def test_for_cluster_binds_rank_clocks():
    cluster = Cluster(by_name("miniHPC"), 1)
    collector = TraceCollector.for_cluster(cluster)
    assert collector.bound
    assert collector.now(0) == cluster.clocks[0].now


def test_span_event_validates_ordering():
    with pytest.raises(ValueError):
        SpanEvent(name="bad", rank=0, t0_s=2.0, t1_s=1.0)


def test_slurm_job_phases_appear_on_job_track():
    from repro.sph import run_instrumented

    cluster = Cluster(by_name("CSCS-A100"), 4)
    collector = TraceCollector.for_cluster(cluster)
    controller = SlurmController(telemetry=collector)
    controller.accounting.enable_energy_accounting()

    def app(cl, job):
        return run_instrumented(
            cl, "SedovBlast", 1e5, 1, telemetry=collector
        )

    try:
        job = controller.submit(
            JobSpec(name="traced", n_nodes=cluster.n_nodes, n_tasks=4),
            cluster,
            app,
        )
    finally:
        cluster.detach_management_library()
    phases = collector.spans(TRACK_JOB)
    names = {p.name for p in phases}
    assert names == {"slurm:scheduling+launch", "slurm:accounting-window"}
    window = next(p for p in phases if p.name == "slurm:accounting-window")
    assert window.args["job_id"] == job.job_id
    assert window.args["state"] == "COMPLETED"
    # The Fig. 3 structure: the accounting window starts before the
    # instrumented spans and covers all of them.
    first_span = min(
        (s for s in collector.spans() if s.track != TRACK_JOB),
        key=lambda s: s.t0_s,
    )
    assert window.t0_s < first_span.t0_s
    assert window.t1_s >= max(s.t1_s for s in collector.spans())


def test_instant_event_defaults():
    e = InstantEvent(name="x", rank=0, ts_s=0.0)
    assert e.track == TRACK_CLOCKS and e.args == {}


def test_ring_buffer_drop_accounting_under_sampler_pressure():
    """Sustained DeviceSampler counter emission overflows the ring
    deterministically: drops are counted exactly and only the oldest
    events leave the buffer."""
    from repro.hardware import SimulatedGpu
    from repro.monitor import DeviceSampler

    capacity = 50
    collector = TraceCollector(max_events=capacity)
    clock = VirtualClock()
    gpu = SimulatedGpu(by_name("miniHPC").gpu_spec, clock)
    sampler = DeviceSampler(
        [gpu], [clock], period_s=0.01, telemetry=collector
    )
    sampler.start()
    ticks = 300
    for _ in range(ticks):
        clock.advance(0.01)
    sampler.stop()

    # One `device` counter event per sample: start + one per tick.
    emitted = sampler.samples_taken
    assert emitted == ticks + 1
    assert len(collector) == capacity
    assert collector.dropped == emitted - capacity
    snap = collector.metrics.snapshot()
    assert snap["counters"]["trace_events_dropped"] == float(
        collector.dropped
    )
    # Newest events survive; the retained window is contiguous.
    timestamps = [e.ts_s for e in collector.counters()]
    assert timestamps == sorted(timestamps)
    assert timestamps[-1] == pytest.approx(ticks * 0.01)
    assert timestamps[0] == pytest.approx((emitted - capacity) * 0.01)


def _traced_mandyn_sim(trace_dir):
    from repro.campaign.worker import build_policy
    from repro.sph import Simulation
    from repro.telemetry import mint_context
    from repro.units import to_mhz

    system = by_name("miniHPC")
    cluster = Cluster(system, 2)
    collector = TraceCollector.for_cluster(cluster)
    collector.configure_tracing(
        mint_context(seed="restore-metrics"), trace_dir=str(trace_dir)
    )
    policy = build_policy(
        {"kind": "mandyn"},
        to_mhz(system.gpu_spec.max_clock_hz),
        cluster=cluster,
    )
    sim = Simulation(
        cluster, "SedovBlast", 2e5, policy=policy, telemetry=collector
    )
    return sim, cluster, collector


def test_restore_keeps_metrics_and_cpu_energy_of_an_uninterrupted_run(
    tmp_path,
):
    """A collector restored mid-run (rolled back onto its checkpoint)
    must observe into the restored registry: the cached per-span metric
    handles are dropped with the objects they pointed at."""
    steps = 6
    sim, cluster, whole = _traced_mandyn_sim(tmp_path / "whole")
    try:
        sim.run(steps)
        expected = whole.metrics.snapshot()
        expected_cpu_j = cluster.device_energy_breakdown_j()["CPU"]
    finally:
        cluster.detach_management_library()

    checkpoint = str(tmp_path / "unit.ckpt")
    sim, cluster, restored = _traced_mandyn_sim(tmp_path / "restored")
    try:
        sim.run(4, checkpoint_every=2, checkpoint_path=checkpoint)
        # Same simulation, same collector: resume from the step-4
        # checkpoint and finish the run.
        sim.run(steps, restore_from=checkpoint)
        got = restored.metrics.snapshot()
        got_cpu_j = cluster.device_energy_breakdown_j()["CPU"]
    finally:
        cluster.detach_management_library()
    assert got["histograms"]["function_time_s{function=XMass}"]["count"] == (
        2 * steps
    )
    assert got == expected
    assert got_cpu_j == expected_cpu_j
