"""Alert rules and engine, including the fault-injected firing paths."""

import dataclasses

import pytest

from repro.core import ManDynPolicy, ResilienceConfig
from repro.faults import FaultInjector, build_plan
from repro.hardware import (
    KernelLaunch,
    SimulatedGpu,
    ThermalSpec,
    VirtualClock,
)
from repro.monitor import (
    Alert,
    AlertEngine,
    AlertRule,
    DeviceSampler,
    Monitor,
    MonitorConfig,
    default_rules,
    stalled_worker_alerts,
)
from repro.sph import run_instrumented
from repro.systems import Cluster, by_name
from repro.telemetry import TRACK_FAULTS, TraceCollector


def _rule(**overrides):
    base = dict(name="r", series="s", op=">", threshold=1.0)
    base.update(overrides)
    return AlertRule(**base)


def test_rule_validation():
    with pytest.raises(ValueError):
        _rule(name="")
    with pytest.raises(ValueError):
        _rule(op="~")
    with pytest.raises(ValueError):
        _rule(for_s=-1.0)
    with pytest.raises(ValueError):
        _rule(mode="median")


def test_rule_describe_mentions_duration_and_rate():
    assert _rule(for_s=2.0).describe() == "s > 1 for 2s"
    assert _rule(mode="rate").describe() == "d(s)/dt > 1"


def test_engine_fires_immediately_without_for_duration():
    engine = AlertEngine([_rule()])
    fired = engine.observe(0, 1.0, {"s": 5.0})
    assert len(fired) == 1
    assert fired[0].t_fired_s == 1.0
    assert fired[0].value == 5.0
    # Still-true condition does not re-fire the active alert.
    assert engine.observe(0, 2.0, {"s": 5.0}) == []


def test_engine_for_duration_guards_blips():
    engine = AlertEngine([_rule(for_s=0.5)])
    assert engine.observe(0, 0.0, {"s": 5.0}) == []  # pending
    assert engine.observe(0, 0.2, {"s": 0.0}) == []  # blip resets
    assert engine.observe(0, 0.4, {"s": 5.0}) == []  # pending again
    fired = engine.observe(0, 0.9, {"s": 5.0})  # held 0.5s
    assert len(fired) == 1
    assert fired[0].t_start_s == 0.4


def test_engine_resolves_and_tracks_active():
    engine = AlertEngine([_rule()])
    engine.observe(0, 1.0, {"s": 5.0})
    assert engine.active_alerts
    engine.observe(0, 2.0, {"s": 0.0})
    assert not engine.active_alerts
    assert engine.alerts[0].t_resolved_s == 2.0


def test_engine_rate_mode():
    rule = _rule(mode="rate", threshold=10.0)
    engine = AlertEngine([rule])
    assert engine.observe(0, 0.0, {"s": 0.0}) == []  # needs two samples
    assert engine.observe(0, 1.0, {"s": 5.0}) == []  # 5/s, under
    fired = engine.observe(0, 2.0, {"s": 20.0})  # 15/s
    assert len(fired) == 1
    assert fired[0].value == pytest.approx(15.0)


def test_engine_per_rank_state_is_independent():
    engine = AlertEngine([_rule()])
    engine.observe(0, 1.0, {"s": 5.0})
    fired = engine.observe(1, 1.0, {"s": 5.0})
    assert len(fired) == 1 and fired[0].rank == 1
    assert len(engine.alerts) == 2


def test_engine_emits_fault_instants_and_counts():
    collector = TraceCollector()
    seen = []
    engine = AlertEngine(
        [_rule()], telemetry=collector,
        on_alert=lambda a, t: seen.append((a.rule.name, t)),
    )
    engine.observe(0, 1.0, {"s": 5.0})
    engine.observe(0, 2.0, {"s": 0.0})
    names = [e.name for e in collector.instants(TRACK_FAULTS)]
    assert names == ["alert-fired", "alert-resolved"]
    assert seen == [("r", "fired"), ("r", "resolved")]
    snap = collector.metrics.snapshot()
    assert snap["counters"]["alerts_fired{rule=r}"] == 1.0


def test_engine_rejects_duplicate_rule_names():
    with pytest.raises(ValueError):
        AlertEngine([_rule(), _rule()])


def test_default_rules_power_cap_needs_spec():
    names = {r.name for r in default_rules()}
    assert "power_cap_proximity" not in names
    names = {r.name for r in default_rules(gpu_spec=by_name("miniHPC").gpu_spec)}
    assert "power_cap_proximity" in names
    assert {"clock_throttle_detected", "sampler_gap",
            "clock_set_failures"} <= names


# -- fault-injected firing paths (acceptance criteria) ---------------------


def _hot_spec():
    """Constrained cooling: sustained full power must throttle."""
    base = by_name("miniHPC").gpu_spec
    return dataclasses.replace(
        base,
        thermal=ThermalSpec(
            ambient_c=35.0,
            resistance_c_per_w=0.24,
            tau_s=5.0,
            throttle_temp_c=88.0,
        ),
    )


def test_clock_throttle_detected_fires_on_hot_device():
    spec = _hot_spec()
    clock = VirtualClock()
    gpu = SimulatedGpu(spec, clock)
    engine = AlertEngine(default_rules(gpu_spec=spec))
    sampler = DeviceSampler([gpu], [clock], period_s=0.5, alerts=engine)
    sampler.start()
    kernel = KernelLaunch(
        "Hot", flops=5e13, bytes_moved=0.0, power_intensity=1.0
    )
    for _ in range(20):  # ~100 s of sustained full power
        gpu.execute(kernel)
    sampler.stop()
    assert gpu.thermal_throttle_active
    fired = engine.fired("clock_throttle_detected")
    assert fired
    assert fired[0].rule.severity == "critical"


def test_sampler_gap_rule_fires_on_unobservable_interval():
    clock = VirtualClock()
    gpu = SimulatedGpu(by_name("miniHPC").gpu_spec, clock)
    engine = AlertEngine(default_rules())
    sampler = DeviceSampler(
        [gpu], [clock], period_s=0.05, alerts=engine
    )
    sampler.start()
    # A wedged phase: one advance spanning many sampling periods.
    clock.advance(3.0)
    sampler.stop()
    assert engine.fired("sampler_gap")


def test_clock_set_failures_fires_under_flaky_clocks_scenario():
    plan = build_plan("flaky-clocks", seed=7, n_ranks=1)
    injector = FaultInjector(plan)
    collector = TraceCollector(max_events=50_000)
    monitor = Monitor(
        MonitorConfig(period_s=0.02), telemetry=collector
    )
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        result = run_instrumented(
            cluster,
            "SedovBlast",
            50_000,
            6,
            policy=ManDynPolicy({"MomentumEnergy": 1410.0},
                                default_mhz=1005.0),
            telemetry=collector,
            resilience=ResilienceConfig(),
            faults=injector,
            monitor=monitor,
        )
    finally:
        cluster.detach_management_library()
    assert result.retries > 0  # the scenario actually bit
    fired = monitor.fired("clock_set_failures")
    assert fired
    # Alert instants landed on the telemetry faults track too.
    names = [e.name for e in collector.instants(TRACK_FAULTS)]
    assert "alert-fired" in names


# -- campaign worker stalls (heartbeat-judged) -----------------------------


def test_stalled_worker_alerts_flags_silent_busy_lanes():
    heartbeats = {
        "0": {"updated_s": 1000.0, "state": "running", "unit": "a"},
        "1": {"updated_s": 1190.0, "state": "running", "unit": "b"},
        "2": {"updated_s": 900.0, "state": "idle"},
    }
    alerts = stalled_worker_alerts(heartbeats, now_s=1200.0,
                                   stall_after_s=120.0)
    assert [a.rank for a in alerts] == [0]
    assert alerts[0].rule.name == "campaign_worker_stalled"
    assert alerts[0].value == pytest.approx(200.0)
    assert isinstance(alerts[0], Alert)


def test_stalled_worker_alerts_empty_heartbeats():
    assert stalled_worker_alerts({}, now_s=0.0) == []
