"""Executor semantics: resume, retries, interruption, aggregation.

The centerpiece is the resumability contract from the campaign design:
a campaign interrupted after *k* of *n* units re-runs exactly *n − k*
missing units, and the final aggregate report is **byte-identical** to
the report of an uninterrupted campaign.
"""

import multiprocessing
import threading

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignExecutor,
    ExecutorConfig,
    RunStore,
    build_summary,
    classify_error,
    edp_ranking,
    run_campaign,
    summary_json,
)
from repro.campaign import executor as executor_mod
from repro.campaign.worker import run_unit_safe
from repro.faults import JobPreempted
from repro.nvml.errors import (
    NVML_ERROR_GPU_IS_LOST,
    NVML_ERROR_TIMEOUT,
    NVMLError,
)
from repro.pmt.base import PowerReadError
from repro.telemetry import TraceCollector, read_trace_jsonl


def _spec(**overrides):
    base = dict(
        name="exec-t",
        workloads=("sedov",),
        policies=(
            {"kind": "baseline"},
            {"kind": "static"},
            {"kind": "dvfs"},
            {"kind": "mandyn"},
        ),
        clocks_mhz=(1305.0, 1005.0),
        systems=("miniHPC",),
        particles=(30_000.0,),
        steps=2,
        seeds=(0,),
    )
    base.update(overrides)
    return CampaignSpec(**base)


# ---------------------------------------------------------------------------
# error taxonomy
# ---------------------------------------------------------------------------


def test_classify_nvml_timeout_transient():
    assert classify_error(NVMLError(NVML_ERROR_TIMEOUT)) == "transient"


def test_classify_gpu_lost_permanent():
    assert classify_error(NVMLError(NVML_ERROR_GPU_IS_LOST)) == "permanent"


def test_classify_campaign_level_failures():
    assert classify_error(PowerReadError("dropout")) == "transient"
    assert classify_error(JobPreempted(1.0, 2)) == "transient"
    assert classify_error(TimeoutError("wall")) == "transient"
    assert classify_error(ValueError("bug")) == "permanent"


# ---------------------------------------------------------------------------
# resume: interrupted after k of n re-runs exactly n - k
# ---------------------------------------------------------------------------


def test_interrupted_campaign_resumes_missing_units_only(tmp_path):
    spec = _spec()
    n = spec.n_units()
    assert n == 5
    k = 2

    interrupted_dir = tmp_path / "interrupted"
    status1, store1 = run_campaign(
        spec, str(interrupted_dir), ExecutorConfig(max_units=k)
    )
    assert status1.executed == k
    assert not status1.complete
    assert len(store1.completed_keys()) == k

    status2, store2 = run_campaign(spec, str(interrupted_dir))
    assert status2.skipped == k
    assert status2.executed == n - k
    assert status2.complete

    grid = {u.key for u in spec.expand()}
    assert store2.completed_keys() == grid

    fresh_dir = tmp_path / "fresh"
    status3, store3 = run_campaign(spec, str(fresh_dir))
    assert status3.executed == n

    keys = [u.key for u in spec.expand()]
    resumed = summary_json(build_summary(store2, keys=keys))
    uninterrupted = summary_json(build_summary(store3, keys=keys))
    assert resumed == uninterrupted  # byte-identical aggregate report


def test_rerun_of_finished_campaign_is_noop(tmp_path):
    spec = _spec()
    run_campaign(spec, str(tmp_path / "c"))
    status, _ = run_campaign(spec, str(tmp_path / "c"))
    assert status.executed == 0
    assert status.skipped == spec.n_units()


def test_parallel_pool_matches_serial_results(tmp_path):
    spec = _spec()
    keys = [u.key for u in spec.expand()]
    _, serial = run_campaign(spec, str(tmp_path / "s"), ExecutorConfig(workers=1))
    _, pooled = run_campaign(spec, str(tmp_path / "p"), ExecutorConfig(workers=2))
    assert summary_json(build_summary(serial, keys=keys)) == summary_json(
        build_summary(pooled, keys=keys)
    )


#: Set before a pool drain forks its workers, which inherit it.
_BARRIER = None


def _unit_at_barrier(config, *args, **kwargs):
    """Pool entry point that runs a unit only once two are in progress."""
    _BARRIER.wait()  # raises BrokenBarrierError when it times out
    return run_unit_safe(config, *args, **kwargs)


def test_pool_lanes_run_units_at_the_same_time(tmp_path, monkeypatch):
    """Two units must meet at a cross-process barrier before either can
    compute: only two pool lanes running at once get them both done."""
    spec = _spec(policies=({"kind": "baseline"},), clocks_mhz=(), seeds=(0, 1))
    monkeypatch.setitem(
        globals(), "_BARRIER", multiprocessing.Barrier(2, timeout=10.0)
    )
    monkeypatch.setattr(executor_mod, "run_unit_safe", _unit_at_barrier)
    store = RunStore(str(tmp_path), campaign=spec.name)
    status = CampaignExecutor(store, ExecutorConfig(workers=2)).run(
        spec.expand()
    )
    assert status.executed == 2 and status.failed == 0


# ---------------------------------------------------------------------------
# retries and failures (inline path, stubbed worker)
# ---------------------------------------------------------------------------


def _stub_worker(outcomes):
    calls = {"n": 0}

    def fake_run_unit_safe(config, *args, **kwargs):
        outcome = outcomes[min(calls["n"], len(outcomes) - 1)]
        calls["n"] += 1
        return outcome

    return calls, fake_run_unit_safe


def test_transient_failure_retries_then_succeeds(tmp_path, monkeypatch):
    spec = _spec(policies=({"kind": "baseline"},), clocks_mhz=())
    ok = {"ok": True, "result": {"metrics": {}, "report": {}}, "wall_s": 0.0}
    bad = {
        "ok": False,
        "error": {"type": "NVMLError", "message": "t", "severity": "transient"},
        "wall_s": 0.0,
    }
    calls, fake = _stub_worker([bad, bad, ok])
    monkeypatch.setattr(executor_mod, "run_unit_safe", fake)

    store = RunStore(str(tmp_path), campaign=spec.name)
    config = ExecutorConfig(max_retries=2, retry_backoff_s=0.0)
    status = CampaignExecutor(store, config).run(spec.expand())
    assert calls["n"] == 3
    assert status.executed == 1
    assert status.retries == 2
    assert status.failed == 0


def test_transient_failure_exhausts_retries(tmp_path, monkeypatch):
    spec = _spec(policies=({"kind": "baseline"},), clocks_mhz=())
    bad = {
        "ok": False,
        "error": {"type": "NVMLError", "message": "t", "severity": "transient"},
        "wall_s": 0.0,
    }
    _, fake = _stub_worker([bad])
    monkeypatch.setattr(executor_mod, "run_unit_safe", fake)

    store = RunStore(str(tmp_path), campaign=spec.name)
    config = ExecutorConfig(max_retries=1, retry_backoff_s=0.0)
    status = CampaignExecutor(store, config).run(spec.expand())
    assert status.failed == 1
    assert status.retries == 1
    assert store.failed_keys() == {u.key for u in spec.expand()}


def test_permanent_failure_never_retries(tmp_path, monkeypatch):
    spec = _spec(policies=({"kind": "baseline"},), clocks_mhz=())
    bad = {
        "ok": False,
        "error": {"type": "ValueError", "message": "b", "severity": "permanent"},
        "wall_s": 0.0,
    }
    calls, fake = _stub_worker([bad])
    monkeypatch.setattr(executor_mod, "run_unit_safe", fake)

    store = RunStore(str(tmp_path), campaign=spec.name)
    status = CampaignExecutor(store, ExecutorConfig(max_retries=3)).run(
        spec.expand()
    )
    assert calls["n"] == 1
    assert status.failed == 1
    assert status.retries == 0


def test_failed_unit_is_retried_on_resume(tmp_path, monkeypatch):
    spec = _spec(policies=({"kind": "baseline"},), clocks_mhz=())
    bad = {
        "ok": False,
        "error": {"type": "ValueError", "message": "b", "severity": "permanent"},
        "wall_s": 0.0,
    }
    _, fake = _stub_worker([bad])
    monkeypatch.setattr(executor_mod, "run_unit_safe", fake)
    store = RunStore(str(tmp_path), campaign=spec.name)
    CampaignExecutor(store, ExecutorConfig()).run(spec.expand())
    monkeypatch.undo()

    status = CampaignExecutor(RunStore(str(tmp_path)), ExecutorConfig()).run(
        spec.expand()
    )
    assert status.executed == 1
    assert status.failed == 0


def test_keyboard_interrupt_drains_and_flags(tmp_path, monkeypatch):
    spec = _spec()
    real = executor_mod.run_unit_safe
    calls = {"n": 0}

    def interrupting(config, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:
            raise KeyboardInterrupt
        return real(config, *args, **kwargs)

    monkeypatch.setattr(executor_mod, "run_unit_safe", interrupting)
    store = RunStore(str(tmp_path), campaign=spec.name)
    status = CampaignExecutor(store, ExecutorConfig()).run(spec.expand())
    assert status.interrupted
    assert status.executed == 2
    assert len(store.completed_keys()) == 2


def test_executor_config_validation():
    with pytest.raises(ValueError):
        ExecutorConfig(timeout_s=0)
    with pytest.raises(ValueError):
        ExecutorConfig(max_retries=-1)
    with pytest.raises(ValueError):
        ExecutorConfig(backoff_multiplier=0.5)
    assert ExecutorConfig(retry_backoff_s=0.1).backoff_for_attempt(2) == 0.4


def test_campaign_name_mismatch_rejected(tmp_path):
    run_campaign(_spec(), str(tmp_path))
    with pytest.raises(ValueError, match="belongs to campaign"):
        run_campaign(_spec(name="other"), str(tmp_path))


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------


def test_campaign_emits_telemetry_and_trace_file(tmp_path):
    spec = _spec()
    collector = TraceCollector()
    status, store = run_campaign(
        spec, str(tmp_path), telemetry=collector
    )
    spans = collector.spans()
    names = {s.name for s in spans}
    assert "campaign" in names
    assert any(name.startswith("SedovBlast/") for name in names)
    assert len(spans) == status.executed + 1

    events = read_trace_jsonl(str(store.trace_path))
    assert len(events) == len(collector.events)

    collector2 = TraceCollector()
    status2, _ = run_campaign(spec, str(tmp_path), telemetry=collector2)
    skips = [e for e in collector2.events if e.name == "unit-skipped"]
    assert len(skips) == status2.skipped == spec.n_units()


# ---------------------------------------------------------------------------
# aggregation reproduces the Fig. 7 ranking from the example spec
# ---------------------------------------------------------------------------


def test_example_campaign_reproduces_fig7_ranking(tmp_path):
    spec = CampaignSpec.load("examples/campaign_fig7.json")
    _, store = run_campaign(spec, str(tmp_path))
    summary = build_summary(store, keys=[u.key for u in spec.expand()])
    assert len(summary["groups"]) == 1
    group = summary["groups"][0]
    rows = {r["policy"]: r for r in group["rows"]}

    # ManDyn headline numbers (paper §IV-D).
    mandyn = rows["mandyn"]
    assert mandyn["rel_time"] < 1.04
    assert 0.90 <= mandyn["rel_energy"] <= 0.95
    assert mandyn["rel_edp"] < 0.97
    # Static 1005: big time loss, big energy saving.
    assert rows["static-1005"]["rel_time"] > 1.12
    assert rows["static-1005"]["rel_energy"] < 0.88
    # DVFS: time-neutral, costs energy.
    assert 0.99 < rows["dvfs"]["rel_time"] < 1.05
    assert rows["dvfs"]["rel_energy"] > 1.0

    # The ManDyn-vs-static ranking: ManDyn wins EDP, DVFS loses to all.
    ranking = edp_ranking(group)
    assert ranking[0] == "mandyn"
    assert ranking[-1] == "dvfs"
    statics = [r for r in ranking if r.startswith("static-")]
    assert ranking.index("mandyn") < min(ranking.index(s) for s in statics)
    assert group["knee"] == "mandyn"
    assert mandyn["pareto"]


# ---------------------------------------------------------------------------
# worker heartbeats (consumed by `repro monitor watch`)
# ---------------------------------------------------------------------------


def test_campaign_writes_heartbeats_and_parks_lanes_idle(tmp_path):
    spec = _spec(policies=({"kind": "baseline"},), clocks_mhz=(1305.0,))
    _, store = run_campaign(spec, str(tmp_path / "c"))
    beats = store.read_heartbeats()
    assert beats, "executor must leave a heartbeat file behind"
    # After a clean drain every lane is parked idle so watchers never
    # mistake a finished campaign for a stalled one.
    assert all(r["state"] == "idle" for r in beats.values())
    assert all(r["updated_s"] > 0 for r in beats.values())
    snap = store.read_heartbeats()  # stable across re-reads
    assert snap == beats


def test_pool_heartbeats_cover_every_lane(tmp_path):
    spec = _spec()
    _, store = run_campaign(
        spec, str(tmp_path / "c"), ExecutorConfig(workers=2)
    )
    beats = store.read_heartbeats()
    assert set(beats) == {"0", "1"}
    assert all(r["state"] == "idle" for r in beats.values())


def test_heartbeat_write_failure_does_not_kill_campaign(tmp_path, monkeypatch):
    spec = _spec(policies=({"kind": "baseline"},), clocks_mhz=(1305.0,))

    def boom(self, lanes):
        raise OSError("disk full")

    monkeypatch.setattr(RunStore, "write_heartbeats", boom)
    status, store = run_campaign(spec, str(tmp_path / "c"))
    assert status.complete  # monitoring is best-effort, runs are not


# ---------------------------------------------------------------------------
# cooperative cancel, progress events, in-flight dedup, provenance
# ---------------------------------------------------------------------------


def test_should_stop_interrupts_between_units(tmp_path):
    spec = _spec()
    store = RunStore(str(tmp_path), campaign=spec.name)
    executed = []

    def stop_after_two():
        return len(executed) >= 2

    executor = CampaignExecutor(
        store,
        on_event=lambda e: (
            executed.append(e["key"]) if e["event"] == "unit-done" else None
        ),
        should_stop=stop_after_two,
    )
    status = executor.run(spec.expand())
    assert status.interrupted
    assert status.executed == 2
    assert len(store.completed_keys()) == 2  # finished units stay durable


def test_on_event_stream_covers_lifecycle(tmp_path):
    spec = _spec(policies=({"kind": "baseline"},), clocks_mhz=(1305.0,))
    store = RunStore(str(tmp_path), campaign=spec.name)
    events = []
    CampaignExecutor(store, on_event=events.append).run(spec.expand())
    assert [e["event"] for e in events] == ["unit-start", "unit-done"]

    # A re-drain reports the same unit as served from the store.
    events.clear()
    status = CampaignExecutor(store, on_event=events.append).run(spec.expand())
    assert [e["event"] for e in events] == ["unit-cached"]
    assert status.skipped == 1


def test_observer_exceptions_do_not_break_the_drain(tmp_path):
    spec = _spec(policies=({"kind": "baseline"},), clocks_mhz=(1305.0,))
    store = RunStore(str(tmp_path), campaign=spec.name)

    def broken_observer(event):
        raise RuntimeError("observer bug")

    status = CampaignExecutor(store, on_event=broken_observer).run(
        spec.expand()
    )
    assert status.executed == 1


def test_inflight_registry_claim_release_wait():
    reg = executor_mod.InFlightRegistry()
    assert reg.claim("k1")
    assert not reg.claim("k1")  # second claimant defers
    assert reg.in_flight() == {"k1"}
    assert not reg.wait("k1", timeout=0.01)  # still running
    reg.release("k1")
    assert reg.wait("k1", timeout=0.01)  # resolved instantly
    assert reg.in_flight() == set()
    assert reg.claim("k1")  # reusable after release


def test_provenance_tracks_cached_vs_executed(tmp_path):
    spec = _spec()
    store = RunStore(str(tmp_path), campaign=spec.name)
    keys = [u.key for u in spec.expand()]
    first = CampaignExecutor(store, config=ExecutorConfig(max_units=2)).run(
        spec.expand()
    )
    assert sorted(first.provenance.values()) == ["executed", "executed"]
    second = CampaignExecutor(store).run(spec.expand())
    assert set(second.provenance) == set(keys)
    counts = {}
    for prov in second.provenance.values():
        counts[prov] = counts.get(prov, 0) + 1
    assert counts == {"cached": 2, "executed": len(keys) - 2}


def test_concurrent_campaigns_share_inflight_units(tmp_path, unit_gate):
    """Two concurrent drains over one store never execute a key twice."""
    spec = _spec()
    n = spec.n_units()
    store = RunStore(str(tmp_path), campaign=spec.name)
    claims = threading.Semaphore(0)

    class CountingRegistry(executor_mod.InFlightRegistry):
        def claim(self, key):
            won = super().claim(key)
            claims.release()
            return won

    registry = CountingRegistry()
    statuses = {}

    def drain(tag):
        executor = CampaignExecutor(store, inflight=registry)
        statuses[tag] = executor.run(spec.expand())

    threads = [
        threading.Thread(target=drain, args=(tag,)) for tag in ("a", "b")
    ]
    for t in threads:
        t.start()
    # Both drains try to claim every key while the first unit is held
    # open at the gate, so their claim passes overlap in-flight work.
    for _ in range(2 * n):
        assert claims.acquire(timeout=30.0)
    unit_gate.open()
    for t in threads:
        t.join(timeout=60.0)
        assert not t.is_alive()

    a, b = statuses["a"], statuses["b"]
    # Every unit computed exactly once across both drains...
    assert a.executed + b.executed == n
    # ...and each drain accounts for all n units one way or another.
    for status in (a, b):
        assert status.executed + status.skipped + status.attached == n
        assert status.complete
    assert store.completed_keys() == {u.key for u in spec.expand()}
