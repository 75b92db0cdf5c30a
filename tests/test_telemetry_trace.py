"""End-to-end trace properties: completeness, export, reconciliation.

The acceptance bar of the observability layer: for an N-step run the
collector holds exactly one span per hooked function per step per rank,
clock-change instants line up with the controller's ``clock_set_calls``,
the Chrome export is valid and time-ordered, and summed span durations
reconcile with the independently gathered :class:`EnergyReport`.
"""

import json

import pytest

from repro.core import ManDynPolicy
from repro.sph import Simulation, run_instrumented
from repro.systems import Cluster, by_name
from repro.telemetry import (
    RECONCILE_TOL_S,
    TRACK_CLOCKS,
    TRACK_FUNCTIONS,
    TraceCollector,
    max_drift_s,
    read_trace_jsonl,
    reconcile_with_report,
    render_summary,
    summarize_functions,
    to_chrome_trace,
    write_chrome_trace,
    write_trace_jsonl,
)

N_STEPS = 3
N_RANKS = 4


@pytest.fixture
def traced_run():
    # miniHPC allows user application-clock control, so ManDyn performs
    # real (simulated) NVML clock-set calls; 4 ranks span 2 nodes.
    cluster = Cluster(by_name("miniHPC"), N_RANKS)
    collector = TraceCollector.for_cluster(cluster)
    policy = ManDynPolicy(
        {"MomentumEnergy": 1410.0, "XMass": 1005.0}, default_mhz=1110.0
    )
    sim = Simulation(
        cluster, "SubsonicTurbulence", 1e5, policy=policy, telemetry=collector
    )
    result = sim.run(N_STEPS)
    yield cluster, sim, collector, result
    cluster.detach_management_library()


def test_one_span_per_function_per_step_per_rank(traced_run):
    _, sim, collector, _ = traced_run
    spans = collector.spans(TRACK_FUNCTIONS)
    functions = [f.name for f in sim.functions]
    assert len(spans) == len(functions) * N_STEPS * N_RANKS
    for fn in functions:
        for rank in range(N_RANKS):
            for step in range(N_STEPS):
                matching = [
                    s
                    for s in spans
                    if s.name == fn
                    and s.rank == rank
                    and s.args["step"] == step
                ]
                assert len(matching) == 1, (fn, rank, step)


def test_clock_instants_line_up_with_clock_set_calls(traced_run):
    _, sim, collector, result = traced_run
    performed = [
        i
        for i in collector.instants(TRACK_CLOCKS)
        if i.name in ("clock-set", "clock-reset")
    ]
    assert result.clock_set_calls > 0  # ManDyn switches between bins
    assert len(performed) == result.clock_set_calls
    assert (
        collector.metrics.counter_total("clock_set_calls")
        == result.clock_set_calls
    )
    assert (
        collector.metrics.counter_total("clock_set_skipped")
        == result.clock_set_skipped
    )


def test_chrome_export_is_valid_and_ordered(tmp_path, traced_run):
    _, sim, collector, _ = traced_run
    path = str(tmp_path / "trace.json")
    write_chrome_trace(path, collector.events, label="test")
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    events = payload["traceEvents"]
    assert payload["otherData"]["schema"] == 1
    data = [e for e in events if e["ph"] != "M"]
    assert data, "export must carry events"
    assert all(e["ph"] in ("X", "i", "C") for e in data)
    # Global timestamps are non-decreasing.
    ts = [e["ts"] for e in data]
    assert ts == sorted(ts)
    # Per rank, successive spans of one function strictly advance.
    for rank in range(N_RANKS):
        for fn in (f.name for f in sim.functions):
            fn_ts = [
                e["ts"]
                for e in data
                if e["ph"] == "X" and e["pid"] == rank and e["name"] == fn
            ]
            assert len(fn_ts) == N_STEPS
            assert all(a < b for a, b in zip(fn_ts, fn_ts[1:]))
    # Spans have non-negative microsecond durations.
    assert all(e["dur"] >= 0.0 for e in data if e["ph"] == "X")
    # Process metadata names every rank.
    names = {
        e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert names == {f"rank {r}" for r in range(N_RANKS)}


def test_jsonl_roundtrip_is_lossless(tmp_path, traced_run):
    _, _, collector, _ = traced_run
    path = str(tmp_path / "trace.jsonl")
    write_trace_jsonl(path, collector.events)
    loaded = read_trace_jsonl(path)
    from repro.telemetry.events import event_sort_key

    expected = sorted(collector.events, key=event_sort_key)
    assert loaded == expected  # exact: names, ranks, tracks, timestamps
    # Header is validated: a future schema version is rejected.
    lines = open(path, encoding="utf-8").read().splitlines()
    header = json.loads(lines[0])
    header["schema"] = 99
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(ValueError):
        read_trace_jsonl(str(bad))


def test_trace_reconciles_with_energy_report(traced_run):
    _, sim, collector, result = traced_run
    rows = reconcile_with_report(collector.events, result.report)
    assert {r.function for r in rows} == {f.name for f in sim.functions}
    assert max_drift_s(rows) < RECONCILE_TOL_S
    assert all(r.ok() for r in rows)
    # The roll-up really is the sum over rank spans.
    summaries = summarize_functions(collector.events)
    agg = result.report.aggregate_functions()
    for name, summary in summaries.items():
        assert summary.spans == N_STEPS * N_RANKS
        assert summary.total_s == pytest.approx(agg[name].time_s, abs=1e-9)


def test_render_summary_mentions_everything(traced_run):
    _, _, collector, result = traced_run
    text = render_summary(collector, result.report)
    assert "clock_set_calls" in text
    assert "per-function trace roll-up" in text
    assert "trace vs EnergyReport reconciliation" in text
    assert "MomentumEnergy" in text


def test_telemetry_is_opt_in_and_zero_cost():
    cluster = Cluster(by_name("miniHPC"), 1)
    sim = Simulation(cluster, "SedovBlast", 1e5)
    baseline = sim.run(2)
    # No collector => no extra hooks beyond controller + profiler.
    assert len(sim.hooks) == 2
    assert sim.telemetry is None
    cluster.detach_management_library()

    cluster2 = Cluster(by_name("miniHPC"), 1)
    collector = TraceCollector.for_cluster(cluster2)
    sim2 = Simulation(cluster2, "SedovBlast", 1e5, telemetry=collector)
    traced = sim2.run(2)
    assert len(sim2.hooks) == 3
    cluster2.detach_management_library()

    # Tracing must not perturb the measured run at all.
    assert traced.elapsed_s == baseline.elapsed_s
    assert traced.gpu_energy_j == baseline.gpu_energy_j
    assert traced.report.total_j() == baseline.report.total_j()
    assert traced.clock_set_calls == baseline.clock_set_calls


def test_run_instrumented_accepts_telemetry():
    cluster = Cluster(by_name("miniHPC"), 1)
    collector = TraceCollector()  # unbound: Simulation late-binds it
    result = run_instrumented(
        cluster, "SedovBlast", 1e5, 2, telemetry=collector
    )
    cluster.detach_management_library()
    assert collector.bound
    assert len(collector.spans(TRACK_FUNCTIONS)) == 9 * 2
    assert max_drift_s(
        reconcile_with_report(collector.events, result.report)
    ) < RECONCILE_TOL_S


def test_chrome_trace_in_memory_counts(traced_run):
    _, sim, collector, _ = traced_run
    payload = to_chrome_trace(collector.events)
    spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    n_functions = len(sim.functions)
    assert len(spans) == n_functions * N_STEPS * N_RANKS


# ---------------------------------------------------------------------------
# read_trace_jsonl robustness
# ---------------------------------------------------------------------------


def _tiny_trace(tmp_path):
    collector = TraceCollector()
    collector.emit_phase("k", 0, 0.0, 1.0)
    path = str(tmp_path / "trace.jsonl")
    write_trace_jsonl(path, collector.events)
    return path


def test_read_trace_jsonl_skips_blank_lines(tmp_path):
    path = _tiny_trace(tmp_path)
    lines = open(path, encoding="utf-8").read().splitlines()
    padded = "\n\n".join([lines[0], *lines[1:]]) + "\n\n\n"
    open(path, "w", encoding="utf-8").write(padded)
    assert len(read_trace_jsonl(path)) == 1


def test_read_trace_jsonl_names_file_and_line_on_bad_json(tmp_path):
    path = _tiny_trace(tmp_path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{truncated\n")
    with pytest.raises(ValueError, match=r"trace\.jsonl:3: not valid JSON"):
        read_trace_jsonl(path)


def test_read_trace_jsonl_schema_mismatch_is_a_clear_error(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"schema": 99, "kind": "trace"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r"trace\.jsonl:1: bad trace header"):
        read_trace_jsonl(str(path))


def test_read_trace_jsonl_bad_record_names_line(tmp_path):
    path = _tiny_trace(tmp_path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"ev": "span", "name": "x"}\n')  # missing required fields
    with pytest.raises(ValueError, match=r"trace\.jsonl:3: bad trace record"):
        read_trace_jsonl(path)


def test_read_trace_jsonl_blank_only_file_is_empty_error(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(ValueError, match="empty trace file"):
        read_trace_jsonl(str(path))
