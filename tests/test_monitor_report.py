"""HTML run report: sparklines, alert timeline, reconciliation table."""

import json

import pytest

from repro.monitor import (
    Monitor,
    MonitorConfig,
    build_report,
    render_html,
    write_html_report,
    write_json_snapshot,
)
from repro.sph import run_instrumented
from repro.systems import Cluster, by_name
from repro.telemetry import TraceCollector


@pytest.fixture(scope="module")
def monitored_run():
    """One real monitored sedov run shared by the report tests."""
    collector = TraceCollector(max_events=50_000)
    monitor = Monitor(MonitorConfig(period_s=0.02), telemetry=collector)
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        result = run_instrumented(
            cluster, "SedovBlast", 100_000, 4,
            telemetry=collector, monitor=monitor,
        )
    finally:
        cluster.detach_management_library()
    return monitor, collector, result


def test_build_report_payload_shape(monitored_run):
    monitor, collector, result = monitored_run
    data = monitor.snapshot(collector=collector, report=result.report,
                            meta={"workload": "sedov"})
    assert data["schema"] == 1 and data["kind"] == "monitor-report"
    assert data["n_ranks"] == 1
    names = {s["name"] for s in data["series"]}
    assert {"power_w", "clock_mhz", "temp_c", "energy_j"} <= names
    assert data["t_max_s"] > data["t_min_s"]
    assert data["functions"]  # energy table present
    assert data["reconciliation"]["ok"] is True
    json.dumps(data)  # fully JSON-serializable


def test_report_has_at_least_four_sparklines_from_real_run(monitored_run):
    monitor, collector, result = monitored_run
    html = render_html(
        monitor.snapshot(collector=collector, report=result.report)
    )
    # Acceptance: >= 4 device time-series sparklines, self-contained.
    assert html.count('<svg class="spark"') >= 4
    assert "<style>" in html
    for forbidden in ("http://", "https://", "<script", "<link", "<img"):
        assert forbidden not in html, forbidden


def test_report_renders_alert_timeline():
    data = {
        "schema": 1, "kind": "monitor-report", "title": "t", "meta": {},
        "t_min_s": 0.0, "t_max_s": 10.0, "n_ranks": 1, "period_s": 0.05,
        "samples_taken": 3, "series": [], "rules": [], "gaps": [],
        "functions": [], "reconciliation": {}, "metrics": {},
        "alerts": [
            {"rule": "clock_throttle_detected", "severity": "critical",
             "rank": 0, "series": "throttle_active", "condition": "x",
             "t_start_s": 2.0, "t_fired_s": 2.0, "t_resolved_s": 6.0,
             "value": 1.0},
            {"rule": "sampler_gap", "severity": "warning", "rank": 0,
             "series": "sampler_gap_ticks", "condition": "y",
             "t_start_s": 7.0, "t_fired_s": 7.0, "t_resolved_s": None,
             "value": 3.0},
        ],
    }
    html = render_html(data)
    assert '<svg class="timeline"' in html
    assert "clock_throttle_detected" in html
    assert "sampler_gap" in html
    assert "active" in html  # unresolved alert is marked


def test_report_escapes_untrusted_strings():
    data = {
        "schema": 1, "kind": "monitor-report",
        "title": "<script>alert(1)</script>", "meta": {},
        "t_min_s": 0.0, "t_max_s": 1.0, "n_ranks": 1, "period_s": 0.05,
        "samples_taken": 0, "series": [], "rules": [], "alerts": [],
        "gaps": [], "functions": [], "reconciliation": {}, "metrics": {},
    }
    html = render_html(data)
    assert "<script>" not in html
    assert "&lt;script&gt;" in html


def test_write_html_report_atomic(tmp_path, monitored_run):
    monitor, collector, result = monitored_run
    path = tmp_path / "report.html"
    data = monitor.snapshot(collector=collector, report=result.report)
    text = write_html_report(str(path), data)
    assert path.read_text(encoding="utf-8") == text
    assert [p.name for p in tmp_path.iterdir()] == ["report.html"]


def test_write_json_snapshot_roundtrips(tmp_path, monitored_run):
    monitor, collector, result = monitored_run
    path = tmp_path / "snapshot.json"
    data = monitor.snapshot(collector=collector, report=result.report)
    write_json_snapshot(str(path), data)
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded["kind"] == "monitor-report"
    assert len(loaded["series"]) == len(data["series"])


def test_build_report_flat_series_renders():
    # A constant series (vmin == vmax) must not divide by zero.
    from repro.hardware import SimulatedGpu, VirtualClock
    from repro.monitor import DeviceSampler

    clock = VirtualClock()
    sampler = DeviceSampler(
        [SimulatedGpu(by_name("miniHPC").gpu_spec, clock)], [clock], period_s=0.1
    )
    sampler.start()
    for _ in range(5):
        clock.advance(0.1)
    sampler.stop()
    html = render_html(build_report(sampler))
    assert '<svg class="spark"' in html
