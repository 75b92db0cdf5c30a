"""Distributed tracing & profiling: shards, merge determinism, analysis.

The acceptance bar: every rank-process span of a campaign unit carries
the originating request's trace id, re-running a unit under the same
context writes a byte-identical merged trace, a checkpointed restore
keeps the trace identity (same trace id, new span lineage), and the
critical-path extraction agrees with the communicator's
``rank_wait_s``.
"""

import json
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.worker import run_unit_safe
from repro.hardware import VirtualClock
from repro.telemetry import (
    SpanEvent,
    TraceCollector,
    collapsed_stacks,
    critical_path,
    diff_traces,
    gating_consistent_with_waits,
    merge_shards,
    merged_trace_path,
    mint_context,
    read_trace_jsonl,
    read_trace_shard,
)
from repro.telemetry.events import TRACK_FAULTS, TRACK_FUNCTIONS
from repro.telemetry.profile import (
    MAIN_SHARD,
    RANK_PROCESS_SPAN,
    shard_name_for,
)


def _span(name, rank, t0, t1, step=None):
    args = {} if step is None else {"step": step}
    return SpanEvent(
        name=name, rank=rank, t0_s=t0, t1_s=t1,
        track=TRACK_FUNCTIONS, args=args,
    )


def _spec(**overrides):
    base = dict(
        name="prof-t",
        workloads=("sedov",),
        policies=({"kind": "baseline"},),
        systems=("miniHPC",),
        particles=(10_000.0,),
        steps=3,
        ranks=2,
        seeds=(0,),
    )
    base.update(overrides)
    return CampaignSpec(**base)


# ---------------------------------------------------------------------------
# shard partitioning and flush
# ---------------------------------------------------------------------------


def test_shard_name_rule():
    assert shard_name_for(_span("F", 1, 0.0, 1.0)) == "rank-1"
    fault = SpanEvent(
        name="phase", rank=0, t0_s=0.0, t1_s=1.0, track=TRACK_FAULTS
    )
    assert shard_name_for(fault) == MAIN_SHARD


def test_flush_shards_partitions_and_synthesizes_rank_spans(tmp_path):
    clocks = [VirtualClock(), VirtualClock()]
    collector = TraceCollector(clocks=clocks)
    root = mint_context(seed="flush")
    collector.configure_tracing(root, shard_dir=str(tmp_path))
    for rank in (0, 1):
        collector.before_function("XMass", rank)
        clocks[rank].advance(0.1 * (rank + 1))
        collector.after_function("XMass", rank)
    collector.emit_instant("note", 0, ts=0.0, track=TRACK_FAULTS)

    paths = collector.flush_shards()
    names = sorted(p.rsplit("/", 1)[-1] for p in paths)
    assert names == ["main.jsonl", "rank-0.jsonl", "rank-1.jsonl"]

    header, events = read_trace_shard(str(tmp_path / "rank-1.jsonl"))
    assert header["trace_id"] == root.trace_id
    assert header["span_id"] == root.child("rank-1").span_id
    assert header["parent_span_id"] == root.span_id
    lifetimes = [e for e in events if e.name == RANK_PROCESS_SPAN]
    assert len(lifetimes) == 1
    assert lifetimes[0].args["parent_span_id"] == root.span_id

    trace_id, merged = merge_shards(str(tmp_path))
    assert trace_id == root.trace_id
    # Every span/instant of the merged trace carries the root trace id.
    stamped = [e for e in merged if "trace_id" in getattr(e, "args", {})]
    assert stamped
    assert {e.args["trace_id"] for e in stamped} == {root.trace_id}


def test_flush_without_context_or_dir_raises(tmp_path):
    collector = TraceCollector(clocks=[VirtualClock()])
    with pytest.raises(RuntimeError):
        collector.flush_shards(str(tmp_path))
    collector.configure_tracing(mint_context(seed="x"))
    with pytest.raises(RuntimeError):
        collector.flush_shards()


def test_merge_shards_rejects_mixed_traces(tmp_path):
    a = TraceCollector(clocks=[VirtualClock()])
    a.configure_tracing(mint_context(seed="a"))
    a.emit_instant("x", 0, ts=0.0)
    a.flush_shards(str(tmp_path))
    # A foreign shard under a different trace id poisons the merge.
    b = TraceCollector(clocks=[VirtualClock()])
    b.configure_tracing(mint_context(seed="b"))
    b.emit_instant("y", 0, ts=0.0)
    (line_path,) = b.flush_shards(str(tmp_path / "other"))
    (tmp_path / "stray.jsonl").write_bytes(
        (tmp_path / "other" / "rank-0.jsonl").read_bytes()
        if (tmp_path / "other" / "rank-0.jsonl").exists()
        else open(line_path, "rb").read()
    )
    with pytest.raises(ValueError):
        merge_shards(str(tmp_path))


# ---------------------------------------------------------------------------
# end-to-end: traced unit execution
# ---------------------------------------------------------------------------


def _run_traced_unit(tmp_path, label, trace=None):
    (unit,) = _spec().expand()
    if trace is None:
        root = mint_context(seed="determinism")
        trace = root.child(f"unit:{unit.key}").to_dict()
    trace_dir = str(tmp_path / label)
    outcome = run_unit_safe(unit.config(), trace=trace, trace_dir=trace_dir)
    assert outcome["ok"], outcome.get("error")
    return outcome, trace_dir


def test_merged_trace_identical_across_reruns(tmp_path):
    """The determinism claim: virtual timestamps and content-hashed
    span ids make two runs of the same unit under the same context
    merge to byte-identical traces."""
    trace = mint_context(seed="determinism").child("unit:same").to_dict()
    out_a, dir_a = _run_traced_unit(tmp_path, "a", trace=trace)
    out_b, dir_b = _run_traced_unit(tmp_path, "b", trace=trace)

    merged_a = Path(merged_trace_path(dir_a)).read_bytes()
    merged_b = Path(merged_trace_path(dir_b)).read_bytes()
    assert merged_a == merged_b
    assert out_a["result"]["trace"] == out_b["result"]["trace"]
    assert out_a["result"]["trace"]["events"] > 0


def test_unit_payload_records_trace_identity(tmp_path):
    outcome, trace_dir = _run_traced_unit(tmp_path, "one")
    doc = outcome["result"]["trace"]
    events = read_trace_jsonl(str(merged_trace_path(trace_dir)))
    stamped = {
        e.args["trace_id"]
        for e in events
        if "trace_id" in getattr(e, "args", {})
    }
    assert stamped == {doc["trace_id"]}
    lifetimes = [
        e for e in events if getattr(e, "name", None) == RANK_PROCESS_SPAN
    ]
    assert len(lifetimes) == 2  # one per rank


def test_untraced_unit_has_no_trace_artifacts(tmp_path):
    (unit,) = _spec().expand()
    outcome = run_unit_safe(unit.config())
    assert outcome["ok"]
    assert "trace" not in outcome["result"]


# ---------------------------------------------------------------------------
# continuity: checkpointed restore under a preempted (killed) lane
# ---------------------------------------------------------------------------


def test_preempted_unit_keeps_trace_id_with_new_lineage(tmp_path):
    """A unit kicked out mid-run and resumed from its checkpoint stays
    on the originating trace id, but its post-restore rank-process spans
    are new, parented on the restarted context."""
    spec = _spec(
        fault_scenario="preempt-mid-run", steps=8, checkpoint_every=2,
    )
    collector = TraceCollector(max_events=100_000)
    root = mint_context(seed="continuity")
    collector.configure_tracing(root)
    status, store = run_campaign(
        spec, str(tmp_path / "store"), telemetry=collector
    )
    assert status.failed == 0
    assert status.retries >= 1
    assert status.checkpoint_hits == 1

    (unit,) = spec.expand()
    unit_ctx = root.child(f"unit:{unit.key}")
    events = read_trace_jsonl(
        str(merged_trace_path(str(store.unit_trace_dir(unit.key))))
    )
    stamped = {
        e.args["trace_id"]
        for e in events
        if "trace_id" in getattr(e, "args", {})
    }
    assert stamped == {root.trace_id}

    lifetimes = [
        e for e in events if getattr(e, "name", None) == RANK_PROCESS_SPAN
    ]
    assert lifetimes
    for span in lifetimes:
        assert span.args["trace_id"] == root.trace_id
        # New lineage: the resumed attempt's shards are parented on the
        # checkpoint-restarted context, not the original unit span.
        assert span.args["parent_span_id"] != unit_ctx.span_id


# ---------------------------------------------------------------------------
# analysis: critical path, stacks, diff
# ---------------------------------------------------------------------------


def test_critical_path_names_latest_arrival():
    events = [
        _span("K", 0, 0.0, 1.0, step=0),
        _span("K", 1, 0.0, 1.5, step=0),  # rank 1 arrives last
        _span("K", 0, 1.5, 3.0, step=1),  # rank 0 arrives last
        _span("K", 1, 1.5, 2.0, step=1),
    ]
    steps = critical_path(events)
    assert [(s.step, s.gating_rank) for s in steps] == [(0, 1), (1, 0)]
    assert steps[0].slack_s[0] == pytest.approx(0.5)
    assert steps[0].slack_s[1] == 0.0


def test_critical_path_tie_breaks_to_lowest_rank():
    events = [
        _span("K", 0, 0.0, 1.0, step=0),
        _span("K", 1, 0.0, 1.0, step=0),
    ]
    (step,) = critical_path(events)
    assert step.gating_rank == 0


def test_gating_consistency_with_rank_waits():
    steps = critical_path(
        [
            _span("K", 0, 0.0, 1.0, step=0),
            _span("K", 1, 0.0, 1.5, step=0),
        ]
    )
    # Rank 1 gates, so it must carry the minimum accumulated wait.
    assert gating_consistent_with_waits(steps, [0.5, 0.0])
    assert not gating_consistent_with_waits(steps, [0.0, 0.5])
    assert gating_consistent_with_waits([], [0.0, 0.5])  # vacuous
    assert gating_consistent_with_waits(steps, [])  # vacuous


def test_collapsed_stacks_shape():
    lines = collapsed_stacks(
        [_span("XMass", 0, 0.0, 0.5), _span("XMass", 0, 1.0, 1.5)]
    )
    assert lines == ["rank 0;XMass 1000000"]


def test_diff_traces_flags_regressions_and_new_costs():
    a = [_span("F", 0, 0.0, 1.0)]
    b = [_span("F", 0, 0.0, 1.1), _span("G", 0, 0.0, 0.2)]
    result = diff_traces(a, b, threshold=0.05)
    assert result["regressions"] == ["F", "G"]
    by_name = {r["function"]: r for r in result["functions"]}
    assert by_name["F"]["delta_frac"] == pytest.approx(0.1)
    assert by_name["G"]["delta_frac"] == float("inf")
    # Within threshold: not a regression.
    calm = diff_traces(a, [_span("F", 0, 0.0, 1.01)], threshold=0.05)
    assert calm["regressions"] == []


def test_merged_trace_round_trips_through_jsonl(tmp_path):
    _, trace_dir = _run_traced_unit(tmp_path, "rt")
    path = str(merged_trace_path(trace_dir))
    events = read_trace_jsonl(path)
    assert events
    payload = json.loads(open(path, encoding="utf-8").readline())
    assert payload["kind"] == "trace"
    assert "trace_id" in payload
