"""Distributed tracing & profiling: merge, determinism, analysis.

The acceptance bar: every rank-process span of a campaign unit carries
the originating request's trace id, re-running a unit under the same
context writes a byte-identical merged trace, the in-memory merge
writes the bytes :func:`merge_shards` gives over the run's per-rank
shards, a checkpointed restore keeps the trace identity (same trace
id, new span lineage), and the critical-path extraction agrees with
the communicator's ``rank_wait_s``.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.worker import run_unit_safe
from repro.hardware import VirtualClock
from repro.telemetry import (
    SpanEvent,
    TraceCollector,
    atomic_write_lines,
    collapsed_stacks,
    critical_path,
    diff_traces,
    gating_consistent_with_waits,
    merge_shards,
    merged_trace_path,
    mint_context,
    read_trace_jsonl,
    read_trace_shard,
    write_merged_trace,
)
from repro.telemetry.events import (
    TRACK_CLOCKS,
    TRACK_FAULTS,
    TRACK_FUNCTIONS,
    TRACK_JOB,
    event_sort_key,
)
from repro.telemetry.profile import (
    MAIN_SHARD,
    RANK_PROCESS_SPAN,
    partition_events,
    rank_process_span,
    shard_lines,
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
# reference shards: the format merge_shards reads
# ---------------------------------------------------------------------------


def _write_reference_shards(context, events, directory):
    """The per-rank shard files of a run, one ``<shard>.jsonl`` each:
    rank shards carry their synthesized rank-process span and a header
    under ``context.child("rank-N")``, the main shard the run's own
    context."""
    os.makedirs(directory, exist_ok=True)
    for name, bucket in partition_events(events).items():
        shard_ctx = context
        if name != MAIN_SHARD:
            shard_ctx = context.child(name)
            rank = int(name.split("-", 1)[1])
            lifetime = rank_process_span(context, shard_ctx, rank, bucket)
            bucket = sorted(bucket + [lifetime], key=event_sort_key)
        atomic_write_lines(
            os.path.join(directory, f"{name}.jsonl"),
            shard_lines(shard_ctx, name, bucket),
        )


def _reference_merge(shard_dir, out_path):
    """Merged-trace bytes of :func:`merge_shards` over ``shard_dir``."""
    trace_id, events = merge_shards(str(shard_dir))
    write_merged_trace(str(out_path), events, trace_id=trace_id)
    return Path(out_path).read_bytes()


def _two_rank_collector(root):
    clocks = [VirtualClock(), VirtualClock()]
    collector = TraceCollector(clocks=clocks)
    collector.configure_tracing(root)
    for rank in (0, 1):
        collector.before_function("XMass", rank)
        clocks[rank].advance(0.1 * (rank + 1))
        collector.after_function("XMass", rank)
    collector.emit_instant("note", 0, ts=0.0, track=TRACK_FAULTS)
    return collector


# ---------------------------------------------------------------------------
# rank partitioning and the merged-trace flush
# ---------------------------------------------------------------------------


def test_shard_name_rule():
    assert shard_name_for(_span("F", 1, 0.0, 1.0)) == "rank-1"
    fault = SpanEvent(
        name="phase", rank=0, t0_s=0.0, t1_s=1.0, track=TRACK_FAULTS
    )
    assert shard_name_for(fault) == MAIN_SHARD


def test_flush_shards_partitions_and_synthesizes_rank_spans(tmp_path):
    root = mint_context(seed="flush")
    collector = _two_rank_collector(root)
    trace_dir = tmp_path / "trace"

    # The flush writes one merged trace and no per-rank shard file.
    paths = collector.flush_shards(str(trace_dir))
    assert paths == [merged_trace_path(str(trace_dir))]
    assert sorted(os.listdir(trace_dir)) == ["merged.jsonl"]
    events = read_trace_jsonl(paths[0])
    assert collector.flushed_events == len(events)
    header = json.loads(Path(paths[0]).read_text().splitlines()[0])
    assert header["trace_id"] == root.trace_id

    # Partition: one main shard plus one shard per rank, each rank
    # shard headed by the rank's child context.
    assert sorted(partition_events(collector.events)) == [
        "main", "rank-0", "rank-1"
    ]
    ref_dir = tmp_path / "shards"
    _write_reference_shards(root, collector.events, ref_dir)
    shard_header, shard_events = read_trace_shard(
        str(ref_dir / "rank-1.jsonl")
    )
    assert shard_header["trace_id"] == root.trace_id
    assert shard_header["span_id"] == root.child("rank-1").span_id
    assert shard_header["parent_span_id"] == root.span_id
    assert [e.name for e in shard_events].count(RANK_PROCESS_SPAN) == 1

    # One synthesized lifetime span per rank, under the rank's child
    # context and parented on the run's span.
    lifetimes = {
        e.rank: e for e in events if e.name == RANK_PROCESS_SPAN
    }
    assert sorted(lifetimes) == [0, 1]
    for rank, span in lifetimes.items():
        assert span.args["span_id"] == root.child(f"rank-{rank}").span_id
        assert span.args["parent_span_id"] == root.span_id
    # Every span/instant of the merged trace carries the root trace id.
    stamped = [e for e in events if "trace_id" in getattr(e, "args", {})]
    assert stamped
    assert {e.args["trace_id"] for e in stamped} == {root.trace_id}

    # And the bytes are those merge_shards gives over the shards.
    assert Path(paths[0]).read_bytes() == _reference_merge(
        ref_dir, tmp_path / "ref.jsonl"
    )


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
    _write_reference_shards(a.context, a.events, tmp_path)
    # A foreign shard under a different trace id poisons the merge.
    b = TraceCollector(clocks=[VirtualClock()])
    b.configure_tracing(mint_context(seed="b"))
    b.emit_instant("y", 0, ts=0.0)
    _write_reference_shards(b.context, b.events, tmp_path / "other")
    (tmp_path / "stray.jsonl").write_bytes(
        (tmp_path / "other" / "rank-0.jsonl").read_bytes()
    )
    with pytest.raises(ValueError):
        merge_shards(str(tmp_path))

    # The in-memory flush never mixes traces: a merged trace another
    # trace left in the dir is superseded, not merged in.
    b.flush_shards(str(tmp_path / "flushed"))
    a.flush_shards(str(tmp_path / "flushed"))
    events = read_trace_jsonl(merged_trace_path(str(tmp_path / "flushed")))
    assert {e.args["trace_id"] for e in events if hasattr(e, "args")} == {
        a.context.trace_id
    }
    assert [e.name for e in events if e.track == TRACK_CLOCKS] == ["x"]


def _tied_collector(root, n_ranks=12):
    """A ring that stresses the merge order: a main-shard job phase
    ties (same ts, rank and track) with rank 0's lifetime span, ranks
    run past 9 (``rank-10`` sorts before ``rank-2``), and integer
    timestamps and counter values change when read back."""
    clocks = [VirtualClock() for _ in range(n_ranks)]
    collector = TraceCollector(clocks=clocks)
    collector.configure_tracing(root)
    collector.emit_phase("queued", 0, 0.0, 0.0, track=TRACK_JOB)
    for rank in range(n_ranks):
        collector.before_function("XMass", rank)
        clocks[rank].advance(0.01 * (rank % 3 + 1))
        collector.after_function("XMass", rank)
        collector.record_clock_set(rank, to_mhz=1410, from_mhz=1005)
    collector.emit_counter_sample("power", 3, {"w": 250}, ts=0)
    collector.emit_phase("accounting", 0, 0, 1, track=TRACK_JOB, n=3)
    collector.emit_instant("odd-args", 1, ts=2, track=TRACK_FAULTS,
                           seen=(1, 2), where={"a": 1})
    return collector


def test_in_memory_merge_matches_merge_shards_on_ties(tmp_path):
    root = mint_context(seed="ties")
    collector = _tied_collector(root)
    (path,) = collector.flush_shards(str(tmp_path / "trace"))
    _write_reference_shards(root, collector.events, tmp_path / "shards")
    assert Path(path).read_bytes() == _reference_merge(
        tmp_path / "shards", tmp_path / "ref.jsonl"
    )


def test_retried_attempt_keeps_earlier_shards_it_did_not_produce(tmp_path):
    """A restored attempt writes only rank events: the main shard (the
    preemption instants) of the attempt before it stays in the unit's
    trace, as it did when each attempt left shard files behind."""
    root = mint_context(seed="retry")
    first = _tied_collector(root, n_ranks=3)
    restarted = root.restarted(2)
    clocks = [VirtualClock() for _ in range(3)]
    second = TraceCollector(clocks=clocks)
    second.configure_tracing(restarted)
    for rank in range(3):
        clocks[rank].advance(1.0)
        second.before_function("XMass", rank)
        clocks[rank].advance(0.02)
        second.after_function("XMass", rank)

    trace_dir = tmp_path / "trace"
    first.flush_shards(str(trace_dir))
    (path,) = second.flush_shards(str(trace_dir))
    shard_dir = tmp_path / "shards"
    _write_reference_shards(root, first.events, shard_dir)
    _write_reference_shards(restarted, second.events, shard_dir)
    assert Path(path).read_bytes() == _reference_merge(
        shard_dir, tmp_path / "ref.jsonl"
    )
    names = [e.name for e in read_trace_jsonl(path)]
    assert "queued" in names and "odd-args" in names


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


#: SHA-256 and event count of ``merged.jsonl`` for pinned traced units,
#: recorded when every run still wrote per-rank shards and merged them
#: with :func:`merge_shards`: (ranks, overrides) -> (sha256, events).
PINNED_MERGED = {
    "1-rank": (
        dict(ranks=1),
        "8afb25cd0c96b99b0288c18b1594cdd600436b4553c5b1be681cd070e7fbc19a",
        55,
    ),
    "2-rank": (
        dict(ranks=2),
        "e1e0c0e626e491d6243e9de399c5ca700a45f93ea0d67ce46adc4ea4c12ce3a3",
        110,
    ),
    "8-rank": (
        dict(ranks=8),
        "abbb67506b2bf9520b5b80fe39c6bb535de464c5c2bae7326b99d05fcec06226",
        440,
    ),
    # Fault instants land on the main shard.
    "flaky-clocks": (
        dict(ranks=2, steps=6, fault_scenario="flaky-clocks",
             policies=({"kind": "mandyn"},)),
        "d819eec992538044a5167ebe84e43d75ec1320ebfe98ec222f056519e985c112",
        272,
    ),
}

#: The same for a unit preempted mid-run and restored from its
#: checkpoint: the restored attempt's rank shards (restarted lineage)
#: plus the preempted attempt's main shard.
PINNED_RESTORED = (
    "30a8ebe48039e8e8a1943d2686a81ba30d5826e7620ccbb7762e8cd6b86946c6",
    184,
)


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED_MERGED))
def test_merged_trace_bytes_are_pinned(tmp_path, case):
    overrides, digest, n_events = PINNED_MERGED[case]
    (unit,) = _spec(name="dig", **overrides).expand()
    trace = mint_context(seed="pin").child(f"unit:{unit.key}").to_dict()
    trace_dir = tmp_path / "trace"
    outcome = run_unit_safe(
        unit.config(), trace=trace, trace_dir=str(trace_dir)
    )
    assert outcome["ok"], outcome.get("error")
    assert os.listdir(trace_dir) == ["merged.jsonl"]
    assert _sha256(merged_trace_path(str(trace_dir))) == digest
    assert outcome["result"]["trace"] == {
        "trace_id": trace["trace_id"],
        "span_id": trace["span_id"],
        "events": n_events,
    }


def test_restored_unit_merged_trace_bytes_are_pinned(tmp_path):
    spec = _spec(
        name="dig-pre", steps=8, fault_scenario="preempt-mid-run",
        checkpoint_every=2,
    )
    collector = TraceCollector(max_events=100_000)
    collector.configure_tracing(mint_context(seed="continuity"))
    status, store = run_campaign(
        spec, str(tmp_path / "store"), telemetry=collector
    )
    assert status.checkpoint_hits == 1
    (unit,) = spec.expand()
    trace_dir = str(store.unit_trace_dir(unit.key))
    assert os.listdir(trace_dir) == ["merged.jsonl"]
    assert _sha256(merged_trace_path(trace_dir)) == PINNED_RESTORED[0]
    (artifact,) = store.results()
    assert artifact["result"]["trace"]["events"] == PINNED_RESTORED[1]


@pytest.mark.parametrize(
    "ranks,scenario", [(1, None), (2, None), (8, None), (2, "chaos")]
)
def test_traced_run_matches_merge_shards(tmp_path, ranks, scenario):
    """A real run's flush writes the bytes merge_shards gives over the
    shards written from the same ring."""
    from repro.core import ManDynPolicy, ResilienceConfig
    from repro.faults import FaultInjector, build_plan
    from repro.sph import run_instrumented
    from repro.systems import Cluster, by_name

    cluster = Cluster(by_name("miniHPC"), ranks)
    collector = TraceCollector.for_cluster(cluster)
    context = mint_context(seed="reference").child("unit")
    trace_dir = tmp_path / "trace"
    collector.configure_tracing(context, trace_dir=str(trace_dir))
    faults = None
    if scenario is not None:
        faults = FaultInjector(build_plan(scenario, seed=3, n_ranks=ranks))
    try:
        run_instrumented(
            cluster, "sedov", 1e4, 6,
            policy=ManDynPolicy({"MomentumEnergy": 1410.0},
                                default_mhz=1005.0),
            telemetry=collector,
            faults=faults,
            resilience=ResilienceConfig() if faults is not None else None,
        )
    finally:
        cluster.detach_management_library()
    _write_reference_shards(context, collector.events, tmp_path / "shards")
    merged = Path(merged_trace_path(str(trace_dir))).read_bytes()
    assert merged == _reference_merge(
        tmp_path / "shards", tmp_path / "ref.jsonl"
    )
    assert collector.flushed_events == len(merged.splitlines()) - 1


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
