"""Distributed-trace merging and the profiling analysis layer.

One traced run writes **one merged trace** (``merged.jsonl``): at run
end :func:`merge_events` partitions the run's events **by rank**, adds
each rank's synthesized ``rank-process`` span and sorts everything
into one clock-aligned timeline stamped with the run's
:class:`~repro.telemetry.context.TraceContext`. Every timestamp is
rank-local virtual time, so the same run writes a byte-identical
merged trace each time it executes. That determinism is what makes
re-run and pre/post-change trace diffs meaningful.

The per-rank JSONL **shard** format (:func:`shard_lines`,
:func:`read_trace_shard`, :func:`merge_shards`) is the reference
definition of that merge: :func:`merge_shards` over a run's shards
gives the bytes :func:`merge_events` writes.

On top of the merged trace this module implements the analysis layer:

* :func:`critical_path` — which rank gated each step (latest arrival
  at the step's trailing collective), with per-rank slack, consistent
  with :attr:`~repro.mpi.comm.CommStats.rank_wait_s`;
* :func:`attribution_table` — per-kernel x per-rank time/energy rows
  reconciled against the :class:`~repro.core.energy.EnergyReport`;
* :func:`collapsed_stacks` — flamegraph-compatible collapsed-stack
  export (``rank N;Function <microseconds>``);
* :func:`diff_traces` — two-run comparison that flags per-function
  regressions above a threshold.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .chrome_trace import (
    TRACE_LINE_ENCODER,
    atomic_write_lines,
    read_trace_jsonl,
    trace_jsonl_lines,
)
from .context import TraceContext
from .events import (
    TRACK_CLOCKS,
    TRACK_COUNTERS,
    TRACK_FUNCTIONS,
    TRACK_JOB,
    CounterEvent,
    SpanEvent,
    TraceEvent,
    check_schema_header,
    event_sort_key,
    from_record,
    schema_header,
    to_record,
)

#: ``kind`` field of a per-rank shard file's schema header.
SHARD_KIND = "trace-shard"

#: File name of the merged, clock-aligned trace inside a trace dir.
MERGED_TRACE_NAME = "merged.jsonl"

#: Shard holding events that belong to no single rank's execution
#: (job-track phases, fault instants emitted by the parent).
MAIN_SHARD = "main"

#: Tracks whose events belong to the rank that produced them and are
#: therefore recorded in (and persisted by) that rank's shard.
RANK_TRACKS = (TRACK_FUNCTIONS, TRACK_COUNTERS, TRACK_CLOCKS)

#: Name of the per-rank lifetime span each rank shard carries.
RANK_PROCESS_SPAN = "rank-process"

#: Relative regression threshold of :func:`diff_traces`.
DEFAULT_DIFF_THRESHOLD = 0.02


# ---------------------------------------------------------------------------
# Rank partitioning and the merged trace
# ---------------------------------------------------------------------------

def shard_name_for(event: TraceEvent) -> str:
    """Shard an event belongs to (by rank for rank-owned tracks)."""
    if event.track in RANK_TRACKS:
        return f"rank-{event.rank}"
    return MAIN_SHARD


def partition_events(
    events: Iterable[TraceEvent],
) -> Dict[str, List[TraceEvent]]:
    """Group events into shards, each internally sorted."""
    shards: Dict[str, List[TraceEvent]] = {}
    for event in events:
        shards.setdefault(shard_name_for(event), []).append(event)
    for bucket in shards.values():
        bucket.sort(key=event_sort_key)
    return shards


def rank_process_span(
    context: TraceContext,
    rank_context: TraceContext,
    rank: int,
    events: Sequence[TraceEvent],
) -> Optional[SpanEvent]:
    """The rank's own lifetime span, covering its shard's window.

    Derived purely from the (deterministic) rank context and the
    virtual-time window of the rank's events, so re-runs synthesize
    identical spans.
    """
    if not events:
        return None
    t0 = min(e.ts_s for e in events)
    t1 = max(
        e.t1_s if isinstance(e, SpanEvent) else e.ts_s for e in events
    )
    return SpanEvent(
        name=RANK_PROCESS_SPAN,
        rank=rank,
        t0_s=t0,
        t1_s=t1,
        track=TRACK_JOB,
        args={
            "trace_id": context.trace_id,
            "span_id": rank_context.span_id,
            "parent_span_id": context.span_id,
        },
    )


def shard_header(
    context: TraceContext, shard: str, n_events: int
) -> Dict[str, Any]:
    """Schema header of one shard file."""
    header = schema_header(
        SHARD_KIND,
        shard=shard,
        events=n_events,
        trace_id=context.trace_id,
        span_id=context.span_id,
    )
    if context.parent_span_id is not None:
        header["parent_span_id"] = context.parent_span_id
    return header


def shard_lines(
    context: TraceContext, shard: str, events: Sequence[TraceEvent]
) -> List[str]:
    """Serialized shard content: header line + one line per event."""
    encode = TRACE_LINE_ENCODER.encode
    lines = [encode(shard_header(context, shard, len(events)))]
    lines.extend(encode(to_record(e)) for e in events)
    return lines


def read_trace_shard(path: str) -> Tuple[Dict[str, Any], List[TraceEvent]]:
    """Read one shard back as ``(header, events)``; strict like
    :func:`~repro.telemetry.chrome_trace.read_trace_jsonl`."""
    header: Optional[Dict[str, Any]] = None
    events: List[TraceEvent] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON ({exc})"
                ) from None
            if header is None:
                try:
                    check_schema_header(record, SHARD_KIND)
                except (KeyError, ValueError, TypeError) as exc:
                    raise ValueError(
                        f"{path}:{lineno}: bad shard header ({exc})"
                    ) from None
                header = dict(record)
                continue
            try:
                events.append(from_record(record))
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: bad shard record ({exc})"
                ) from None
    if header is None:
        raise ValueError(f"{path}: empty trace shard")
    return header, events


def shard_paths(shard_dir: str) -> List[str]:
    """Shard files of a trace dir, name-sorted (excludes the merge)."""
    try:
        names = sorted(os.listdir(shard_dir))
    except FileNotFoundError:
        return []
    return [
        os.path.join(shard_dir, name)
        for name in names
        if name.endswith(".jsonl") and name != MERGED_TRACE_NAME
    ]


def merge_shards(
    shard_dir: str,
) -> Tuple[Optional[str], List[TraceEvent]]:
    """Merge every shard of a trace dir into one clock-aligned trace.

    Returns ``(trace_id, events)`` with events in the canonical
    :func:`~repro.telemetry.events.event_sort_key` order. All shards
    must agree on the trace id (they came from one request).
    """
    trace_id: Optional[str] = None
    merged: List[TraceEvent] = []
    for path in shard_paths(shard_dir):
        header, events = read_trace_shard(path)
        shard_trace = header.get("trace_id")
        if trace_id is None:
            trace_id = shard_trace
        elif shard_trace is not None and shard_trace != trace_id:
            raise ValueError(
                f"{path}: shard belongs to trace {shard_trace!r}, "
                f"expected {trace_id!r}"
            )
        merged.extend(events)
    merged.sort(key=event_sort_key)
    return trace_id, merged


def write_merged_trace(
    path: str,
    events: Iterable[TraceEvent],
    trace_id: Optional[str] = None,
) -> None:
    """Persist the merged trace (standard ``trace`` JSONL, so
    ``repro trace export`` and :func:`read_trace_jsonl` load it).

    The write is atomic but not fsync'd: the merged trace is
    observability output that no resume path reads, and
    :func:`previous_attempt` treats one that a host crash left missing,
    empty or unreadable as absent.
    """
    extra: Dict[str, Any] = {}
    if trace_id is not None:
        extra["trace_id"] = trace_id
    atomic_write_lines(path, trace_jsonl_lines(events, **extra), fsync=False)


def merged_trace_path(trace_dir: str) -> str:
    return os.path.join(trace_dir, MERGED_TRACE_NAME)


def _shard_of(event: TraceEvent) -> str:
    """Shard of an event read back from a merged trace: a rank's
    lifetime span belongs to that rank, like the rank's own events."""
    if event.name == RANK_PROCESS_SPAN and event.track == TRACK_JOB:
        return f"rank-{event.rank}"
    return shard_name_for(event)


#: Value types a JSON write and read return unchanged (counter values
#: are read back as floats).
_JSON_SCALARS = (str, int, float, bool, type(None))


def _as_read_back(event: TraceEvent) -> TraceEvent:
    """``event`` as a JSON write and read of its record returns it.

    The read turns integer timestamps and counter values into floats
    and non-string keys into strings. An event that already
    round-trips, the common case, is returned as is.
    """
    if isinstance(event, CounterEvent):
        times, fields, scalars = (event.ts_s,), event.values, (float,)
    else:
        fields, scalars = event.args, _JSON_SCALARS
        times = (
            (event.t0_s, event.t1_s)
            if isinstance(event, SpanEvent)
            else (event.ts_s,)
        )
    if (
        type(event.rank) is int
        and all(type(t) is float for t in times)
        and all(
            type(k) is str and type(v) in scalars for k, v in fields.items()
        )
    ):
        return event
    return from_record(json.loads(json.dumps(to_record(event))))


def merge_events(
    context: TraceContext,
    events: Iterable[TraceEvent],
    previous: Iterable[TraceEvent] = (),
) -> List[TraceEvent]:
    """One run's merged trace, built in memory.

    The events are partitioned by rank (:func:`partition_events`),
    each rank gets its :func:`rank_process_span` under
    ``context.child("rank-N")``, and the shards are concatenated in
    name order and stably sorted: the events, order and values
    :func:`merge_shards` reads back from the run's shard files.

    ``previous`` are the events of an earlier attempt's merged trace
    (a retried or checkpoint-restored unit). Each shard this run did
    not produce is taken from it, as the earlier attempt's shard file
    used to be, so a preempted attempt's fault instants stay in the
    unit's trace.
    """
    shards = partition_events(events)
    for name, bucket in shards.items():
        if name != MAIN_SHARD:
            rank = int(name.split("-", 1)[1])
            bucket.append(
                rank_process_span(context, context.child(name), rank, bucket)
            )
    carried: Dict[str, List[TraceEvent]] = {}
    for event in previous:
        name = _shard_of(event)
        if name not in shards:
            carried.setdefault(name, []).append(event)
    shards.update(carried)
    merged = [event for name in sorted(shards) for event in shards[name]]
    merged.sort(key=event_sort_key)
    return [_as_read_back(event) for event in merged]


def previous_attempt(path: str, trace_id: str) -> List[TraceEvent]:
    """Events of the merged trace at ``path`` when it belongs to
    ``trace_id``; ``[]`` when there is none, it is unreadable, or it
    belongs to another trace (a later run supersedes it)."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        if header.get("trace_id") != trace_id:
            return []
        return read_trace_jsonl(path)
    except (OSError, ValueError):
        return []


# ---------------------------------------------------------------------------
# Critical-path extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepCritical:
    """Who gated one step: the rank every other rank waited for."""

    step: int
    gating_rank: int
    #: Latest per-rank arrival at the step's end, rank -> t1 seconds.
    arrival_s: Dict[int, float] = field(default_factory=dict)
    #: Summed kernel busy time of the step, rank -> seconds.
    busy_s: Dict[int, float] = field(default_factory=dict)

    @property
    def slack_s(self) -> Dict[int, float]:
        """Idle time each rank spent waiting for the gating rank."""
        latest = self.arrival_s[self.gating_rank]
        return {r: latest - t for r, t in self.arrival_s.items()}


def critical_path(events: Iterable[TraceEvent]) -> List[StepCritical]:
    """Per-step gating analysis over the kernel spans of a trace.

    The gating rank of a step is the one arriving *last* at the step's
    end (max span ``t1``) — exactly the rank that accrues the least
    :attr:`~repro.mpi.comm.CommStats.rank_wait_s` at the trailing
    collectives, since everyone else waits for it. Ties break to the
    lowest rank, mirroring the deterministic collective ordering.
    """
    arrivals: Dict[int, Dict[int, float]] = {}
    busy: Dict[int, Dict[int, float]] = {}
    for event in events:
        if not isinstance(event, SpanEvent):
            continue
        if event.track != TRACK_FUNCTIONS:
            continue
        step = event.args.get("step")
        if step is None:
            continue
        step = int(step)
        step_arrivals = arrivals.setdefault(step, {})
        step_arrivals[event.rank] = max(
            step_arrivals.get(event.rank, float("-inf")), event.t1_s
        )
        step_busy = busy.setdefault(step, {})
        step_busy[event.rank] = (
            step_busy.get(event.rank, 0.0) + event.duration_s
        )
    out: List[StepCritical] = []
    for step in sorted(arrivals):
        step_arrivals = arrivals[step]
        latest = max(step_arrivals.values())
        gating = min(
            r for r, t in step_arrivals.items() if t == latest
        )
        out.append(
            StepCritical(
                step=step,
                gating_rank=gating,
                arrival_s=dict(sorted(step_arrivals.items())),
                busy_s=dict(sorted(busy[step].items())),
            )
        )
    return out


def gating_consistent_with_waits(
    steps: Sequence[StepCritical],
    rank_wait_s: Sequence[float],
    tol_s: float = 1e-9,
) -> bool:
    """Cross-check the critical path against communicator waits.

    The rank that gates most often arrives last most often, so it must
    carry the *minimum* accumulated collective wait. Vacuously true
    when either side is empty.
    """
    if not steps or not rank_wait_s:
        return True
    counts: Dict[int, int] = {}
    for step in steps:
        counts[step.gating_rank] = counts.get(step.gating_rank, 0) + 1
    most_gating = min(
        counts, key=lambda r: (-counts[r], r)
    )
    if most_gating >= len(rank_wait_s):
        return False
    return rank_wait_s[most_gating] <= min(rank_wait_s) + tol_s


# ---------------------------------------------------------------------------
# Per-kernel x per-rank attribution
# ---------------------------------------------------------------------------

def attribution_table(
    events: Iterable[TraceEvent], report: Optional[Any] = None
) -> List[Dict[str, Any]]:
    """Per-function, per-rank time/energy attribution rows.

    Span durations come from the trace; energy (and the reconciliation
    drift column) from the :class:`~repro.core.energy.EnergyReport`'s
    per-rank records when one is given. Rows sort by descending traced
    time, then function name, then rank.
    """
    acc: Dict[Tuple[str, int], Dict[str, Any]] = {}
    for event in events:
        if not isinstance(event, SpanEvent):
            continue
        if event.track != TRACK_FUNCTIONS:
            continue
        row = acc.setdefault(
            (event.name, event.rank),
            {
                "function": event.name,
                "rank": event.rank,
                "calls": 0,
                "time_s": 0.0,
            },
        )
        row["calls"] += 1
        row["time_s"] += event.duration_s
    if report is not None:
        for rank_report in report.ranks:
            for name, rec in rank_report.records.items():
                row = acc.get((name, rank_report.rank))
                if row is None:
                    row = acc.setdefault(
                        (name, rank_report.rank),
                        {
                            "function": name,
                            "rank": rank_report.rank,
                            "calls": 0,
                            "time_s": 0.0,
                        },
                    )
                row["gpu_j"] = rec.gpu_j
                row["total_j"] = rec.total_j
                row["report_time_s"] = rec.time_s
                row["drift_s"] = abs(row["time_s"] - rec.time_s)
    return sorted(
        acc.values(),
        key=lambda r: (-r["time_s"], r["function"], r["rank"]),
    )


def render_attribution(rows: Sequence[Mapping[str, Any]]) -> str:
    """Plain-text table of :func:`attribution_table` rows."""
    lines = [
        f"{'function':<22}{'rank':>5}{'calls':>7}{'time_s':>12}"
        f"{'gpu_j':>12}{'total_j':>12}{'drift_s':>12}"
    ]
    for row in rows:
        gpu = row.get("gpu_j")
        total = row.get("total_j")
        drift = row.get("drift_s")
        lines.append(
            f"{row['function']:<22}{row['rank']:>5}{row['calls']:>7}"
            f"{row['time_s']:>12.6f}"
            + (f"{gpu:>12.2f}" if gpu is not None else f"{'-':>12}")
            + (f"{total:>12.2f}" if total is not None else f"{'-':>12}")
            + (f"{drift:>12.2e}" if drift is not None else f"{'-':>12}")
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Collapsed-stack (flamegraph) export
# ---------------------------------------------------------------------------

def collapsed_stacks(
    events: Iterable[TraceEvent], scale: float = 1e6
) -> List[str]:
    """Flamegraph-compatible collapsed stacks from kernel spans.

    Each line is ``rank N;Function <value>`` with the value in
    microseconds of simulated time (flamegraph samples are integral).
    Feed the lines to ``flamegraph.pl`` or speedscope directly.
    """
    totals: Dict[Tuple[int, str], float] = {}
    for event in events:
        if not isinstance(event, SpanEvent):
            continue
        if event.track != TRACK_FUNCTIONS:
            continue
        key = (event.rank, event.name)
        totals[key] = totals.get(key, 0.0) + event.duration_s
    return [
        f"rank {rank};{name} {int(round(seconds * scale))}"
        for (rank, name), seconds in sorted(totals.items())
    ]


# ---------------------------------------------------------------------------
# Two-run diff
# ---------------------------------------------------------------------------

def _function_times(events: Iterable[TraceEvent]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for event in events:
        if isinstance(event, SpanEvent) and event.track == TRACK_FUNCTIONS:
            out[event.name] = out.get(event.name, 0.0) + event.duration_s
    return out


def diff_traces(
    a_events: Iterable[TraceEvent],
    b_events: Iterable[TraceEvent],
    threshold: float = DEFAULT_DIFF_THRESHOLD,
) -> Dict[str, Any]:
    """Compare two traces per function; flag regressions above
    ``threshold`` (relative increase of b over a).

    Functions present in only one trace show ``0.0`` on the other side
    and are flagged when they *appear* with nonzero time (a new cost is
    a regression by definition; a vanished one is an improvement).
    """
    a_times = _function_times(a_events)
    b_times = _function_times(b_events)
    rows: List[Dict[str, Any]] = []
    regressions: List[str] = []
    for name in sorted(set(a_times) | set(b_times)):
        t_a = a_times.get(name, 0.0)
        t_b = b_times.get(name, 0.0)
        if t_a > 0.0:
            delta_frac = (t_b - t_a) / t_a
        elif t_b > 0.0:
            delta_frac = float("inf")
        else:
            delta_frac = 0.0
        regressed = delta_frac > threshold
        rows.append(
            {
                "function": name,
                "time_a_s": t_a,
                "time_b_s": t_b,
                "delta_frac": delta_frac,
                "regressed": regressed,
            }
        )
        if regressed:
            regressions.append(name)
    total_a = sum(a_times.values())
    total_b = sum(b_times.values())
    total_delta = (
        (total_b - total_a) / total_a if total_a > 0.0
        else (float("inf") if total_b > 0.0 else 0.0)
    )
    return {
        "functions": rows,
        "total_a_s": total_a,
        "total_b_s": total_b,
        "total_delta_frac": total_delta,
        "threshold": threshold,
        "regressions": regressions,
    }
