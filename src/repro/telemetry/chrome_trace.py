"""Trace export: Chrome ``trace_event`` JSON and compact JSONL.

The Chrome export is lossless and loads directly in Perfetto or
``chrome://tracing``: one *process* per MPI rank, with named *threads*
for the step-function spans (kernels), the application-clock events,
the power counters and the Slurm job phases. Timestamps convert from
simulated seconds to the format's microseconds; events are emitted in
non-decreasing ``ts`` order.

The JSONL export is the programmatic sibling: a versioned
``{"schema": 1, "kind": "trace"}`` header followed by one compact
record per event (phase letters matching the Chrome convention), which
``repro trace export`` can later re-render as Chrome JSON and tests can
diff line-by-line.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .events import (
    TRACKS,
    CounterEvent,
    InstantEvent,
    SpanEvent,
    TraceEvent,
    check_schema_header,
    event_sort_key,
    from_record,
    schema_header,
    to_record,
)

#: Fixed thread ids per track, so the Perfetto layout is stable.
TRACK_TIDS: Dict[str, int] = {track: tid for tid, track in enumerate(TRACKS)}

_SECONDS_TO_US = 1e6

#: Encoder of every trace JSONL line: what ``json.dumps(obj,
#: sort_keys=True)`` gives, without building an encoder per line.
TRACE_LINE_ENCODER = json.JSONEncoder(sort_keys=True)


def _metadata_events(ranks: Sequence[int], tracks: Sequence[str]) -> List[dict]:
    """Process/thread naming metadata (``ph: "M"`` records)."""
    meta: List[dict] = []
    for rank in ranks:
        meta.append(
            {
                "ph": "M",
                "pid": rank,
                "tid": 0,
                "name": "process_name",
                "args": {"name": f"rank {rank}"},
            }
        )
        meta.append(
            {
                "ph": "M",
                "pid": rank,
                "tid": 0,
                "name": "process_sort_index",
                "args": {"sort_index": rank},
            }
        )
        for track in tracks:
            tid = TRACK_TIDS.get(track, len(TRACK_TIDS))
            meta.append(
                {
                    "ph": "M",
                    "pid": rank,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": track},
                }
            )
    return meta


def to_chrome_trace(
    events: Iterable[TraceEvent], label: Optional[str] = None
) -> Dict[str, Any]:
    """Render events as a Chrome ``trace_event`` JSON object."""
    ordered = sorted(events, key=event_sort_key)
    ranks = sorted({e.rank for e in ordered})
    tracks = sorted(
        {e.track for e in ordered},
        key=lambda t: TRACK_TIDS.get(t, len(TRACK_TIDS)),
    )
    trace_events: List[dict] = _metadata_events(ranks, tracks)
    for event in ordered:
        tid = TRACK_TIDS.get(event.track, len(TRACK_TIDS))
        if isinstance(event, SpanEvent):
            record = {
                "ph": "X",
                "pid": event.rank,
                "tid": tid,
                "name": event.name,
                "cat": event.track,
                "ts": event.t0_s * _SECONDS_TO_US,
                "dur": event.duration_s * _SECONDS_TO_US,
            }
            if event.args:
                record["args"] = dict(event.args)
        elif isinstance(event, InstantEvent):
            record = {
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "pid": event.rank,
                "tid": tid,
                "name": event.name,
                "cat": event.track,
                "ts": event.ts_s * _SECONDS_TO_US,
            }
            if event.args:
                record["args"] = dict(event.args)
        elif isinstance(event, CounterEvent):
            record = {
                "ph": "C",
                "pid": event.rank,
                "tid": tid,
                "name": event.name,
                "cat": event.track,
                "ts": event.ts_s * _SECONDS_TO_US,
                "args": dict(event.values),
            }
        else:  # pragma: no cover - exhaustive over TraceEvent
            raise TypeError(f"not a trace event: {event!r}")
        trace_events.append(record)
    payload: Dict[str, Any] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": schema_header("chrome-trace"),
    }
    if label is not None:
        payload["otherData"]["label"] = label
    return payload


def write_chrome_trace(
    path: str, events: Iterable[TraceEvent], label: Optional[str] = None
) -> None:
    """Write a Chrome/Perfetto-loadable ``trace_event`` JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(events, label=label), fh, indent=1)


def atomic_write_lines(
    path: str, lines: Sequence[str], fsync: bool = True
) -> None:
    """Write text lines atomically: temp file + fsync + ``os.replace``.

    Same idiom as the ``metrics.prom`` writer — a reader (or a process
    killed mid-write) sees either the previous complete file or the new
    complete file, never a torn one. ``fsync=False`` keeps the atomic
    replace but not durability across a host crash, for files that
    nothing needs to resume from.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def trace_jsonl_lines(
    events: Iterable[TraceEvent], **extra: Any
) -> List[str]:
    """The compact JSONL export's lines: schema header, then one line
    per event in :func:`~repro.telemetry.events.event_sort_key` order.
    Keyword extras (e.g. ``trace_id``) land in the header; readers
    tolerate the additional keys."""
    ordered = sorted(events, key=event_sort_key)
    encode = TRACE_LINE_ENCODER.encode
    lines = [encode(schema_header("trace", events=len(ordered), **extra))]
    lines.extend(encode(to_record(e)) for e in ordered)
    return lines


def write_trace_jsonl(
    path: str, events: Iterable[TraceEvent], **extra: Any
) -> None:
    """Atomically write the compact JSONL export
    (:func:`trace_jsonl_lines`)."""
    atomic_write_lines(path, trace_jsonl_lines(events, **extra))


def read_trace_jsonl(path: str) -> List[TraceEvent]:
    """Read a JSONL trace back into typed events.

    Tolerates blank lines (hand-edited or concatenated files); every
    other malformation raises :class:`ValueError` naming the file and
    line — a truncated record, a missing or mismatched schema header,
    or a record the event model cannot rebuild.
    """
    events: List[TraceEvent] = []
    header_seen = False
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
            if not header_seen:
                try:
                    check_schema_header(record, "trace")
                except (KeyError, ValueError, TypeError) as exc:
                    raise ValueError(
                        f"{path}:{lineno}: bad trace header ({exc})"
                    ) from None
                header_seen = True
                continue
            try:
                events.append(from_record(record))
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: bad trace record ({exc})"
                ) from None
    if not header_seen:
        raise ValueError(f"{path}: empty trace file")
    return events
