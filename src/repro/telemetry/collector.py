"""The bounded ring-buffer trace collector.

:class:`TraceCollector` is the run-time heart of the observability
layer. It is a :class:`~repro.core.hooks.FunctionHook` (structurally —
the hook contract is a Protocol, so no import is needed), registered by
:class:`~repro.sph.simulation.Simulation` *innermost* so its spans
cover exactly the window the energy profiler measures; that makes the
trace-vs-:class:`EnergyReport` reconciliation of
:mod:`repro.telemetry.summary` an exact correctness check.

Beyond the hook interface it exposes explicit emit APIs that the other
instrumentation layers call into:

* :meth:`record_clock_set` / :meth:`record_clock_skip` — from
  :class:`~repro.core.controller.FrequencyController`;
* :meth:`emit_counter_sample` — from
  :class:`~repro.pmt.sampler.PmtSampler` ticks;
* :meth:`emit_phase` — from the Slurm scheduler's job-phase model.

The buffer is bounded: once ``max_events`` is reached the oldest event
is discarded and the ``trace_events_dropped`` counter increments, so a
long run degrades to a trailing window instead of unbounded memory.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple, Union

from .context import TraceContext
from .events import (
    TRACK_CLOCKS,
    TRACK_COUNTERS,
    TRACK_FAULTS,
    TRACK_FUNCTIONS,
    TRACK_JOB,
    CounterEvent,
    InstantEvent,
    SpanEvent,
    TraceEvent,
)
from .metrics import Counter, Histogram, MetricsRegistry
from .profile import (
    merge_events,
    merged_trace_path,
    previous_attempt,
    write_merged_trace,
)

#: Default ring capacity: comfortably holds the repo's benchmark runs.
DEFAULT_MAX_EVENTS = 100_000

#: Bucket bounds for per-function latency histograms, seconds.
LATENCY_BOUNDS = (1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0)

#: Bucket bounds for per-function GPU energy histograms, joules.
ENERGY_BOUNDS = (1.0, 10.0, 100.0, 1e3, 1e4, 1e5)


class TraceCollector:
    """Collects typed trace events from every instrumentation layer.

    Parameters
    ----------
    clocks:
        One rank-local :class:`~repro.hardware.clock.VirtualClock` per
        rank; required for implicit timestamps (hook spans, clock
        instants). Emit APIs with an explicit ``ts`` work without it.
    gpus:
        Optional per-rank devices; enables per-span GPU energy
        histograms and clock/temperature counter samples.
    max_events:
        Ring-buffer capacity; the oldest events are dropped beyond it.
    metrics:
        An external :class:`MetricsRegistry` to share; a fresh one is
        created by default.
    """

    def __init__(
        self,
        clocks: Optional[List] = None,
        gpus: Optional[List] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_events < 1:
            raise ValueError("ring buffer needs capacity for >= 1 event")
        self._clocks = list(clocks) if clocks is not None else None
        self._gpus = list(gpus) if gpus is not None else None
        self.max_events = max_events
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._events: Deque[TraceEvent] = deque()
        self.dropped = 0
        self._open: Dict[int, Tuple[str, float, float]] = {}
        self._step = 0
        self._context: Optional[TraceContext] = None
        self._trace_dir: Optional[str] = None
        self._seq = 0
        # Metric handles of the per-span path, by function. They point
        # into the registry, so restore_state (which replaces its
        # objects) drops them.
        self._spans_counter: Optional[Counter] = None
        self._time_hists: Dict[str, Histogram] = {}
        self._gpu_hists: Dict[str, Histogram] = {}
        #: Events in the merged trace the last :meth:`flush_shards`
        #: wrote (0 until a flush succeeds).
        self.flushed_events = 0

    # -- construction helpers --------------------------------------------------

    @classmethod
    def for_cluster(
        cls,
        cluster,
        max_events: int = DEFAULT_MAX_EVENTS,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "TraceCollector":
        """Collector bound to a :class:`~repro.systems.Cluster`'s ranks."""
        return cls(
            clocks=cluster.clocks,
            gpus=cluster.gpus,
            max_events=max_events,
            metrics=metrics,
        )

    def bind_cluster(self, cluster) -> None:
        """Late-bind rank clocks and devices (idempotent)."""
        if self._clocks is None:
            self._clocks = list(cluster.clocks)
        if self._gpus is None:
            self._gpus = list(cluster.gpus)

    @property
    def bound(self) -> bool:
        return self._clocks is not None

    # -- distributed tracing ---------------------------------------------------

    def configure_tracing(
        self,
        context: TraceContext,
        trace_dir: Optional[str] = None,
    ) -> None:
        """Attach a :class:`TraceContext`: subsequent span/instant
        events get ``trace_id``/``span_id`` args, and (with a
        ``trace_dir``) :meth:`flush_shards` writes the merged trace
        there at the end of the run."""
        self._context = context
        if trace_dir is not None:
            self._trace_dir = trace_dir

    @property
    def context(self) -> Optional[TraceContext]:
        """The attached trace context, if tracing is configured."""
        return self._context

    @property
    def trace_dir(self) -> Optional[str]:
        return self._trace_dir

    def flush_shards(self, shard_dir: Optional[str] = None) -> List[str]:
        """Write the run's merged trace (``merged.jsonl``) in one go.

        The ring is partitioned by rank and merged in memory
        (:func:`~repro.telemetry.profile.merge_events`); no per-rank
        shard file is written. ``shard_dir`` is the trace dir (default:
        the one given to :meth:`configure_tracing`). A merged trace an
        earlier attempt left there under the same trace id contributes
        the shards this run did not produce. Rank partitioning depends
        only on each event's rank, so a re-run writes the same bytes.
        The write is atomic. Returns ``[path]``.
        """
        if self._context is None:
            raise RuntimeError(
                "configure_tracing() before flush_shards()"
            )
        directory = shard_dir if shard_dir is not None else self._trace_dir
        if directory is None:
            raise RuntimeError(
                "flush_shards() needs a trace directory (configure_tracing"
                "(..., trace_dir=...) or pass one explicitly)"
            )
        self.flushed_events = 0
        trace_id = self._context.trace_id
        path = merged_trace_path(directory)
        events = merge_events(
            self._context, self._events, previous_attempt(path, trace_id)
        )
        os.makedirs(directory, exist_ok=True)
        write_merged_trace(
            path, events, trace_id=trace_id if events else None
        )
        self.flushed_events = len(events)
        return [path]

    # -- checkpoint ------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Counters, step index and drop count (not the event ring).

        The bounded event ring is a trailing debug window, not part of
        any result; a resumed run restarts it empty while the metric
        counters continue exactly where they left off.
        """
        return {
            "step": self._step,
            "dropped": self.dropped,
            "metrics": self.metrics.state_dict(),
            "context": (
                self._context.to_dict() if self._context is not None else None
            ),
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        self._step = int(state["step"])
        self.dropped = int(state["dropped"])
        self.metrics.restore_state(state["metrics"])
        self._spans_counter = None
        self._time_hists = {}
        self._gpu_hists = {}
        self._events.clear()
        self._open = {}
        self._seq = 0
        saved = state.get("context")
        if saved is not None:
            # Same trace, new span lineage: the restored process is a
            # distinct span parented on the checkpointed one, so a
            # resumed unit stays correlated to the original request
            # while its post-restore events are distinguishable.
            self._context = TraceContext.from_dict(saved).restarted(
                self._step
            )

    def now(self, rank: int) -> float:
        """Rank-local simulated time."""
        if self._clocks is None:
            raise RuntimeError(
                "collector has no clocks: construct with for_cluster() or "
                "bind_cluster() before implicit-timestamp emits"
            )
        return self._clocks[rank].now

    # -- event access ----------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        """Chronologically appended events currently in the ring."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def spans(self, track: Optional[str] = None) -> List[SpanEvent]:
        return [
            e
            for e in self._events
            if isinstance(e, SpanEvent) and (track is None or e.track == track)
        ]

    def instants(self, track: Optional[str] = None) -> List[InstantEvent]:
        return [
            e
            for e in self._events
            if isinstance(e, InstantEvent)
            and (track is None or e.track == track)
        ]

    def counters(self, track: Optional[str] = None) -> List[CounterEvent]:
        return [
            e
            for e in self._events
            if isinstance(e, CounterEvent)
            and (track is None or e.track == track)
        ]

    def _append_stamped(self, event: Union[SpanEvent, InstantEvent]) -> None:
        """Append a span or instant just built here, first adding the
        trace context's ``trace_id`` and next ``span_id`` to its args
        (a fresh dict this collector owns) when tracing is configured;
        ids the caller set are kept."""
        context = self._context
        if context is not None:
            args = event.args
            args.setdefault("trace_id", context.trace_id)
            args.setdefault("span_id", context.event_span_id(self._seq))
            self._seq += 1
        self._append(event)

    def _append(self, event: TraceEvent) -> None:
        if len(self._events) >= self.max_events:
            self._events.popleft()
            self.dropped += 1
            self.metrics.counter("trace_events_dropped").inc()
        self._events.append(event)

    # -- FunctionHook interface ------------------------------------------------

    def before_function(self, function: str, rank: int) -> None:
        gpu_j = self._gpus[rank].energy_j if self._gpus else 0.0
        self._open[rank] = (function, self.now(rank), gpu_j)

    def after_function(self, function: str, rank: int) -> None:
        open_fn, t0, gpu_j0 = self._open.pop(rank, (None, 0.0, 0.0))
        if open_fn != function:
            raise RuntimeError(
                f"rank {rank} closing span {function!r} but "
                f"{open_fn!r} is open"
            )
        t1 = self.now(rank)
        self._append_stamped(
            SpanEvent(
                name=function,
                rank=rank,
                t0_s=t0,
                t1_s=t1,
                track=TRACK_FUNCTIONS,
                args={"step": self._step},
            )
        )
        if self._spans_counter is None:
            self._spans_counter = self.metrics.counter("spans_recorded")
        self._spans_counter.inc()
        hist = self._time_hists.get(function)
        if hist is None:
            hist = self._time_hists[function] = self.metrics.histogram(
                "function_time_s", bounds=LATENCY_BOUNDS, function=function
            )
        hist.observe(t1 - t0)
        if self._gpus is not None:
            gpu = self._gpus[rank]
            hist = self._gpu_hists.get(function)
            if hist is None:
                hist = self._gpu_hists[function] = self.metrics.histogram(
                    "function_gpu_j", bounds=ENERGY_BOUNDS, function=function
                )
            hist.observe(gpu.energy_j - gpu_j0)
            self._append(
                CounterEvent(
                    name="gpu",
                    rank=rank,
                    ts_s=t1,
                    values={
                        "clock_mhz": gpu.current_clock_hz / 1e6,
                        "temp_c": gpu.temperature_c,
                    },
                    track=TRACK_COUNTERS,
                )
            )

    def mark_step(self) -> None:
        """Advance the step index attached to subsequent spans."""
        self._step += 1

    # -- explicit emit APIs ----------------------------------------------------

    def emit_instant(
        self,
        name: str,
        rank: int,
        ts: Optional[float] = None,
        track: str = TRACK_CLOCKS,
        **args: Any,
    ) -> None:
        """Record a point-in-time occurrence on a rank's track."""
        self._append_stamped(
            InstantEvent(
                name=name,
                rank=rank,
                ts_s=self.now(rank) if ts is None else ts,
                track=track,
                args=args,
            )
        )

    def record_clock_set(
        self,
        rank: int,
        to_mhz: Optional[float],
        from_mhz: Optional[float] = None,
        reset: bool = False,
    ) -> None:
        """One performed management-library clock change on ``rank``.

        Called by the frequency controller *after* the NVML/ROCm/Sysman
        call, so the instant's timestamp includes the relock latency.
        """
        name = "clock-reset" if reset else "clock-set"
        args: Dict[str, Any] = {}
        if to_mhz is not None:
            args["to_mhz"] = to_mhz
        if from_mhz is not None:
            args["from_mhz"] = from_mhz
        self.emit_instant(name, rank, track=TRACK_CLOCKS, **args)
        self.metrics.counter("clock_set_calls", rank=rank).inc()
        if to_mhz is not None:
            self._append(
                CounterEvent(
                    name="application_clock",
                    rank=rank,
                    ts_s=self.now(rank),
                    values={"mhz": to_mhz},
                    track=TRACK_CLOCKS,
                )
            )

    def record_clock_skip(self, rank: int, to_mhz: Optional[float]) -> None:
        """A redundant clock request elided by the controller.

        No instant is emitted — nothing happened on the device — so
        clock-change instants stay in lockstep with ``clock_set_calls``.
        """
        self.metrics.counter("clock_set_skipped", rank=rank).inc()

    def record_dvfs_handover(self, rank: int) -> None:
        """The device was handed to its DVFS governor."""
        self.emit_instant("dvfs-governor", rank, track=TRACK_CLOCKS)

    # -- fault / resilience track ----------------------------------------------

    def record_fault_injected(
        self, rank: int, op: str, kind: str, ts: Optional[float] = None
    ) -> None:
        """One fault delivered by the fault injector."""
        self.emit_instant(
            "fault-injected", rank, ts=ts, track=TRACK_FAULTS, op=op, kind=kind
        )
        self.metrics.counter("faults_injected", kind=kind).inc()

    def record_retry(
        self, rank: int, op: str, attempt: int, error: str
    ) -> None:
        """One transient-error retry performed by a resilient caller."""
        self.emit_instant(
            "fault-retry",
            rank,
            track=TRACK_FAULTS,
            op=op,
            attempt=attempt,
            error=error,
        )
        self.metrics.counter("fault_retries", rank=rank).inc()

    def record_degradation(self, rank: int, reason: str) -> None:
        """A rank's circuit breaker tripped: device handed to DVFS."""
        self.emit_instant(
            "rank-degraded", rank, track=TRACK_FAULTS, reason=reason
        )
        self.metrics.counter("ranks_degraded").inc()

    def record_power_gap(
        self, rank: int, t0: float, t1: float, reason: str
    ) -> None:
        """A power-sampling gap that was bridged by interpolation."""
        self.emit_phase(
            "power-gap", rank, t0, t1, track=TRACK_FAULTS, reason=reason
        )
        self.metrics.counter("power_read_gaps", rank=rank).inc()

    def emit_counter_sample(
        self,
        name: str,
        rank: int,
        values: Mapping[str, float],
        ts: Optional[float] = None,
        track: str = TRACK_COUNTERS,
    ) -> None:
        """One periodic reading (power, frequency, temperature...)."""
        self._append(
            CounterEvent(
                name=name,
                rank=rank,
                ts_s=self.now(rank) if ts is None else ts,
                values={k: float(v) for k, v in values.items()},
                track=track,
            )
        )
        self.metrics.counter("counter_samples", name=name).inc()
        for key, value in values.items():
            self.metrics.gauge(f"last_{name}_{key}", rank=rank).set(value)

    def emit_phase(
        self,
        name: str,
        rank: int,
        t0: float,
        t1: float,
        track: str = TRACK_JOB,
        **args: Any,
    ) -> None:
        """A named phase span with explicit endpoints (job lifecycle)."""
        self._append_stamped(
            SpanEvent(
                name=name, rank=rank, t0_s=t0, t1_s=t1, track=track, args=args
            )
        )
