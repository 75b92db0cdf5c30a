"""Host-wall spans recorded from outside the program.

The benchmark never edits ``src/``: it wraps public functions and
methods of the ``repro`` modules at run time (plus the campaign lane's
per-step beat writer, the one private boundary measured), records one
span per call (id, parent, name, start, end, process, thread) on
``time.perf_counter`` and keeps the spans in memory until the traced
pass ends.

Wrappers are installed in the benchmark process *before* a campaign
lane pool forks, so lane processes inherit them. A lane appends its
spans to a spool file after every unit (a pool worker exits through
``os._exit`` and runs no exit hooks); :meth:`Tracer.collect` reads the
spool files back into the parent's span list.

Layer of a span = the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Layers of the ``repro`` package the benchmark attributes time to.
LAYERS = (
    "catalog",
    "sph",
    "hardware",
    "core",
    "mpi",
    "checkpoint",
    "campaign",
    "telemetry",
    "service",
)

_MPI_COLLECTIVES = (
    "barrier",
    "allreduce",
    "reduce",
    "bcast",
    "gather",
    "allgather",
    "alltoall",
    "reduce_scatter",
    "sendrecv",
)

_NUMERIC_STEPS = (
    "domain_decomp_and_sync",
    "find_neighbors",
    "xmass",
    "normalization_gradh",
    "equation_of_state",
    "iad_velocity_div_curl",
    "gravity_step",
    "momentum_energy",
    "local_timesteps",
    "update_quantities",
)


class Span(tuple):
    """``(span_id, parent_id, name, start, end, pid, tid)``."""

    __slots__ = ()

    span_id = property(lambda s: s[0])
    parent = property(lambda s: s[1])
    name = property(lambda s: s[2])
    start = property(lambda s: s[3])
    end = property(lambda s: s[4])

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``run_id`` names the traced run; lanes spool under it, so spans of
    another run never mix in.
    """

    def __init__(self, run_id: str, spool_dir: str) -> None:
        self.run_id = run_id
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.spans: List[Span] = []
        #: Counts measured at the wrapped boundaries (name -> total).
        self.counts: Dict[str, float] = {}
        self._root_pid = os.getpid()
        self._pid = self._root_pid
        #: Span ids: the process id in the high bits, a counter below.
        self._ids = itertools.count((self._pid << 32) + 1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _forked(self) -> None:
        """First call in a forked lane: start an empty buffer there."""
        self._pid = os.getpid()
        self._ids = itertools.count((self._pid << 32) + 1)
        self.spans = []
        self.counts = {}
        self._lock = threading.Lock()

    def _stack(self) -> List[Tuple[int, str]]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def record(self, name: str, start: float, end: float) -> None:
        """Add one finished root span (async handlers interleave)."""
        if os.getpid() != self._pid:
            self._forked()
        self.spans.append(Span((next(self._ids), None, name, start, end,
                                self._pid, threading.get_ident())))

    def wrap(self, fn: Callable, name: str,
             after: Optional[Callable[..., None]] = None) -> Callable:
        """A timing wrapper around ``fn`` recording span ``name``.

        ``after(result, args, kwargs)`` runs once the call returned and
        may add counts. A name of ``"*.fsync"`` takes the layer of the
        enclosing span, so a durable write is charged to its caller.
        """
        tracer = self
        wildcard = name.startswith("*.")
        getpid, get_ident, perf_counter = (os.getpid, threading.get_ident,
                                           time.perf_counter)

        if inspect.iscoroutinefunction(fn):
            # Tasks interleave on one thread: async spans are roots.
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer.record(name, start, time.perf_counter())
                if after is not None:
                    after(result, args, kwargs)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getpid() != tracer._pid:
                tracer._forked()
            stack = tracer._stack()
            parent = stack[-1][0] if stack else None
            span_name = name
            if wildcard:
                layer = stack[-1][1].split(".", 1)[0] if stack else "other"
                span_name = layer + name[1:]
            span_id = next(tracer._ids)
            stack.append((span_id, span_name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(Span((span_id, parent, span_name, start,
                                          end, tracer._pid, get_ident())))
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str,
                     after: Optional[Callable[..., None]] = None,
                     impl: Optional[Callable] = None) -> None:
        """Wrap ``cls.attr``; ``impl`` replaces the body that is timed."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        if impl is not None:
            functools.update_wrapper(impl, original)
        setattr(cls, attr, self.wrap(impl or original, name, after))

    def patch_function(self, module: Any, attr: str, name: str,
                       after: Optional[Callable[..., None]] = None) -> None:
        """Wrap a module-level function everywhere ``repro`` binds it.

        Modules that did ``from x import f`` hold their own reference,
        so every ``repro.*`` module attribute that *is* the original
        function is replaced by the one wrapper. The wrapper keeps the
        original's ``__module__``/``__qualname__``, so pickling it by
        name (process-pool submission) finds the same object.
        """
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, after)
        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- lanes -----------------------------------------------------------------

    def spool(self) -> None:
        """Append this lane's buffered spans and counts to its spool file."""
        if os.getpid() == self._root_pid:
            return
        path = self.spool_dir / f"lane-{self.run_id}-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"span": list(span)}) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")
        self.spans = []
        self.counts = {}

    def collect(self) -> None:
        """Fold this run's lane spool files into this process's spans."""
        for path in sorted(self.spool_dir.glob(f"lane-{self.run_id}-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    if "span" in record:
                        self.spans.append(Span(tuple(record["span"])))
                    else:
                        for key, value in record["counts"].items():
                            self.count(key, value)
            path.unlink()


def install_repro_wrappers(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every ``repro`` module a workload uses."""
    import repro.catalog
    import repro.checkpoint
    import repro.telemetry.profile
    from repro.campaign import CampaignExecutor, RunStore
    from repro.campaign import worker as campaign_worker
    from repro.core.controller import FrequencyController
    from repro.core.energy import EnergyProfiler
    from repro.hardware.gpu import SimulatedGpu
    from repro.mpi.comm import SimComm
    from repro.service.app import ServiceApp
    from repro.service.jobs import CampaignJob
    from repro.service.wal import JobWal
    from repro.sph.numeric import NumericProblem
    from repro.sph.simulation import Simulation
    from repro.telemetry.collector import TraceCollector

    tracer.patch_function(repro.catalog, "resolve_system", "catalog.resolve")

    def after_run(result, args, kwargs):
        tracer.count("core.clock_set_calls", result.clock_set_calls)

    tracer.patch_method(Simulation, "run", "sph.run", after_run)

    for step in _NUMERIC_STEPS:
        if step != "find_neighbors":
            tracer.patch_method(NumericProblem, step, f"sph.{step}")
    find_neighbors = NumericProblem.__dict__["find_neighbors"]

    def counted_find_neighbors(problem):
        before = problem.neighbor_rebuilds
        find_neighbors(problem)
        tracer.count("sph.neighbor_rebuilds",
                     problem.neighbor_rebuilds - before)
        tracer.count("sph.neighbor_calls")

    tracer.patch_method(NumericProblem, "find_neighbors",
                        "sph.find_neighbors", impl=counted_find_neighbors)

    tracer.patch_method(SimulatedGpu, "execute", "hardware.execute")
    for hook in ("before_function", "after_function"):
        tracer.patch_method(FrequencyController, hook, "core.controller")
        tracer.patch_method(EnergyProfiler, hook, "core.profiler")
    for op in _MPI_COLLECTIVES:
        tracer.patch_method(SimComm, op, "mpi.collective")

    def after_checkpoint(result, args, kwargs):
        tracer.count("checkpoint.bytes", os.path.getsize(result))

    tracer.patch_function(repro.checkpoint, "write_checkpoint",
                          "checkpoint.write", after_checkpoint)

    def after_unit(result, args, kwargs):
        tracer.spool()

    tracer.patch_function(campaign_worker, "run_unit_safe", "campaign.unit",
                          after_unit)
    tracer.patch_function(campaign_worker, "_write_beat", "campaign.beat")
    tracer.patch_method(CampaignExecutor, "run", "campaign.drain")
    for write in ("record_done", "record_failed"):
        tracer.patch_method(RunStore, write, "campaign.store_write")
    tracer.patch_method(RunStore, "write_heartbeats", "campaign.heartbeat")
    tracer.patch_function(os, "fsync", "*.fsync")

    def after_merge(result, args, kwargs):
        tracer.count("telemetry.merged_events", len(result[1]))

    tracer.patch_function(repro.telemetry.profile, "merge_shards",
                          "telemetry.merge", after_merge)
    tracer.patch_method(TraceCollector, "flush_shards", "telemetry.flush")

    tracer.patch_method(ServiceApp, "__call__", "service.request")
    tracer.patch_method(JobWal, "append", "service.wal_append")
    execute = CampaignJob.__dict__["execute"]

    def counted_execute(job, *args, **kwargs):
        # The job left the scheduler queue when its worker thread
        # picked it up; ``created_s`` is the admission wall time.
        tracer.count("service.queue_wait_s", time.time() - job.created_s)
        execute(job, *args, **kwargs)
        if job.status is not None:
            tracer.count("service.units_executed", job.status.executed)
            tracer.count("service.units_cache_hit", job.cache_hits())
            tracer.count("service.units_total", len(job.grid_keys))

    tracer.patch_method(CampaignJob, "execute", "service.job",
                        impl=counted_execute)


# -- analysis -----------------------------------------------------------------


def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_breakdown(spans: List[Span], window: Tuple[float, float]
                    ) -> Dict[str, float]:
    """Per-layer busy and self time plus span coverage of ``window``.

    * ``<layer>.busy_s``: time during which any span of the layer was
      open (union over processes and threads);
    * ``<layer>.self_s``: summed span durations minus the part of each
      span's interval that its child spans cover;
    * ``trace.coverage_frac``: share of the window covered by any span.
    """
    children: Dict[str, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = 0.0
        out[f"{layer}.self_s"] = 0.0
    by_layer: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        kids = children.get(span.span_id, ())
        covered = _union(
            (max(k.start, span.start), min(k.end, span.end))
            for k in kids if k.end > span.start and k.start < span.end
        )
        layer = span.layer
        by_layer.setdefault(layer, []).append((span.start, span.end))
        key = f"{layer}.self_s"
        out[key] = out.get(key, 0.0) + (span.end - span.start) - covered
    for layer, intervals in by_layer.items():
        out[f"{layer}.busy_s"] = _union(intervals)
    lo, hi = window
    out["trace.coverage_frac"] = _union(
        (max(s.start, lo), min(s.end, hi))
        for s in spans if s.end > lo and s.start < hi
    ) / (hi - lo)
    return out


def span_totals(spans: List[Span]) -> Dict[str, Tuple[int, float]]:
    """``name -> (calls, summed duration)``."""
    totals: Dict[str, Tuple[int, float]] = {}
    for span in spans:
        n, t = totals.get(span.name, (0, 0.0))
        totals[span.name] = (n + 1, t + span.end - span.start)
    return totals
