"""Parallel, resumable campaign execution.

The executor drains a list of :class:`~repro.campaign.spec.RunUnit`
configurations against a :class:`~repro.campaign.store.RunStore`:

* units whose content-addressed key is already ``done`` in the store
  are **skipped** — re-invoking a finished or killed campaign is
  idempotent, which is the whole resume story;
* remaining units run on a ``concurrent.futures.ProcessPoolExecutor``
  with a configurable worker count (``workers <= 1`` runs inline in
  this process, the deterministic serial path);
* failures are classified with the :mod:`repro.faults` error taxonomy
  (:func:`~repro.campaign.worker.classify_error`): transient failures
  retry with bounded exponential backoff, permanent ones are recorded
  and the campaign moves on;
* per-unit wall-clock timeouts mark overdue units as transient
  failures. A timed-out worker process cannot be interrupted
  mid-computation — its eventual result is discarded — so timeouts are
  best-effort backpressure, not preemption;
* ``Ctrl-C`` drains gracefully: outcomes that already finished are
  persisted, queued work is cancelled, and the returned status is
  flagged ``interrupted`` — the next invocation resumes at the first
  missing unit;
* a ``should_stop`` callback makes the same drain available
  programmatically (the service's campaign cancellation), and an
  ``on_event`` callback streams unit-level progress to whoever is
  watching (the service's SSE feed);
* an :class:`InFlightRegistry` shared between concurrent executors
  deduplicates *in-flight* units: when two overlapping campaigns drain
  into the same store at once, each content-addressed key is executed
  by exactly one executor — the other waits for the owner's outcome
  and records the unit as ``attached``.

Progress is emitted through :mod:`repro.telemetry` when a collector is
supplied: one job-track span per executed unit (lanes = worker slots)
plus instants for skips, retries and failures, so ``repro trace
export`` renders a campaign timeline like any other run trace.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set

from ..telemetry.events import TRACK_JOB
from .spec import CampaignSpec, RunUnit
from .store import RunStore
from .worker import run_unit_safe

#: Futures kept in flight beyond the worker count (submission backlog).
_BACKLOG = 2

#: Provenance labels a unit can end a drain with.
PROVENANCE_EXECUTED = "executed"
PROVENANCE_CACHED = "cached"
PROVENANCE_ATTACHED = "attached"
PROVENANCE_FAILED = "failed"


class InFlightRegistry:
    """Claim table for content-addressed run keys being executed *now*.

    Concurrent executors draining overlapping grids into one store each
    try to :meth:`claim` a key before executing it. Exactly one wins;
    the others :meth:`wait` for the owner to :meth:`release` (which
    happens once the outcome is durably in the store) and then re-check
    the store instead of recomputing. The registry is process-local —
    cross-process dedup is already covered by the store's completed-key
    skip, this closes the window *while* a unit runs.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._claims: Dict[str, threading.Event] = {}

    def claim(self, key: str) -> bool:
        """True when the caller now owns execution of ``key``."""
        with self._lock:
            if key in self._claims:
                return False
            self._claims[key] = threading.Event()
            return True

    def release(self, key: str) -> None:
        """Give up a claim and wake every waiter (idempotent)."""
        with self._lock:
            event = self._claims.pop(key, None)
        if event is not None:
            event.set()

    def wait(self, key: str, timeout: Optional[float] = None) -> bool:
        """Block until ``key`` is unclaimed; True unless timed out."""
        with self._lock:
            event = self._claims.get(key)
        if event is None:
            return True
        return event.wait(timeout)

    def in_flight(self) -> Set[str]:
        with self._lock:
            return set(self._claims)


@dataclass(frozen=True)
class ExecutorConfig:
    """Knobs of one campaign execution (not part of run identity)."""

    #: Worker processes; ``<= 1`` executes inline (serial).
    workers: int = 1
    #: Per-unit wall-clock timeout, seconds; ``None`` = unbounded.
    timeout_s: Optional[float] = None
    #: Retries per unit after transient failures.
    max_retries: int = 2
    #: First retry backoff, seconds (doubles per attempt).
    retry_backoff_s: float = 0.1
    backoff_multiplier: float = 2.0
    #: Execute at most this many missing units (smoke tests, previews).
    max_units: Optional[int] = None
    #: Declare a started pool unit dead after this many seconds without
    #: a beat of its own (``None`` disables supervision). Its worker gets
    #: a SIGTERM (best effort), the unit goes to the transient-retry
    #: path, and its claim is released.
    lane_dead_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry backoff must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1")
        if self.max_units is not None and self.max_units < 0:
            raise ValueError("max_units must be >= 0 (or None)")
        if self.lane_dead_after_s is not None and self.lane_dead_after_s <= 0:
            raise ValueError("lane_dead_after_s must be positive (or None)")

    def backoff_for_attempt(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), seconds."""
        return self.retry_backoff_s * self.backoff_multiplier**attempt


@dataclass
class CampaignRunStatus:
    """What one executor invocation did."""

    total: int = 0
    skipped: int = 0
    executed: int = 0
    attached: int = 0
    failed: int = 0
    retries: int = 0
    interrupted: bool = False
    wall_s: float = 0.0
    failed_units: List[str] = field(default_factory=list)
    #: Per-unit outcome provenance: key -> executed|cached|attached|failed.
    provenance: Dict[str, str] = field(default_factory=dict)
    #: Units whose (re)execution resumed from a simulation checkpoint.
    checkpoint_hits: int = 0
    #: Worker lanes declared dead by heartbeat supervision.
    lanes_reaped: int = 0

    @property
    def complete(self) -> bool:
        """Every unit of the grid is now in the store."""
        return self.skipped + self.executed + self.attached == self.total

    def describe(self) -> str:
        line = (
            f"{self.total} units: {self.skipped} cached (skipped), "
            f"{self.executed} executed, {self.failed} failed "
            f"({self.retries} retries) in {self.wall_s:.2f}s wall"
        )
        if self.attached:
            line += f" [{self.attached} attached to concurrent campaigns]"
        if self.checkpoint_hits:
            line += f" [{self.checkpoint_hits} resumed from checkpoints]"
        if self.lanes_reaped:
            line += f" [{self.lanes_reaped} dead lanes reaped]"
        if self.interrupted:
            line += " [interrupted — re-run to resume]"
        return line


class CampaignExecutor:
    """Drains run units into a store, in parallel, idempotently."""

    def __init__(
        self,
        store: RunStore,
        config: Optional[ExecutorConfig] = None,
        telemetry: Optional[Any] = None,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        inflight: Optional[InFlightRegistry] = None,
        checkpoint_every: int = 0,
        trace_context: Optional[Any] = None,
    ) -> None:
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.store = store
        self.config = config or ExecutorConfig()
        self.telemetry = telemetry
        self.on_event = on_event
        self.should_stop = should_stop
        self.inflight = inflight
        #: Worker-side simulation checkpoint cadence (0 = disabled).
        self.checkpoint_every = int(checkpoint_every)
        #: The campaign's TraceContext. Explicit, or inherited from the
        #: collector (the service configures tracing on its collector);
        #: when set, every dispatched unit gets a deterministic child
        #: context and writes its merged trace.
        self.trace_context = (
            trace_context
            if trace_context is not None
            else getattr(telemetry, "context", None)
        )
        self._t0 = 0.0
        self._heartbeats: Dict[str, Dict[str, Any]] = {}
        self._claimed: Set[str] = set()

    # -- progress events -----------------------------------------------------

    def _notify(self, event: str, unit: RunUnit, **extra: Any) -> None:
        """Deliver one progress event; observer bugs never kill a drain."""
        if self.on_event is None:
            return
        payload: Dict[str, Any] = {
            "event": event, "key": unit.key, "unit": unit.label,
        }
        payload.update(extra)
        try:
            self.on_event(payload)
        except Exception:  # noqa: BLE001 - observer-side failure only
            pass

    def _stopping(self) -> bool:
        return self.should_stop is not None and self.should_stop()

    def _release(self, unit: RunUnit) -> None:
        if self.inflight is not None and unit.key in self._claimed:
            self._claimed.discard(unit.key)
            self.inflight.release(unit.key)

    # -- telemetry helpers ---------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _emit_span(
        self, name: str, lane: int, t0: float, t1: float, **args: Any
    ) -> None:
        if self.telemetry is not None:
            self.telemetry.emit_phase(
                name, lane, t0, t1, track=TRACK_JOB, **args
            )

    def _emit_instant(self, name: str, lane: int, **args: Any) -> None:
        if self.telemetry is not None:
            self.telemetry.emit_instant(
                name, lane, ts=self._now(), track=TRACK_JOB, **args
            )

    def _count(self, metric: str, **labels: str) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(metric, **labels).inc()

    # -- worker heartbeats ---------------------------------------------------

    def _beat(self, lane: int, state: str, unit: str = "") -> None:
        """Record lane liveness: gauge + atomic ``heartbeats.json``.

        ``repro monitor watch`` reads the file and fires the
        ``campaign_worker_stalled`` rule on lanes whose heartbeat goes
        stale while not ``idle``. Heartbeat persistence must never take
        a campaign down, so disk errors are swallowed.
        """
        now = time.time()
        record: Dict[str, Any] = {"updated_s": now, "state": state}
        if unit:
            record["unit"] = unit
        self._heartbeats[str(lane)] = record
        if self.telemetry is not None:
            self.telemetry.metrics.gauge(
                "campaign_worker_heartbeat", lane=lane
            ).set(now)
        try:
            self.store.write_heartbeats(self._heartbeats)
        except OSError:  # pragma: no cover - disk-full / perms only
            pass

    # -- worker dispatch -------------------------------------------------------

    def _checkpoint_path(self, unit: RunUnit) -> Optional[str]:
        if self.checkpoint_every <= 0:
            return None
        return str(self.store.checkpoint_path(unit.key))

    def _fresh_beat_path(self, unit: RunUnit) -> str:
        """The unit's beat file, cleared of any earlier attempt's beat."""
        self.store.clear_unit_beat(unit.key)
        return str(self.store.unit_beat_path(unit.key))

    def _trace_for(self, unit: RunUnit):
        """(trace dict, trace dir) for one unit — or ``(None, None)``.

        The child context derives from the campaign context by the
        unit's content-addressed key, so a resubmitted or resumed unit
        reattaches to the same trace identity deterministically. The
        context travels as a *call argument*, never inside the unit
        config, keeping run keys byte-stable.
        """
        if self.trace_context is None:
            return None, None
        child = self.trace_context.child(f"unit:{unit.key}")
        return child.to_dict(), str(self.store.unit_trace_dir(unit.key))

    # -- outcome handling ----------------------------------------------------

    def _handle_outcome(
        self,
        unit: RunUnit,
        outcome: Mapping[str, Any],
        attempts: int,
        status: CampaignRunStatus,
    ) -> str:
        """Record one worker outcome; return done | retry | failed."""
        if outcome.get("ok"):
            result = dict(outcome["result"])
            self.store.record_done(unit.key, unit.config(), result)
            if self.checkpoint_every > 0:
                # The durable artifact supersedes the mid-run snapshot.
                self.store.clear_checkpoint(unit.key)
                if result.get("checkpoint") == "hit":
                    status.checkpoint_hits += 1
                    self._count("campaign_checkpoint_hits")
            self._release(unit)
            status.executed += 1
            status.provenance[unit.key] = PROVENANCE_EXECUTED
            self._count("campaign_units_done")
            self._notify("unit-done", unit, attempts=attempts)
            return "done"
        error = dict(outcome.get("error", {}))
        transient = error.get("severity") == "transient"
        if transient and attempts < self.config.max_retries:
            status.retries += 1
            self._count("campaign_unit_retries")
            self._emit_instant(
                "unit-retry", 0, key=unit.key, unit=unit.label,
                attempt=attempts + 1, error=error.get("message", ""),
            )
            self._notify(
                "unit-retry", unit, attempt=attempts + 1,
                error=error.get("message", ""),
            )
            time.sleep(self.config.backoff_for_attempt(attempts))
            return "retry"
        self.store.record_failed(unit.key, unit.config(), error)
        self._release(unit)
        status.failed += 1
        status.failed_units.append(unit.label)
        status.provenance[unit.key] = PROVENANCE_FAILED
        self._count("campaign_units_failed")
        self._emit_instant(
            "unit-failed", 0, key=unit.key, unit=unit.label,
            error=error.get("message", ""),
        )
        self._notify("unit-failed", unit, error=error.get("message", ""))
        return "failed"

    # -- serial path ---------------------------------------------------------

    def _run_inline(
        self, pending: Sequence[RunUnit], status: CampaignRunStatus
    ) -> None:
        """Run units one by one in this thread.

        Units write no beat here: only pool supervision
        (:meth:`_unit_is_dead`, :meth:`_reap_unit`) reads them.
        """
        for unit in pending:
            if self._stopping():
                status.interrupted = True
                self._emit_instant("campaign-interrupted", 0)
                return
            attempts = 0
            try:
                while True:
                    t_start = self._now()
                    self._beat(0, "running", unit=unit.label)
                    self._notify("unit-start", unit, attempts=attempts)
                    trace, trace_dir = self._trace_for(unit)
                    outcome = run_unit_safe(
                        unit.config(),
                        checkpoint_path=self._checkpoint_path(unit),
                        checkpoint_every=self.checkpoint_every,
                        trace=trace,
                        trace_dir=trace_dir,
                    )
                    verdict = self._handle_outcome(
                        unit, outcome, attempts, status
                    )
                    if verdict == "done":
                        self._emit_span(
                            unit.label, 0, t_start, self._now(),
                            key=unit.key, status="done", attempts=attempts,
                        )
                    if verdict != "retry":
                        break
                    attempts += 1
            except KeyboardInterrupt:
                status.interrupted = True
                self._emit_instant("campaign-interrupted", 0)
                return

    # -- parallel path -------------------------------------------------------

    def _transient_outcome(self, error_type: str, message: str) -> Dict[str, Any]:
        return {
            "ok": False,
            "error": {
                "type": error_type,
                "message": message,
                "severity": "transient",
            },
        }

    def _poll_interval(self) -> Optional[float]:
        """How long one ``wait()`` may block before supervision runs."""
        cfg = self.config
        poll = cfg.timeout_s
        if cfg.lane_dead_after_s is not None:
            tick = max(0.05, cfg.lane_dead_after_s / 4.0)
            poll = tick if poll is None else min(poll, tick)
        return poll

    def _unit_is_dead(self, unit: RunUnit) -> bool:
        """Missed-heartbeat verdict for one in-flight pool unit.

        Only a beat carrying the unit's own key counts. A unit without
        one has not started (its future is still queued behind the
        running ones), so it is not dead; a started unit is dead once
        its latest beat is older than the threshold. The worker writes a
        beat as the unit starts, so a hang in the first step is caught.
        """
        beat = self.store.read_unit_beat(unit.key)
        if beat.get("key") != unit.key:
            return False
        updated = float(beat.get("updated_s", 0.0))
        return time.time() - updated > self.config.lane_dead_after_s

    def _reap_unit(self, unit: RunUnit) -> None:
        """Best-effort SIGTERM to the worker pid in a dead unit's beat.

        With checkpointing enabled the worker's SIGTERM handler turns
        this into a :class:`~repro.faults.JobPreempted`, so a hung-but-
        alive worker persists a final checkpoint and frees its pool
        slot; a truly dead process ignores it harmlessly.
        """
        beat = self.store.read_unit_beat(unit.key)
        pid = beat.get("pid")
        if beat.get("key") != unit.key or not pid:
            return
        try:
            os.kill(int(pid), signal.SIGTERM)
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass

    def _run_pool(
        self, pending: Sequence[RunUnit], status: CampaignRunStatus
    ) -> None:
        cfg = self.config
        queue = deque((unit, 0) for unit in pending)
        # future -> (unit, attempts, t_start, lane)
        in_flight: Dict[Any, Any] = {}
        next_lane = 0
        pool = ProcessPoolExecutor(max_workers=cfg.workers)
        try:
            while queue or in_flight:
                if self._stopping():
                    status.interrupted = True
                    self._emit_instant("campaign-interrupted", 0)
                    return
                while queue and len(in_flight) < cfg.workers + _BACKLOG:
                    unit, attempts = queue.popleft()
                    lane = next_lane % cfg.workers
                    next_lane += 1
                    self._beat(lane, "running", unit=unit.label)
                    self._notify("unit-start", unit, attempts=attempts)
                    trace, trace_dir = self._trace_for(unit)
                    future = pool.submit(
                        run_unit_safe,
                        unit.config(),
                        self._checkpoint_path(unit),
                        self.checkpoint_every,
                        self._fresh_beat_path(unit),
                        trace,
                        trace_dir,
                    )
                    in_flight[future] = (unit, attempts, self._now(), lane)
                finished, _ = wait(
                    list(in_flight),
                    timeout=self._poll_interval(),
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in finished:
                    unit, attempts, t_start, lane = in_flight.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        # A worker process died hard (SIGKILL, OOM):
                        # every sibling future is poisoned too. Convert
                        # this unit to a transient retry and rebuild the
                        # pool below.
                        broken = True
                        outcome = self._transient_outcome(
                            "BrokenProcessPool",
                            "worker process died mid-unit",
                        )
                    self._beat(lane, "waiting")
                    verdict = self._handle_outcome(
                        unit, outcome, attempts, status
                    )
                    if verdict == "done":
                        self._emit_span(
                            unit.label, lane, t_start, self._now(),
                            key=unit.key, status="done", attempts=attempts,
                        )
                    elif verdict == "retry":
                        queue.append((unit, attempts + 1))
                if broken:
                    # Drain the rest of the poisoned pool: requeue every
                    # in-flight unit as a transient failure, then start
                    # a fresh pool so the campaign keeps going.
                    for future, (unit, attempts, _, _) in list(
                        in_flight.items()
                    ):
                        del in_flight[future]
                        verdict = self._handle_outcome(
                            unit,
                            self._transient_outcome(
                                "BrokenProcessPool",
                                "worker pool lost this unit",
                            ),
                            attempts,
                            status,
                        )
                        if verdict == "retry":
                            queue.append((unit, attempts + 1))
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(max_workers=cfg.workers)
                    self._count("campaign_pools_rebuilt")
                    self._emit_instant("pool-rebuilt", 0)
                    continue
                if not finished and cfg.timeout_s is not None:
                    # Nothing completed within the timeout window:
                    # expire every overdue future (best effort — the
                    # worker keeps running; its late result is
                    # discarded because the future left in_flight).
                    now = self._now()
                    for future in list(in_flight):
                        unit, attempts, t_start, _ = in_flight[future]
                        if now - t_start < cfg.timeout_s:
                            continue
                        del in_flight[future]
                        future.cancel()
                        verdict = self._handle_outcome(
                            unit,
                            self._transient_outcome(
                                "TimeoutError",
                                f"unit exceeded {cfg.timeout_s:g}s wall",
                            ),
                            attempts,
                            status,
                        )
                        if verdict == "retry":
                            queue.append((unit, attempts + 1))
                if cfg.lane_dead_after_s is not None:
                    for future in list(in_flight):
                        unit, attempts, _, lane = in_flight[future]
                        if future.done() or not self._unit_is_dead(unit):
                            continue
                        del in_flight[future]
                        future.cancel()
                        self._reap_unit(unit)
                        status.lanes_reaped += 1
                        self._count("campaign_lanes_reaped")
                        self._emit_instant(
                            "lane-dead", lane, key=unit.key, unit=unit.label
                        )
                        self._beat(lane, "dead", unit=unit.label)
                        verdict = self._handle_outcome(
                            unit,
                            self._transient_outcome(
                                "LaneDead",
                                f"lane {lane} missed heartbeats for "
                                f"{cfg.lane_dead_after_s:g}s",
                            ),
                            attempts,
                            status,
                        )
                        if verdict == "retry":
                            queue.append((unit, attempts + 1))
        except KeyboardInterrupt:
            status.interrupted = True
            # Persist whatever already finished, drop the rest.
            for future, (unit, attempts, t_start, lane) in list(
                in_flight.items()
            ):
                if future.done() and not future.cancelled():
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        continue
                    if outcome.get("ok"):
                        self._handle_outcome(
                            unit, outcome, attempts, status
                        )
                        self._emit_span(
                            unit.label, lane, t_start, self._now(),
                            key=unit.key, status="done", attempts=attempts,
                        )
                else:
                    future.cancel()
            self._emit_instant("campaign-interrupted", 0)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- entry point ---------------------------------------------------------

    def _attach_deferred(
        self, deferred: Sequence[RunUnit], status: CampaignRunStatus
    ) -> None:
        """Resolve units another executor claimed while we drained.

        For each deferred unit: wait for the owner to release, then
        take its stored outcome (``attached`` — no duplicate
        execution). If the owner failed or vanished without a ``done``
        record, claim the key ourselves and execute it after all.
        """
        for unit in deferred:
            while True:
                if self._stopping():
                    status.interrupted = True
                    return
                # Bounded wait so cancellation stays responsive even
                # while parked behind a long-running owner.
                self.inflight.wait(unit.key, timeout=0.5)
                if unit.key in self.store.completed_keys():
                    status.attached += 1
                    status.provenance[unit.key] = PROVENANCE_ATTACHED
                    self._count("campaign_units_attached")
                    self._emit_instant(
                        "unit-attached", 0, key=unit.key, unit=unit.label
                    )
                    self._notify("unit-attached", unit)
                    break
                if self.inflight.claim(unit.key):
                    self._claimed.add(unit.key)
                    self._run_inline([unit], status)
                    break

    def run(self, units: Sequence[RunUnit]) -> CampaignRunStatus:
        """Execute every unit not already in the store."""
        self._t0 = time.perf_counter()
        # Drop liveness files from previous (possibly killed) drains so
        # monitor watchers never alarm on another invocation's ghosts
        # and lane supervision starts from a clean slate.
        try:
            self.store.reset_heartbeats()
            self.store.reset_unit_beats()
        except OSError:  # pragma: no cover - disk-full / perms only
            pass
        status = CampaignRunStatus(total=len(units))
        done = self.store.completed_keys()
        pending: List[RunUnit] = []
        deferred: List[RunUnit] = []
        for unit in units:
            if unit.key in done:
                status.skipped += 1
                status.provenance[unit.key] = PROVENANCE_CACHED
                self._count("campaign_units_skipped")
                self._emit_instant(
                    "unit-skipped", 0, key=unit.key, unit=unit.label
                )
                self._notify("unit-cached", unit)
            else:
                pending.append(unit)
        if self.config.max_units is not None:
            pending = pending[: self.config.max_units]
        if self.inflight is not None:
            claimed: List[RunUnit] = []
            for unit in pending:
                if self.inflight.claim(unit.key):
                    self._claimed.add(unit.key)
                    claimed.append(unit)
                else:
                    deferred.append(unit)
            pending = claimed
        try:
            if pending:
                if self.config.workers <= 1:
                    self._run_inline(pending, status)
                else:
                    self._run_pool(pending, status)
            if deferred and not status.interrupted:
                self._attach_deferred(deferred, status)
        finally:
            # A drain must never exit holding claims (crash, interrupt,
            # max_units truncation): waiters would park forever.
            for key in list(self._claimed):
                self._claimed.discard(key)
                self.inflight.release(key)
        # Every lane goes idle when the drain finishes (or is
        # interrupted): watchers must not see the last unit's heartbeat
        # age into a phantom stall.
        for lane in list(self._heartbeats):
            self._beat(int(lane), "idle")
        status.wall_s = time.perf_counter() - self._t0
        self._emit_span(
            "campaign", 0, 0.0, status.wall_s,
            total=status.total, skipped=status.skipped,
            executed=status.executed, failed=status.failed,
        )
        return status


def run_campaign(
    spec: CampaignSpec,
    root: str,
    config: Optional[ExecutorConfig] = None,
    telemetry: Optional[Any] = None,
) -> tuple:
    """Expand a spec and drain it into ``root``; returns (status, store).

    The spec is persisted as ``<root>/spec.json`` so later
    ``resume``/``status``/``report`` invocations need only the
    directory, and the campaign telemetry trace (when a collector is
    given) is written to ``<root>/trace.jsonl``.
    """
    store = RunStore(root, campaign=spec.name)
    if store.campaign is not None and store.campaign != spec.name:
        raise ValueError(
            f"store at {root!r} belongs to campaign {store.campaign!r}, "
            f"not {spec.name!r}"
        )
    spec.save(str(store.spec_path))
    cfg = config if config is not None else ExecutorConfig()
    executor = CampaignExecutor(
        store,
        config=cfg,
        telemetry=telemetry,
        checkpoint_every=spec.checkpoint_every,
    )
    status = executor.run(spec.expand())
    if telemetry is not None:
        from ..telemetry import write_trace_jsonl

        context = getattr(telemetry, "context", None)
        extra = (
            {"trace_id": context.trace_id} if context is not None else {}
        )
        write_trace_jsonl(str(store.trace_path), telemetry.events, **extra)
    return status, store
