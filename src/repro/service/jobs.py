"""Campaign jobs: the service-side lifecycle of one submitted spec.

A job's identity is content-addressed like everything else in the
campaign layer: ``campaign_id(tenant, spec)`` hashes the canonical
spec document, so resubmitting byte-equivalent work lands on the same
job — an in-flight job absorbs the duplicate submission, a finished
one answers from its store without re-executing a single unit.

The job state machine is strictly forward::

    queued -> running -> done | failed | cancelled

``failed`` means the *drain* broke (unexpected exception); individual
unit failures are ordinary campaign data and leave the job ``done``
with a non-zero ``failed`` count, exactly like the CLI path.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..campaign import (
    CampaignExecutor,
    CampaignRunStatus,
    CampaignSpec,
    ExecutorConfig,
    InFlightRegistry,
    build_status_doc,
    canonical_json,
)
from ..campaign.executor import (
    PROVENANCE_ATTACHED,
    PROVENANCE_EXECUTED,
    PROVENANCE_FAILED,
)
from ..campaign.store import RunStore
from ..telemetry import TraceCollector, TraceContext, write_trace_jsonl
from .events import EventBus

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States in which a job will not change any further.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: Reported per-unit provenance: executed here, or served from cache.
CACHE_HIT = "cache_hit"


def campaign_id(tenant: str, spec: CampaignSpec) -> str:
    """Deterministic job id of one (tenant, spec) submission."""
    digest = hashlib.sha256(
        f"{tenant}\n{canonical_json(spec.to_dict())}".encode("utf-8")
    ).hexdigest()
    return f"c-{digest[:12]}"


def trace_context_for(tenant: str, job_id: str) -> TraceContext:
    """The root :class:`TraceContext` of one service submission.

    Seeded with the content-addressed job id, so resubmitting the same
    spec (or replaying the WAL after a crash) re-derives the *same*
    trace identity — the merged traces on disk stay addressable by the
    id every response returned.
    """
    from ..telemetry import mint_context

    return mint_context(seed=f"{tenant}:{job_id}")


class CampaignJob:
    """One admitted campaign: spec, store, progress stream, outcome."""

    def __init__(
        self,
        job_id: str,
        tenant: str,
        spec: CampaignSpec,
        store: RunStore,
        bus: EventBus,
        on_transition: Optional[Callable[["CampaignJob"], None]] = None,
        trace_context: Optional[TraceContext] = None,
    ) -> None:
        self.id = job_id
        self.tenant = tenant
        self.spec = spec
        self.store = store
        self.bus = bus
        #: Root trace context of the originating request; derived
        #: deterministically from (tenant, job id) — see
        #: :func:`trace_context_for` — so recovery re-mints it.
        self.trace_context = (
            trace_context
            if trace_context is not None
            else trace_context_for(tenant, job_id)
        )
        self.state = QUEUED
        self.submissions = 1
        self.error: Optional[str] = None
        self.status: Optional[CampaignRunStatus] = None
        self.adopted: List[str] = []
        self.created_s = time.time()
        self.started_s: Optional[float] = None
        self.finished_s: Optional[float] = None
        self._cancel = False
        #: Journal hook: called after every state change so the service
        #: WAL records the transition (see :mod:`repro.service.wal`).
        self.on_transition = on_transition
        #: True when this job object was rebuilt from the WAL after a
        #: service restart rather than submitted over HTTP.
        self.recovered = False
        # The grid is immutable per spec; expand once, reuse on every
        # status poll instead of re-walking the cross product.
        self.units = spec.expand()
        self.grid_keys = [unit.key for unit in self.units]

    @property
    def trace_id(self) -> str:
        """The trace id every response hands back for correlation."""
        return self.trace_context.trace_id

    # -- lifecycle -----------------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def _transition(self, state: str) -> None:
        """Move the state machine and journal the move.

        A journaling failure (disk full on the WAL append) must not
        take the job down — the in-memory table stays authoritative for
        this process; recovery just sees the previous state.
        """
        self.state = state
        if self.on_transition is not None:
            try:
                self.on_transition(self)
            except OSError:  # pragma: no cover - disk-full / perms only
                pass

    def request_cancel(self) -> None:
        self._cancel = True

    @property
    def cancel_requested(self) -> bool:
        return self._cancel

    def mark_cancelled(self) -> None:
        """Cancelled before ever starting (dropped from the queue)."""
        self._transition(CANCELLED)
        self.finished_s = time.time()
        self.bus.publish({"event": "campaign-cancelled", "id": self.id})
        self.bus.close()

    def execute(
        self,
        inflight: InFlightRegistry,
        executor_config: Optional[ExecutorConfig] = None,
        adopt: Optional[Callable[[RunStore, List[str]], List[str]]] = None,
        publish: Optional[Callable[[RunStore, List[str]], int]] = None,
        on_drained: Optional[Callable[[CampaignRunStatus], None]] = None,
    ) -> None:
        """Drain the campaign (worker thread); never raises.

        ``adopt``/``publish`` are the tenancy layer's shared-cache
        read-through and write-through hooks. ``on_drained`` gets the
        drain's status before the job turns terminal, so whatever it
        records is in place when a client sees the final state. Even a
        ``BaseException`` (worker-thread interrupt, interpreter
        shutdown) leaves the job in a terminal state with its event bus
        closed — subscribers and WAL replay must never see a job wedged
        in ``running``.
        """
        self._transition(RUNNING)
        self.started_s = time.time()
        self.bus.publish(
            {"event": "campaign-start", "id": self.id,
             "units": len(self.grid_keys)}
        )
        try:
            if adopt is not None:
                self.adopted = adopt(self.store, self.grid_keys)
                for key in self.adopted:
                    self.bus.publish(
                        {"event": "unit-shared-cache-hit", "key": key}
                    )
            # Campaign-level telemetry runs under the request's trace
            # context: executor spans/instants carry the trace id, and
            # every dispatched unit derives its child context from it.
            telemetry = TraceCollector()
            telemetry.configure_tracing(self.trace_context)
            executor = CampaignExecutor(
                self.store,
                config=executor_config,
                telemetry=telemetry,
                on_event=self.bus.publish,
                should_stop=lambda: self._cancel,
                inflight=inflight,
                checkpoint_every=self.spec.checkpoint_every,
            )
            self.status = executor.run(self.units)
            if on_drained is not None:
                on_drained(self.status)
            try:
                write_trace_jsonl(
                    str(self.store.trace_path),
                    telemetry.events,
                    trace_id=self.trace_id,
                )
            except OSError:  # pragma: no cover - disk-full / perms only
                pass
            if publish is not None:
                publish(self.store, self.grid_keys)
            if self.status.interrupted and self._cancel:
                self._transition(CANCELLED)
            else:
                self._transition(DONE)
        except Exception as exc:  # noqa: BLE001 - job boundary
            self.error = f"{type(exc).__name__}: {exc}"
            self._transition(FAILED)
        except BaseException as exc:  # noqa: BLE001 - thread teardown
            self.error = f"{type(exc).__name__}: {exc}"
            self._transition(FAILED)
            raise
        finally:
            self.finished_s = time.time()
            summary: Dict[str, Any] = {
                "event": f"campaign-{self.state}", "id": self.id,
            }
            if self.status is not None:
                summary.update(
                    executed=self.status.executed,
                    cached=self.status.skipped,
                    attached=self.status.attached,
                    failed=self.status.failed,
                )
            if self.error is not None:
                summary["error"] = self.error
            self.bus.publish(summary)
            self.bus.close()

    # -- reporting -----------------------------------------------------------

    def unit_provenance(self) -> Dict[str, Mapping[str, Any]]:
        """Per-unit provenance of the last drain: who computed what.

        Anything this job did not execute itself is a ``cache_hit``
        with a ``via`` detail: ``store`` (completed in an earlier
        drain), ``inflight`` (attached to a concurrently-running
        campaign's unit) or ``shared`` (adopted from the cross-tenant
        cache).
        """
        if self.status is None:
            return {}
        adopted = set(self.adopted)
        out: Dict[str, Mapping[str, Any]] = {}
        for key, prov in sorted(self.status.provenance.items()):
            if prov == PROVENANCE_EXECUTED:
                out[key] = {"provenance": "executed", "via": None}
            elif prov == PROVENANCE_FAILED:
                out[key] = {"provenance": "failed", "via": None}
            elif prov == PROVENANCE_ATTACHED:
                out[key] = {"provenance": CACHE_HIT, "via": "inflight"}
            elif key in adopted:
                out[key] = {"provenance": CACHE_HIT, "via": "shared"}
            else:
                out[key] = {"provenance": CACHE_HIT, "via": "store"}
        return out

    def cache_hits(self) -> int:
        if self.status is None:
            return 0
        return self.status.skipped + self.status.attached

    def status_doc(self) -> Dict[str, Any]:
        """The service status document (wraps the shared serializer)."""
        doc: Dict[str, Any] = {
            "schema": 1,
            "kind": "service-campaign",
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "trace_id": self.trace_id,
            "traceparent": self.trace_context.to_traceparent(),
            "submissions": self.submissions,
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "campaign": build_status_doc(self.store, self.spec),
            "events": len(self.bus),
        }
        if self.recovered:
            doc["recovered"] = True
        if self.error is not None:
            doc["error"] = self.error
        if self.status is not None:
            doc["drain"] = {
                "executed": self.status.executed,
                "cached": self.status.skipped,
                "attached": self.status.attached,
                "failed": self.status.failed,
                "retries": self.status.retries,
                "interrupted": self.status.interrupted,
                "wall_s": self.status.wall_s,
                "checkpoint_hits": self.status.checkpoint_hits,
                "lanes_reaped": self.status.lanes_reaped,
            }
            doc["units"] = self.unit_provenance()
        return doc
