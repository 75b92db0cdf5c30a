"""The campaign service engine: everything behind the HTTP surface.

:class:`CampaignService` owns the long-lived state — the multi-tenant
store, the job table, the in-flight unit registry, the fair scheduler,
the metrics registry and the report cache — and exposes the verbs the
control plane routes to (`submit`, `status_doc`, `report`, `cancel`,
`health`, `metrics_text`). It is deliberately HTTP-free so tests and
embedders can drive a service in-process.

Result caching happens at two content-addressed layers:

* **unit artifacts** — the campaign layer's run keys, deduped through
  the store / in-flight registry / cross-tenant shared cache;
* **reports** — an aggregated EDP/Pareto summary is cached under the
  hash of the exact set of completed unit keys it folds, so repeated
  report queries (the hot read path) recompute only when a new unit
  lands.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..campaign import (
    CampaignRunStatus,
    CampaignSpec,
    ExecutorConfig,
    InFlightRegistry,
    build_summary,
    canonical_json,
)
from ..monitor import render_prometheus, stalled_worker_alerts
from ..telemetry.metrics import MetricsRegistry
from .events import EventBus
from .jobs import (
    DONE,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    CampaignJob,
    campaign_id,
)
from .scheduler import BackpressureError, FairScheduler, SchedulerConfig
from .tenancy import MultiTenantRunStore, validate_tenant
from .wal import JOB_WAL_NAME, JobWal

__all__ = [
    "BackpressureError",
    "CampaignService",
    "ServiceConfig",
    "ServiceUnavailable",
]


#: GIL switch interval while a service runs, seconds (CPython's
#: default is 5 ms). A job thread running a unit is pure Python and
#: holds the GIL for whole switch intervals; the event loop's request
#: handlers wait behind it. At 0.2 ms a request waits at most that
#: long. The setting is process-global, so :meth:`CampaignService.close`
#: restores the previous value.
SWITCH_INTERVAL_S = 0.0002


class ServiceUnavailable(RuntimeError):
    """The service is draining for shutdown; submissions are refused."""


@dataclass(frozen=True)
class ServiceConfig:
    """One service instance's knobs."""

    #: Root directory of the multi-tenant store.
    root: str
    #: Share completed artifacts across tenants (read-through cache).
    shared_cache: bool = True
    #: Scheduler admission/fairness settings.
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: Per-campaign executor settings (workers=1 drains inline in the
    #: job's worker thread; >1 adds a process pool per campaign).
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)
    #: Heartbeat age that surfaces a worker-stall alert in status docs.
    stall_after_s: float = 120.0


class CampaignService:
    """Multi-tenant campaign execution with content-hash caching."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.stores = MultiTenantRunStore(
            config.root, shared_cache=config.shared_cache
        )
        self.metrics = MetricsRegistry()
        self.inflight = InFlightRegistry()
        self.jobs: Dict[str, CampaignJob] = {}
        self.started_s = time.time()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._scheduler: Optional[FairScheduler] = None
        self._report_cache: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        self._wals: Dict[str, JobWal] = {}
        self._draining = False
        self._saved_switch_interval: Optional[float] = None
        #: Job threads count their drains concurrently.
        self._drain_count_lock = threading.Lock()
        #: Campaign ids rebuilt from the WAL on the last start().
        self.recovered_ids: List[str] = []

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "CampaignService":
        self._loop = asyncio.get_running_loop()
        if self._saved_switch_interval is None:
            self._saved_switch_interval = sys.getswitchinterval()
            sys.setswitchinterval(SWITCH_INTERVAL_S)
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.scheduler.max_running,
            thread_name_prefix="repro-service-worker",
        )
        self._scheduler = FairScheduler(
            self._run_job, config=self.config.scheduler
        )
        self._recover()
        return self

    def begin_shutdown(self) -> None:
        """Graceful drain: refuse new work, stop running campaigns.

        New submissions get :class:`ServiceUnavailable` (503); running
        drains see their ``should_stop`` flag and halt at the next unit
        boundary (completed units are durable, interrupted ones resume
        from their checkpoints on the next start); every transition is
        journaled, so a subsequent :meth:`start` replays the WAL and
        picks the interrupted campaigns back up.
        """
        if self._draining:
            return
        self._draining = True
        self._count("service_shutdowns")
        for job in self.jobs.values():
            if not job.terminal:
                job.request_cancel()

    @property
    def draining(self) -> bool:
        return self._draining

    async def close(self) -> None:
        self.begin_shutdown()
        if self._scheduler is not None:
            await self._scheduler.drain()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._saved_switch_interval is not None:
            sys.setswitchinterval(self._saved_switch_interval)
            self._saved_switch_interval = None

    # -- durability ----------------------------------------------------------

    def wal_for(self, tenant: str) -> JobWal:
        """The tenant's job journal (created lazily, cached)."""
        tenant = validate_tenant(tenant)
        wal = self._wals.get(tenant)
        if wal is None:
            wal = self._wals[tenant] = JobWal(
                str(self.stores.tenant_root(tenant) / JOB_WAL_NAME)
            )
        return wal

    def _journal_transition(self, job: CampaignJob) -> None:
        self.wal_for(job.tenant).record_state(
            job.id, job.state, error=job.error
        )

    def _recover(self) -> None:
        """Rebuild the job table from every tenant's WAL.

        Terminal jobs come back as queryable records (status, report
        and SSE answer for their pre-restart ids); jobs that were
        queued or running when the previous process died are
        resubmitted to the scheduler — their drains resume from the
        run store (completed units cached) and from unit checkpoints
        (partially-run units continue mid-simulation).
        """
        self.recovered_ids = []
        for tenant in self.stores.tenants():
            wal_path = self.stores.tenant_root(tenant) / JOB_WAL_NAME
            if not wal_path.exists():
                continue
            try:
                lifecycles = self.wal_for(tenant).replay()
            except ValueError:
                self._count("service_wal_replay_errors")
                continue
            for job_id, lifecycle in lifecycles.items():
                if job_id in self.jobs:
                    continue
                try:
                    spec = CampaignSpec.from_dict(lifecycle.spec)
                except (KeyError, TypeError, ValueError):
                    self._count("service_wal_replay_errors")
                    continue
                store = self.stores.store_for(tenant, spec.name)
                bus = EventBus(loop=self._loop)
                job = CampaignJob(
                    job_id, tenant, spec, store, bus,
                    on_transition=self._journal_transition,
                )
                job.recovered = True
                job.submissions = lifecycle.submissions
                job.created_s = lifecycle.submitted_s
                if lifecycle.state in TERMINAL_STATES:
                    job.state = lifecycle.state
                    job.error = lifecycle.error
                    job.finished_s = lifecycle.updated_s
                    job.bus.close()
                    self.jobs[job_id] = job
                    self.recovered_ids.append(job_id)
                    self._count("service_jobs_recovered_terminal")
                else:
                    # queued or running at crash: run it (again); the
                    # store/checkpoints make the re-drain incremental.
                    try:
                        self.scheduler.submit(job)
                    except BackpressureError:
                        self._count("service_recovery_rejected")
                        continue
                    self.jobs[job_id] = job
                    self.recovered_ids.append(job_id)
                    self._count("service_jobs_recovered_resumed")

    @property
    def scheduler(self) -> FairScheduler:
        if self._scheduler is None:
            raise RuntimeError("service is not started")
        return self._scheduler

    # -- submission ----------------------------------------------------------

    def submit(
        self, tenant: Optional[str], spec_payload: Mapping[str, Any]
    ) -> Tuple[CampaignJob, bool]:
        """Admit one campaign spec; returns ``(job, created)``.

        ``created`` is False when the submission deduplicated onto an
        existing job (same tenant, byte-equivalent spec) that is
        queued, running or done — the caller gets the original id and,
        for a done job, an immediately-consistent result with zero
        re-execution.
        """
        if self._draining:
            self._count("service_submissions_refused_draining")
            raise ServiceUnavailable(
                "service is shutting down; resubmit after restart"
            )
        tenant = validate_tenant(tenant)
        spec = CampaignSpec.from_dict(spec_payload)
        job_id = campaign_id(tenant, spec)
        existing = self.jobs.get(job_id)
        if existing is not None and existing.state in (QUEUED, RUNNING, DONE):
            existing.submissions += 1
            self._count("service_submissions_deduped")
            return existing, False
        # A failed/cancelled job resubmits as a fresh attempt under the
        # same content-addressed id; completed units stay cached.
        store = self.stores.store_for(tenant, spec.name)
        bus = EventBus(loop=self._loop)
        job = CampaignJob(
            job_id, tenant, spec, store, bus,
            on_transition=self._journal_transition,
        )
        try:
            self.scheduler.submit(job)
        except BackpressureError:
            self._count("service_submissions_rejected")
            raise
        # Write-ahead: the submission is on disk before the caller gets
        # its 202 — a crash after this point can only *delay* the
        # campaign, never lose it. The trace id rides along so offline
        # tooling can correlate WAL entries with merged traces (the
        # context itself re-derives from the job id on recovery).
        self.wal_for(tenant).record_submit(
            job_id, tenant, spec.to_dict(), trace_id=job.trace_id
        )
        self.jobs[job_id] = job
        self._count("service_submissions")
        return job, True

    async def _run_job(self, job: CampaignJob) -> None:
        if job.cancel_requested:
            job.mark_cancelled()
            return
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            self._pool,
            functools.partial(
                job.execute,
                self.inflight,
                self.config.executor,
                self.stores.adopt_shared,
                self.stores.publish_shared,
                on_drained=self._count_drain,
            ),
        )

    def _count_drain(self, status: CampaignRunStatus) -> None:
        """Unit counters of one finished drain.

        Runs on the job thread before the job's terminal state is
        visible, so a client that sees ``done`` reads counters that
        already include the drain.
        """
        with self._drain_count_lock:
            self._count("service_units_executed", status.executed)
            self._count("service_units_failed", status.failed)
            # Adopted units are a subset of the skipped ones (the
            # executor sees them as already completed), so don't add
            # them twice.
            self._count(
                "service_unit_cache_hits", status.skipped + status.attached
            )

    # -- queries -------------------------------------------------------------

    def job(self, job_id: str) -> CampaignJob:
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown campaign {job_id!r}")
        return job

    def jobs_for(self, tenant: Optional[str] = None) -> List[CampaignJob]:
        jobs = sorted(self.jobs.values(), key=lambda j: j.created_s)
        if tenant is None:
            return jobs
        tenant = validate_tenant(tenant)
        return [j for j in jobs if j.tenant == tenant]

    def status_doc(self, job: CampaignJob) -> Dict[str, Any]:
        """Job status + live worker-stall alerts for running drains."""
        doc = job.status_doc()
        alerts: List[Dict[str, Any]] = []
        if job.state == RUNNING:
            try:
                heartbeats = job.store.read_heartbeats()
            except (OSError, ValueError):
                heartbeats = {}
            alerts = [
                alert.to_dict()
                for alert in stalled_worker_alerts(
                    heartbeats, time.time(),
                    stall_after_s=self.config.stall_after_s,
                )
            ]
        doc["alerts"] = alerts
        return doc

    def cancel(self, job: CampaignJob) -> str:
        """Cancel a job; returns its (possibly unchanged) state."""
        if job.terminal:
            return job.state
        job.request_cancel()
        if job.state == QUEUED and self.scheduler.cancel_queued(job):
            job.mark_cancelled()
        self._count("service_cancellations")
        return job.state

    # -- report cache --------------------------------------------------------

    def report(self, job: CampaignJob) -> Dict[str, Any]:
        """EDP/Pareto summary of the job's grid, content-hash cached."""
        grid = set(job.grid_keys)
        completed = sorted(job.store.completed_keys() & grid)
        if not completed:
            raise LookupError(
                f"campaign {job.id!r} has no completed runs yet"
            )
        content = hashlib.sha256(
            canonical_json([job.store.campaign, completed]).encode("utf-8")
        ).hexdigest()
        cached = self._report_cache.get(job.id)
        if cached is not None and cached[0] == content:
            self._count("service_report_cache_hits")
            return cached[1]
        self._count("service_report_cache_misses")
        summary = build_summary(job.store, keys=job.grid_keys)
        self._report_cache[job.id] = (content, summary)
        return summary

    # -- health / metrics ----------------------------------------------------

    def health(self) -> Dict[str, Any]:
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "status": "draining" if self._draining else "ok",
            "draining": self._draining,
            "uptime_s": time.time() - self.started_s,
            "jobs": states,
            "tenants": self.stores.tenants(),
            "scheduler": self.scheduler.stats(),
            "in_flight_units": len(self.inflight.in_flight()),
        }

    def metrics_text(self) -> str:
        stats = self.scheduler.stats()
        self.metrics.gauge("service_jobs_running").set(stats["running"])
        self.metrics.gauge("service_jobs_queued").set(stats["queued"])
        self.metrics.gauge(
            "service_uptime_s"
        ).set(time.time() - self.started_s)
        return render_prometheus(self.metrics)

    def _count(self, name: str, amount: float = 1.0) -> None:
        if amount:
            self.metrics.counter(name).inc(amount)
