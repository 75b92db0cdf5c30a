"""service-mixed: open-loop campaign submissions to an in-process server.

An in-process ``repro serve`` (``max_running=1``) on an ephemeral port.
One connection submits two-unit campaigns on a fixed schedule (``RATE``
per second, well below what the server sustains on a 2-core host)
for two tenants (``x-repro-tenant``); a second connection polls
campaign status in a closed loop. Each new campaign shares one unit
with the previous new one, and every tenth submission repeats an
earlier spec verbatim, so the store is read (cache adoption, dedup) as
well as written. The seed argument draws the particle counts, tenants
and repeats.

A campaign's latency runs from its *due* submission time to ``done``
(the later of the server's finish time and the submit response), so a
stall also charges the submissions it delays.
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from . import common

NAME = "service-mixed"
#: Job threads of the server (campaigns running at once). One, not
#: two: the NVML, ROCm SMI and Level Zero emulations keep one
#: process-global device registry, so units of two concurrent job
#: threads pin each other's GPUs and one unit's detach de-initializes
#: NVML under the other (wrong artifacts, failed units). Set it back to
#: 2 once the registry is per cluster; with 2, about one run in six
#: fails its correctness check.
JOB_THREADS = 1
PARALLELISM = JOB_THREADS
#: One operation is the whole schedule (count guard across runs only).
REPEATED_OPS = False
TENANTS = ("tenant-a", "tenant-b")
#: Submissions per second of the open-loop generator.
RATE = 4.0
REPEAT_EVERY = 10
PARTICLES_MIN = 2.0e5
PARTICLES_STEP = 2.5e4
POLL_PAUSE_S = 0.01
#: Seconds the last campaign may take to finish after its due time.
DRAIN_TIMEOUT_S = 60.0
SIZES = {
    "full": {"steps": 20, "min_campaigns": 100},
    "tiny": {"steps": 2, "min_campaigns": 4},
}


@dataclass
class Submission:
    due_s: float
    tenant: str
    spec: Dict[str, Any]


@dataclass
class Inputs:
    seed: int
    size: str
    workdir: Path
    loop: asyncio.AbstractEventLoop
    passes: int = 0
    service: Any = None
    server: Any = None


@dataclass
class Outcome:
    latencies_s: List[float] = field(default_factory=list)
    polls_ms: List[float] = field(default_factory=list)
    #: Per poll: a job was running when it was sent.
    polls_busy: List[bool] = field(default_factory=list)
    requests: int = 0
    failed_requests: int = 0
    submit_lag_s: float = 0.0
    backlog_end: int = 0
    units_executed: int = 0
    units_failed: int = 0
    #: Executions of a unit some other job of the pass also executed.
    duplicate_units: int = 0
    particle_steps: float = 0.0
    window_s: float = 0.0
    #: (tenant, campaign id) of every accepted submission.
    campaigns: List[Tuple[str, str]] = field(default_factory=list)
    #: Report documents fetched over HTTP after the window.
    reports: Dict[str, Any] = field(default_factory=dict)
    unfinished: int = 0
    service: Any = None


def spec_doc(seed: int, particles: Tuple[float, float], steps: int
             ) -> Dict[str, Any]:
    return {
        "schema": 1,
        "kind": "campaign-spec",
        "name": "perfbench-service",
        "systems": ["miniHPC"],
        "workloads": ["SedovBlast"],
        "particles": list(particles),
        "steps": steps,
        "seeds": [seed],
        "policies": [{"kind": "mandyn"}],
    }


def make_schedule(seed: int, size: str, count: int) -> List[Submission]:
    """``count`` submissions due every ``1/RATE`` seconds.

    Every tenth submission repeats an earlier spec verbatim (tenant
    drawn from the seed); the others extend one chain of particle
    counts, a seeded order of one fixed set, so every seed executes the
    same number of units of the same total size.
    """
    rng = random.Random(seed)
    steps = SIZES[size]["steps"]
    n_new = count - count // REPEAT_EVERY
    chain = [PARTICLES_MIN + PARTICLES_STEP * k for k in range(n_new + 1)]
    rng.shuffle(chain)
    out: List[Submission] = []
    new: List[Submission] = []
    for i in range(count):
        due = i / RATE
        if i % REPEAT_EVERY == REPEAT_EVERY - 1:
            earlier = rng.choice(new)
            out.append(Submission(due, rng.choice(TENANTS), earlier.spec))
            continue
        k = len(new)
        new.append(Submission(due, TENANTS[k % 2],
                              spec_doc(seed, (chain[k], chain[k + 1]), steps)))
        out.append(new[-1])
    return out


def schedule_length(seconds: float, size: str) -> int:
    return max(SIZES[size]["min_campaigns"], int(round(seconds * RATE)))


async def _boot(root: Path):
    from repro.service import (
        CampaignService,
        SchedulerConfig,
        ServiceConfig,
        serve,
    )

    service = CampaignService(ServiceConfig(
        root=str(root),
        scheduler=SchedulerConfig(max_running=JOB_THREADS),
    ))
    server = await serve(service, port=0)
    return service, server


def _boot_fresh(inputs: Inputs) -> None:
    if inputs.passes:
        shutil.rmtree(inputs.workdir / f"service-{inputs.passes - 1}",
                      ignore_errors=True)
    root = inputs.workdir / f"service-{inputs.passes}"
    inputs.passes += 1
    inputs.service, inputs.server = inputs.loop.run_until_complete(
        _boot(root))


def _shutdown(inputs: Inputs) -> None:
    if inputs.server is None:
        return

    async def close() -> None:
        await inputs.server.close()
        await inputs.service.close()

    inputs.loop.run_until_complete(close())
    inputs.service = inputs.server = None


def setup(seed: int, size: str, workdir: Path) -> Inputs:
    """Schedule, spec validation (catalog) and a booted server."""
    from repro.campaign import CampaignSpec

    schedule = make_schedule(seed, size, SIZES[size]["min_campaigns"])
    CampaignSpec.from_dict(schedule[0].spec)
    inputs = Inputs(seed, size, Path(workdir), asyncio.new_event_loop())
    _boot_fresh(inputs)
    return inputs


class Client:
    """One keep-alive HTTP/1.1 connection issuing sequential requests."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def __aenter__(self) -> "Client":
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port)
        return self

    async def __aexit__(self, *exc) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def request(self, method: str, path: str, tenant: str,
                      body: Any = None) -> Tuple[int, Dict[str, Any]]:
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        self.writer.write(
            (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
             f"x-repro-tenant: {tenant}\r\n"
             f"Content-Length: {len(payload)}\r\n\r\n").encode("latin-1")
            + payload)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        for line in lines[1:]:
            if line.lower().startswith("content-length:"):
                length = int(line.split(":", 1)[1])
        raw = await self.reader.readexactly(length) if length else b""
        return status, (json.loads(raw) if raw else {})


async def _run_schedule(inputs: Inputs, schedule: List[Submission],
                        out: Outcome) -> None:
    service, server = inputs.service, inputs.server
    # Clock for matching the server's time.time() finish stamps.
    wall_offset = time.time() - time.perf_counter()
    accepted: List[Tuple[float, float, str]] = []  # (due, answered, id)
    submitted = asyncio.Event()
    all_sent = False

    async def generate() -> None:
        nonlocal all_sent
        async with Client(server.host, server.port) as client:
            start = time.perf_counter()
            for sub in schedule:
                due = start + sub.due_s
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                out.submit_lag_s = max(out.submit_lag_s,
                                       time.perf_counter() - due)
                out.requests += 1
                status, doc = await client.request(
                    "POST", "/campaigns", sub.tenant, sub.spec)
                if status >= 400:
                    out.failed_requests += 1
                    continue
                accepted.append((due, time.perf_counter(), doc["id"]))
                out.campaigns.append((sub.tenant, doc["id"]))
                submitted.set()
            out.backlog_end = sum(
                1 for job in service.jobs.values() if not job.terminal)
        all_sent = True
        submitted.set()

    async def poll() -> None:
        await submitted.wait()
        async with Client(server.host, server.port) as client:
            i = 0
            while not (all_sent and all(
                    service.job(cid).terminal for _t, cid in out.campaigns)):
                tenant, cid = out.campaigns[i % len(out.campaigns)]
                i += 1
                out.polls_busy.append(service.scheduler.total_running > 0)
                t0 = time.perf_counter()
                out.requests += 1
                status, _doc = await client.request(
                    "GET", f"/campaigns/{cid}", tenant)
                out.polls_ms.append((time.perf_counter() - t0) * 1e3)
                if status >= 400:
                    out.failed_requests += 1
                await asyncio.sleep(POLL_PAUSE_S)

    start = time.perf_counter()
    poller = asyncio.ensure_future(poll())
    try:
        await generate()
        await asyncio.wait_for(poller, DRAIN_TIMEOUT_S)
    except asyncio.TimeoutError:
        out.unfinished = sum(1 for _t, cid in out.campaigns
                             if not service.job(cid).terminal)
    finally:
        poller.cancel()
    out.window_s = time.perf_counter() - start
    for due, answered, cid in accepted:
        job = service.job(cid)
        finished = (job.finished_s or time.time()) - wall_offset
        out.latencies_s.append(max(finished, answered) - due)
    distinct = set()
    for job in service.jobs.values():
        if job.status is None:
            continue
        out.units_executed += job.status.executed
        out.units_failed += job.status.failed
        executed = {k for k, v in job.status.provenance.items()
                    if v == "executed"}
        distinct |= executed
        out.particle_steps += sum(u.particles * u.steps
                                  for u in job.units if u.key in executed)
    out.duplicate_units = out.units_executed - len(distinct)
    async with Client(server.host, server.port) as client:
        for tenant, cid in dict.fromkeys(out.campaigns):
            status, doc = await client.request(
                "GET", f"/campaigns/{cid}/report", tenant)
            out.reports[cid] = doc if status == 200 else None


def run_pass(inputs: Inputs, count: int) -> Outcome:
    """Run a ``count``-submission schedule against a fresh server."""
    schedule = make_schedule(inputs.seed, inputs.size, count)
    if inputs.service is None:
        _boot_fresh(inputs)
    out = Outcome(service=inputs.service)
    try:
        inputs.loop.run_until_complete(
            _run_schedule(inputs, schedule, out))
    finally:
        _shutdown(inputs)
    return out


def warmup(inputs: Inputs) -> None:
    """A few campaigns on a throwaway server fill lazy imports."""
    run_pass(inputs, 4)


def run_window(inputs: Inputs, seconds: float) -> Outcome:
    return run_pass(inputs, schedule_length(seconds, inputs.size))


def trace_ops(seconds: float, size: str) -> int:
    """Submissions of each traced-run pass: half the window's schedule."""
    return max(SIZES[size]["min_campaigns"] // 2, round(seconds * RATE / 2))


def run_ops(inputs: Inputs, ops: int, on_op=None) -> Outcome:
    out = run_pass(inputs, ops)
    if on_op is not None:
        on_op()
    return out


def check(inputs: Inputs, outcome: Outcome) -> List[str]:
    """Reports and artifacts vs the same units computed directly."""
    from repro.campaign import RunStore, build_summary, execute_unit

    problems: List[str] = []
    if outcome.unfinished:
        problems.append(f"{outcome.unfinished} campaigns did not finish "
                        f"within {DRAIN_TIMEOUT_S} s of the last submission")
    service = outcome.service
    expected_root = inputs.workdir / "expected"
    shutil.rmtree(expected_root, ignore_errors=True)
    expected = RunStore(str(expected_root), campaign="perfbench-service")
    direct: Dict[str, Dict[str, Any]] = {}
    executed: Dict[str, set] = {}
    served: List[Tuple[str, str, str, str]] = []
    for cid in dict.fromkeys(cid for _t, cid in outcome.campaigns):
        job = service.job(cid)
        if job.state != "done":
            problems.append(f"campaign {cid} ended {job.state}: {job.error}")
            continue
        if job.status.failed:
            problems.append(f"campaign {cid}: units failed: "
                            f"{', '.join(job.status.failed_units)}")
            continue
        if job.status.retries:
            problems.append(f"campaign {cid}: {job.status.retries} unit "
                            "executions were retried after an error")
        provenance = job.unit_provenance()
        for unit in job.units:
            if unit.key not in direct:
                payload = json.loads(common.canonical(execute_unit(unit.config())))
                direct[unit.key] = payload
                expected.record_done(unit.key, unit.config(), payload)
            result = job.store.load_result(unit.key)["result"]
            got = {k: result[k] for k in ("metrics", "report")}
            if common.canonical(got) != common.canonical(direct[unit.key]):
                problems.append(f"campaign {cid} unit {unit.label}: artifact "
                                "differs from a direct execute_unit")
            if provenance[unit.key]["provenance"] == "executed":
                executed.setdefault(unit.key, set()).add(common.canonical(result))
            else:
                served.append((cid, unit.label, unit.key, common.canonical(result)))
        want = json.loads(common.canonical(build_summary(expected,
                                                  keys=job.grid_keys)))
        if common.canonical(outcome.reports.get(cid)) != common.canonical(want):
            problems.append(f"campaign {cid}: report differs from the one "
                            "built from direct results")
    for cid, label, key, result in served:
        if result not in executed.get(key, ()):
            problems.append(f"campaign {cid} unit {label}: cache-served "
                            "artifact is not byte-identical to an executed one")
    shutil.rmtree(expected_root, ignore_errors=True)
    return problems


def end_to_end(outcome: Outcome) -> Dict[str, float]:
    """Poll latency counts the polls sent while a job ran (all polls if
    none was, as in a tiny run): idle polls never wait for a job thread,
    so mixing them in would tie the tail to how busy the server was."""
    busy = [ms for ms, b in zip(outcome.polls_ms, outcome.polls_busy) if b]
    polls = busy or outcome.polls_ms
    return {
        "particle_steps_per_s": outcome.particle_steps / outcome.window_s,
        "units_per_s": outcome.units_executed / outcome.window_s,
        "campaign_p50_s": common.percentile(outcome.latencies_s, 50),
        "campaign_p90_s": common.percentile(outcome.latencies_s, 90),
        "poll_p50_ms": common.percentile(polls, 50),
        "poll_p99_ms": common.percentile(polls, 99),
    }


def operations(outcome: Outcome) -> Dict[str, int]:
    """HTTP requests and unit executions; refused requests and failed
    units count as failed."""
    return {"attempted": (outcome.requests + outcome.units_executed
                          + outcome.units_failed),
            "failed": outcome.failed_requests + outcome.units_failed}


def layer_extras(outcome: Outcome) -> Dict[str, float]:
    return {"service.submit_lag_s": outcome.submit_lag_s,
            "service.backlog_end": outcome.backlog_end,
            "service.duplicate_units": outcome.duplicate_units}


def primary_wall(outcome: Outcome) -> float:
    return sum(outcome.latencies_s) / len(outcome.latencies_s)


def cleanup(inputs: Inputs) -> None:
    _shutdown(inputs)
    inputs.loop.close()
    shutil.rmtree(inputs.workdir, ignore_errors=True)
