"""End-to-end control-plane tests: real sockets, real campaigns.

Each scenario boots a :class:`CampaignService` plus its HTTP front end
on an ephemeral port inside one ``asyncio.run`` and talks to it over a
plain stream connection — the same wire a curl/urllib client sees.
"""

import asyncio
import json
import sys
import time

import pytest

from repro.service import (
    CampaignService,
    SchedulerConfig,
    ServiceConfig,
    serve,
)
from repro.service.service import SWITCH_INTERVAL_S

# ---------------------------------------------------------------------------
# a tiny stdlib HTTP client for the tests
# ---------------------------------------------------------------------------


def _parse_chunked(payload):
    body = b""
    rest = payload
    while rest:
        size_line, _, rest = rest.partition(b"\r\n")
        size = int(size_line, 16)
        if size == 0:
            break
        body += rest[:size]
        rest = rest[size + 2:]
    return body


def _parse_response(raw):
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding") == "chunked":
        body = _parse_chunked(body)
    return status, headers, body.decode("utf-8")


async def request(server, method, path, body=None, tenant=None):
    reader, writer = await asyncio.open_connection(server.host, server.port)
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = [
        f"{method} {path} HTTP/1.1",
        f"Host: {server.host}",
        "Connection: close",
        f"Content-Length: {len(payload)}",
    ]
    if tenant is not None:
        head.append(f"X-Repro-Tenant: {tenant}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    await writer.wait_closed()
    return _parse_response(raw)


async def request_json(server, method, path, body=None, tenant=None):
    status, headers, text = await request(
        server, method, path, body=body, tenant=tenant
    )
    return status, headers, json.loads(text)


async def poll_until_terminal(server, cid, tenant=None, timeout=30.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        _, _, doc = await request_json(
            server, "GET", f"/campaigns/{cid}", tenant=tenant
        )
        if doc["state"] in ("done", "failed", "cancelled"):
            return doc
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"campaign {cid} stuck in {doc['state']}")
        await asyncio.sleep(0.02)


# ---------------------------------------------------------------------------
# scenario harness
# ---------------------------------------------------------------------------


def spec_doc(name="svc-t", policies=None, clocks=(1305.0,)):
    return {
        "schema": 1,
        "kind": "campaign-spec",
        "name": name,
        "systems": ["miniHPC"],
        "workloads": ["sedov"],
        "particles": [30000.0],
        "steps": 2,
        "seeds": [0],
        "policies": policies or [{"kind": "baseline"}],
        "clocks_mhz": list(clocks),
    }


def run_scenario(tmp_path, scenario, **config_kwargs):
    async def main():
        config_kwargs.setdefault("root", str(tmp_path / "service-root"))
        service = CampaignService(ServiceConfig(**config_kwargs))
        server = await serve(service, port=0)
        try:
            await asyncio.wait_for(scenario(service, server), timeout=60)
        finally:
            await server.close()
            await service.close()

    asyncio.run(main())


# ---------------------------------------------------------------------------
# plumbing endpoints
# ---------------------------------------------------------------------------


def test_healthz_metrics_and_routing(tmp_path):
    async def scenario(service, server):
        status, _, doc = await request_json(server, "GET", "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["scheduler"]["running"] == 0

        status, headers, text = await request(server, "GET", "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert "service_uptime_s" in text

        status, _, _ = await request_json(server, "GET", "/nope")
        assert status == 404
        status, _, _ = await request_json(server, "PUT", "/campaigns")
        assert status == 405
        status, _, _ = await request_json(
            server, "GET", "/campaigns/c-ffffffffffff"
        )
        assert status == 404

    run_scenario(tmp_path, scenario)


def test_invalid_submissions_get_400(tmp_path):
    async def scenario(service, server):
        status, _, doc = await request_json(
            server, "POST", "/campaigns", body={"kind": "not-a-spec"}
        )
        assert status == 400
        assert "invalid campaign spec" in doc["error"]

        status, _, doc = await request_json(
            server, "POST", "/campaigns",
            body={**spec_doc(), "comm_backend": "process"},
        )
        assert status == 400
        assert "comm_backend" in doc["error"]

        status, _, doc = await request_json(
            server, "POST", "/campaigns",
            body={**spec_doc(), "min_unit_wall_s": 0.4},
        )
        assert status == 400
        assert "min_unit_wall_s" in doc["error"]

        reader, writer = await asyncio.open_connection(
            server.host, server.port
        )
        writer.write(
            b"POST /campaigns HTTP/1.1\r\nHost: x\r\n"
            b"Connection: close\r\nContent-Length: 9\r\n\r\nnot json!"
        )
        await writer.drain()
        raw = await reader.read(-1)
        status, _, _ = _parse_response(raw)
        assert status == 400
        writer.close()
        await writer.wait_closed()

    run_scenario(tmp_path, scenario)


# ---------------------------------------------------------------------------
# the core lifecycle
# ---------------------------------------------------------------------------


def test_submit_poll_events_report(tmp_path):
    doc = spec_doc(policies=[{"kind": "baseline"}, {"kind": "static"}],
                   clocks=(1305.0, 1005.0))

    async def scenario(service, server):
        status, _, sub = await request_json(
            server, "POST", "/campaigns", body=doc
        )
        assert status == 202
        assert sub["created"] and sub["units"] == 3
        cid = sub["id"]

        final = await poll_until_terminal(server, cid)
        assert final["state"] == "done"
        assert final["drain"]["executed"] == 3
        assert final["drain"]["failed"] == 0
        assert final["campaign"]["complete"] is True
        assert final["alerts"] == []
        provs = {u["provenance"] for u in final["units"].values()}
        assert provs == {"executed"}

        # The SSE stream replays the full history, then ends.
        status, headers, text = await request(
            server, "GET", f"/campaigns/{cid}/events"
        )
        assert status == 200
        assert headers["content-type"].startswith("text/event-stream")
        names = [
            line.split(": ", 1)[1]
            for line in text.splitlines()
            if line.startswith("event: ")
        ]
        assert names[0] == "campaign-start"
        assert names[-2:] == ["campaign-done", "end"]
        assert names.count("unit-done") == 3

        # Resume from a mid-stream sequence number: no duplicates.
        status, _, tail = await request(
            server, "GET", f"/campaigns/{cid}/events?from=3"
        )
        assert "campaign-start" not in tail

        status, _, report = await request_json(
            server, "GET", f"/campaigns/{cid}/report"
        )
        assert status == 200
        assert report["kind"] == "campaign-summary"
        assert report["n_runs"] == 3

        status, _, listing = await request_json(server, "GET", "/campaigns")
        assert [c["id"] for c in listing["campaigns"]] == [cid]

    run_scenario(tmp_path, scenario)


def test_resubmit_completed_campaign_never_recomputes(tmp_path):
    doc = spec_doc(policies=[{"kind": "baseline"}, {"kind": "dvfs"}])

    async def scenario(service, server):
        _, _, sub = await request_json(server, "POST", "/campaigns", body=doc)
        cid = sub["id"]
        await poll_until_terminal(server, cid)
        executed_before = service.metrics.counter_total(
            "service_units_executed"
        )
        assert executed_before == 2

        status, _, again = await request_json(
            server, "POST", "/campaigns", body=doc
        )
        assert status == 200  # already terminal: answered immediately
        assert again["id"] == cid
        assert not again["created"]
        assert again["submissions"] == 2

        _, _, report = await request_json(
            server, "GET", f"/campaigns/{cid}/report"
        )
        assert report["n_runs"] == 2
        # A second read of an unchanged grid is a pure cache hit.
        _, _, report2 = await request_json(
            server, "GET", f"/campaigns/{cid}/report"
        )
        assert report2 == report
        assert service.metrics.counter_total(
            "service_report_cache_hits"
        ) == 1
        # The executed-units counter is the ground truth: nothing ran.
        assert service.metrics.counter_total(
            "service_units_executed"
        ) == executed_before

    run_scenario(tmp_path, scenario)


def test_report_before_any_completed_run_is_409(tmp_path, unit_gate):
    async def scenario(service, server):
        try:
            _, _, sub = await request_json(
                server, "POST", "/campaigns", body=spec_doc(name="slow")
            )
            # The unit has computed but is held open, unrecorded.
            assert await asyncio.to_thread(unit_gate.wait_parked, 1)
            status, _, doc = await request_json(
                server, "GET", f"/campaigns/{sub['id']}/report"
            )
            assert status == 409
            assert "no completed runs" in doc["error"]
            await request_json(server, "DELETE", f"/campaigns/{sub['id']}")
        finally:
            unit_gate.open()

    run_scenario(tmp_path, scenario)


# ---------------------------------------------------------------------------
# backpressure and cancellation
# ---------------------------------------------------------------------------


def test_full_tenant_queue_answers_429_with_retry_after(
    tmp_path, unit_gate
):
    async def scenario(service, server):
        # The running campaign needs several units: cancellation is
        # cooperative and lands at the next unit boundary.
        specs = [
            spec_doc(
                name=f"queue-{i}",
                policies=[{"kind": "baseline"}, {"kind": "static"},
                          {"kind": "dvfs"}],
            )
            for i in range(3)
        ]
        try:
            _, _, running = await request_json(
                server, "POST", "/campaigns", body=specs[0]
            )
            _, _, queued = await request_json(
                server, "POST", "/campaigns", body=specs[1]
            )
            status, headers, doc = await request_json(
                server, "POST", "/campaigns", body=specs[2]
            )
            assert status == 429
            assert headers["retry-after"] == "1"
            assert doc["retry_after_s"] == pytest.approx(0.5)
            assert "queue is full" in doc["error"]

            # Cancel both: the queued one drops, the running one stops
            # at the next unit boundary once its held unit returns.
            for sub in (queued, running):
                status, _, _ = await request_json(
                    server, "DELETE", f"/campaigns/{sub['id']}"
                )
                assert status == 202
        finally:
            unit_gate.open()
        assert (await poll_until_terminal(server, queued["id"]))[
            "state"] == "cancelled"
        assert (await poll_until_terminal(server, running["id"]))[
            "state"] == "cancelled"

        _, _, health = await request_json(server, "GET", "/healthz")
        assert health["scheduler"]["rejected"] == 1

    run_scenario(
        tmp_path,
        scenario,
        scheduler=SchedulerConfig(
            max_running=1, per_tenant_running=1, queue_depth=1,
            retry_after_s=0.5,
        ),
    )


# ---------------------------------------------------------------------------
# caching across submissions, campaigns, tenants
# ---------------------------------------------------------------------------


def test_concurrent_overlapping_specs_share_units(tmp_path, unit_gate):
    """Concurrent submissions of overlapping specs attach to in-flight
    units instead of recomputing, with cache_hit provenance."""
    # Same campaign name => overlapping unit keys; the baseline unit is
    # shared between both grids, dvfs/static are disjoint.
    doc_a = spec_doc(name="overlap",
                     policies=[{"kind": "baseline"}, {"kind": "static"}],
                     clocks=(1005.0,))
    doc_b = spec_doc(name="overlap",
                     policies=[{"kind": "baseline"}, {"kind": "dvfs"}],
                     clocks=(1005.0,))

    async def scenario(service, server):
        try:
            (_, _, sub_a), (_, _, sub_b) = await asyncio.gather(
                request_json(server, "POST", "/campaigns", body=doc_a),
                request_json(server, "POST", "/campaigns", body=doc_b),
            )
            assert sub_a["id"] != sub_b["id"]
            # Both campaigns hold a unit open: each claimed its keys
            # while the other's were in flight.
            assert await asyncio.to_thread(unit_gate.wait_parked, 2)
        finally:
            unit_gate.open()
        fin_a, fin_b = await asyncio.gather(
            poll_until_terminal(server, sub_a["id"]),
            poll_until_terminal(server, sub_b["id"]),
        )
        assert fin_a["state"] == "done" and fin_b["state"] == "done"

        # Three distinct unit keys exist; exactly three executions
        # happened service-wide even though four units were requested.
        all_keys = set(fin_a["units"]) | set(fin_b["units"])
        assert len(all_keys) == 3
        assert service.metrics.counter_total("service_units_executed") == 3

        shared = set(fin_a["units"]) & set(fin_b["units"])
        assert len(shared) == 1
        (key,) = shared
        provs = sorted(
            doc["units"][key]["provenance"] for doc in (fin_a, fin_b)
        )
        # One campaign computed it, the other saw a cache hit (either
        # attached in-flight or read back from the store, depending on
        # scheduling).
        assert provs == ["cache_hit", "executed"]
        hit = next(
            doc["units"][key] for doc in (fin_a, fin_b)
            if doc["units"][key]["provenance"] == "cache_hit"
        )
        assert hit["via"] in ("inflight", "store")

    run_scenario(
        tmp_path,
        scenario,
        scheduler=SchedulerConfig(max_running=2, per_tenant_running=2),
    )


def test_cross_tenant_shared_cache_and_isolation(tmp_path):
    doc = spec_doc(name="shared-work",
                   policies=[{"kind": "baseline"}, {"kind": "static"}],
                   clocks=(1005.0,))

    async def scenario(service, server):
        _, _, sub_a = await request_json(
            server, "POST", "/campaigns", body=doc, tenant="alice"
        )
        await poll_until_terminal(server, sub_a["id"], tenant="alice")

        # Isolation: bob cannot see alice's campaign at all.
        status, _, _ = await request_json(
            server, "GET", f"/campaigns/{sub_a['id']}", tenant="bob"
        )
        assert status == 404

        # Same spec from bob: different job id (identity includes the
        # tenant), but every unit arrives via the shared result cache.
        _, _, sub_b = await request_json(
            server, "POST", "/campaigns", body=doc, tenant="bob"
        )
        assert sub_b["id"] != sub_a["id"]
        fin_b = await poll_until_terminal(
            server, sub_b["id"], tenant="bob"
        )
        assert fin_b["state"] == "done"
        assert fin_b["drain"]["executed"] == 0
        assert all(
            u["provenance"] == "cache_hit" and u["via"] == "shared"
            for u in fin_b["units"].values()
        )
        assert service.metrics.counter_total("service_units_executed") == 2
        assert service.metrics.counter_total("service_unit_cache_hits") == 2

        # And bob's report aggregates the adopted artifacts.
        status, _, report = await request_json(
            server, "GET", f"/campaigns/{sub_b['id']}/report", tenant="bob"
        )
        assert status == 200 and report["n_runs"] == 2

    run_scenario(tmp_path, scenario)


def test_invalid_tenant_header_is_rejected(tmp_path):
    async def scenario(service, server):
        status, _, doc = await request_json(
            server, "POST", "/campaigns", body=spec_doc(),
            tenant="../escape",
        )
        assert status == 400
        assert "invalid" in doc["error"]

    run_scenario(tmp_path, scenario)


# ---------------------------------------------------------------------------
# engine: counters vs terminal state, GIL handoff
# ---------------------------------------------------------------------------


def test_unit_counters_are_in_place_when_done_is_visible(tmp_path):
    """The job thread publishes ``done``; a client that sees it must
    read counters that include the drain, even while the loop has not
    yet run the job's continuation."""

    async def main():
        service = CampaignService(ServiceConfig(root=str(tmp_path)))
        await service.start()
        try:
            job, _ = service.submit("alice", spec_doc(name="counted"))
            while job.state == "queued":
                await asyncio.sleep(0.001)
            # Hold the loop (a blocking wait, no await) until the job
            # thread turns the job terminal.
            deadline = time.monotonic() + 30.0
            while not job.terminal:
                assert time.monotonic() < deadline, "job never finished"
                time.sleep(0.002)
            assert job.state == "done"
            metrics = service.metrics
            assert metrics.counter_total("service_units_executed") == 1
            assert metrics.counter_total("service_units_failed") == 0
        finally:
            await service.close()

    asyncio.run(main())


def test_service_holds_switch_interval_while_running(tmp_path):
    before = sys.getswitchinterval()
    assert before != pytest.approx(SWITCH_INTERVAL_S)

    async def main():
        service = CampaignService(ServiceConfig(root=str(tmp_path)))
        await service.start()
        assert sys.getswitchinterval() == pytest.approx(SWITCH_INTERVAL_S)
        await service.close()
        assert sys.getswitchinterval() == before

    asyncio.run(main())
    assert sys.getswitchinterval() == before
