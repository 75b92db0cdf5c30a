"""Service durability: the job-table WAL and restart recovery.

Unit tests pin :mod:`repro.service.wal` record folding and torn-tail
semantics; the scenario tests exercise the acceptance bar from the
robustness issue — a ``repro serve`` restarted mid-campaign replays
its WAL and keeps serving status/report for pre-restart campaign ids,
and a draining service refuses new submissions with a 503.
"""

import asyncio
import json

import pytest

from repro.service import CampaignService, ServiceConfig, serve
from repro.service.service import ServiceUnavailable
from repro.service.wal import JOB_WAL_NAME, JobWal, replay_wal
from tests.test_service_http import (
    poll_until_terminal,
    request,
    request_json,
    spec_doc,
)

# ---------------------------------------------------------------------------
# WAL record folding
# ---------------------------------------------------------------------------


def _wal(tmp_path):
    return JobWal(str(tmp_path / JOB_WAL_NAME))


def test_append_and_replay_round_trip(tmp_path):
    wal = _wal(tmp_path)
    wal.record_submit("c-1", "alice", {"name": "s"})
    wal.record_state("c-1", "running")
    wal.record_state("c-1", "done")

    lines = wal.path.read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "service-job-wal"
    assert len(lines) == 4  # header + three records

    jobs = wal.replay()
    assert set(jobs) == {"c-1"}
    job = jobs["c-1"]
    assert job.tenant == "alice"
    assert job.spec == {"name": "s"}
    assert job.state == "done"
    assert job.history == ["queued", "running", "done"]
    assert job.submissions == 1


def test_duplicate_submit_counts_submissions(tmp_path):
    wal = _wal(tmp_path)
    wal.record_submit("c-1", "alice", {})
    wal.record_state("c-1", "done")
    wal.record_submit("c-1", "alice", {})  # resubmission, same id
    job = wal.replay()["c-1"]
    assert job.submissions == 2
    assert job.state == "done"


def test_orphan_state_and_unknown_ops_are_skipped():
    jobs = replay_wal([
        {"op": "state", "id": "c-ghost", "state": "done", "t_s": 1.0},
        {"op": "vacuum", "id": "c-1", "t_s": 1.0},
        {"op": "state", "state": "done", "t_s": 1.0},  # no id at all
    ])
    assert jobs == {}


def test_torn_tail_dropped_and_truncated(tmp_path):
    wal = _wal(tmp_path)
    wal.record_submit("c-1", "alice", {})
    wal.record_state("c-1", "running")
    with open(wal.path, "a", encoding="utf-8") as fh:
        fh.write('{"op": "state", "id": "c-1", "sta')  # crash mid-append

    with pytest.warns(RuntimeWarning, match="torn final WAL line"):
        records = wal.read_records()
    assert [r["op"] for r in records] == ["submit", "state"]

    # The torn bytes are gone: the next append starts a clean line and
    # a subsequent replay needs no warning.
    wal.record_state("c-1", "done")
    assert wal.replay()["c-1"].state == "done"


def test_corrupt_interior_line_is_fatal(tmp_path):
    wal = _wal(tmp_path)
    wal.record_submit("c-1", "alice", {})
    wal.record_state("c-1", "done")
    lines = wal.path.read_text().splitlines()
    lines[1] = "{corrupt"  # not the tail: a later valid line follows
    wal.path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="not valid JSON"):
        wal.read_records()


def test_bad_header_is_fatal(tmp_path):
    wal = _wal(tmp_path)
    wal.path.write_text('{"schema": 1, "kind": "not-a-wal"}\n')
    with pytest.raises(ValueError):
        wal.read_records()


def test_missing_file_replays_empty(tmp_path):
    wal = _wal(tmp_path)
    assert wal.read_records() == []
    assert wal.replay() == {}


# ---------------------------------------------------------------------------
# restart recovery and graceful drain, over the real HTTP front end
# ---------------------------------------------------------------------------


def test_restarted_service_serves_pre_restart_campaigns(tmp_path):
    """Kill the control plane between submissions: the successor on the
    same root must answer status/events/report for the old campaign id
    instead of 404ing it."""
    root = str(tmp_path / "service-root")

    async def main():
        service = CampaignService(ServiceConfig(root=root))
        server = await serve(service, port=0)
        status, _, doc = await request_json(
            server, "POST", "/campaigns", body=spec_doc()
        )
        assert status in (201, 202)
        cid = doc["id"]
        await poll_until_terminal(server, cid)
        await server.close()
        await service.close()

        # Second life: fresh process-equivalent on the same root.
        reborn = CampaignService(ServiceConfig(root=root))
        server2 = await serve(reborn, port=0)
        try:
            assert cid in reborn.recovered_ids

            status, _, doc = await request_json(
                server2, "GET", f"/campaigns/{cid}"
            )
            assert status == 200
            assert doc["state"] == "done"
            assert doc["recovered"] is True

            status, _, text = await request(
                server2, "GET", f"/campaigns/{cid}/events?from=0"
            )
            assert status == 200
            assert "event:" in text

            status, _, report = await request_json(
                server2, "GET", f"/campaigns/{cid}/report"
            )
            assert status == 200
            assert report["kind"] == "campaign-summary"
            assert report["n_runs"] >= 1
        finally:
            await server2.close()
            await reborn.close()

    asyncio.run(asyncio.wait_for(main(), timeout=120))


def test_restart_resumes_job_recorded_as_running(tmp_path):
    """A WAL whose last word on a job is 'running' (the terminal
    transition never hit the disk) means the job was in flight when the
    process died: the successor resubmits it, and the run store makes
    the re-drain incremental (all units cached, none re-executed)."""
    root = tmp_path / "service-root"

    async def main():
        service = CampaignService(ServiceConfig(root=str(root)))
        await service.start()
        job, _ = service.submit("alice", spec_doc())
        while not job.terminal:
            await asyncio.sleep(0.02)
        assert job.state == "done"
        await service.close()

        # Rewrite history: drop the terminal transition, as if the
        # crash landed between the last unit and the 'done' append.
        wal_path = root / "tenants" / "alice" / JOB_WAL_NAME
        kept = [
            line
            for line in wal_path.read_text().splitlines()
            if json.loads(line).get("state") != "done"
        ]
        wal_path.write_text("\n".join(kept) + "\n")

        reborn = CampaignService(ServiceConfig(root=str(root)))
        await reborn.start()
        try:
            assert job.id in reborn.recovered_ids
            revived = reborn.job(job.id)
            while not revived.terminal:
                await asyncio.sleep(0.02)
            assert revived.state == "done"
            drain = revived.status_doc()["drain"]
            assert drain["executed"] == 0
            assert drain["cached"] == len(job.grid_keys)
        finally:
            await reborn.close()

    asyncio.run(asyncio.wait_for(main(), timeout=120))


def test_replay_skips_journaled_spec_with_removed_key(tmp_path):
    """A WAL written by an older build may journal a spec carrying a
    removed key (``comm_backend``, ``min_unit_wall_s``): replay counts
    each as a replay error and still recovers the tenant's other
    jobs."""
    root = tmp_path / "service-root"

    async def main():
        service = CampaignService(ServiceConfig(root=str(root)))
        await service.start()
        job, _ = service.submit("alice", spec_doc())
        while not job.terminal:
            await asyncio.sleep(0.02)
        await service.close()

        wal = JobWal(str(root / "tenants" / "alice" / JOB_WAL_NAME))
        legacy = {**spec_doc(name="legacy"), "comm_backend": "process"}
        wal.record_submit("c-legacy", "alice", legacy)
        paced = {**spec_doc(name="paced"), "min_unit_wall_s": 0.4}
        wal.record_submit("c-paced", "alice", paced)

        reborn = CampaignService(ServiceConfig(root=str(root)))
        await reborn.start()
        try:
            counter = reborn.metrics.counter("service_wal_replay_errors")
            assert counter.value == 2.0
            assert reborn.recovered_ids == [job.id]
            assert reborn.job(job.id).state == "done"
            assert "c-legacy" not in reborn.jobs
            assert "c-paced" not in reborn.jobs
        finally:
            await reborn.close()

    asyncio.run(asyncio.wait_for(main(), timeout=120))


def test_draining_service_refuses_submissions(tmp_path):
    async def main():
        service = CampaignService(
            ServiceConfig(root=str(tmp_path / "service-root"))
        )
        server = await serve(service, port=0)
        try:
            service.begin_shutdown()

            status, _, doc = await request_json(server, "GET", "/healthz")
            assert status == 200
            assert doc["status"] == "draining"
            assert doc["draining"] is True

            status, headers, doc = await request_json(
                server, "POST", "/campaigns", body=spec_doc()
            )
            assert status == 503
            assert "retry-after" in headers
            assert "shutting down" in doc["error"]

            with pytest.raises(ServiceUnavailable):
                service.submit("alice", spec_doc())
        finally:
            await server.close()
            await service.close()

    asyncio.run(asyncio.wait_for(main(), timeout=60))
