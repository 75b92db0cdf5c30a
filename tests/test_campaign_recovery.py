"""Campaign crash tolerance: checkpoints, lane supervision, kill matrix.

The acceptance bar from the robustness issue: a campaign SIGKILLed
mid-unit resumes from its last checkpoint (not step 0) and the final
aggregate summary is **byte-identical** to an uninterrupted campaign's.
The kill-matrix test at the bottom exercises that end to end in a real
subprocess; everything above it pins the pieces (store helpers, worker
provenance, missed-heartbeat verdicts, lane reaping).
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignExecutor,
    CampaignSpec,
    ExecutorConfig,
    RunStore,
    build_summary,
    run_campaign,
    summary_json,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _spec(**overrides):
    base = dict(
        name="recov-t",
        workloads=("sedov",),
        policies=({"kind": "baseline"},),
        clocks_mhz=(1305.0,),
        systems=("miniHPC",),
        particles=(10_000.0,),
        steps=8,
        seeds=(0,),
        checkpoint_every=2,
    )
    base.update(overrides)
    return CampaignSpec(**base)


# ---------------------------------------------------------------------------
# store: checkpoint + liveness file helpers
# ---------------------------------------------------------------------------


def test_store_checkpoint_helpers(tmp_path):
    store = RunStore(str(tmp_path), campaign="c")
    assert not store.has_checkpoint("u1")
    assert store.checkpoint_keys() == set()

    path = store.checkpoint_path("u1")
    path.write_text("{}")
    assert store.has_checkpoint("u1")
    assert store.checkpoint_keys() == {"u1"}

    store.clear_checkpoint("u1")
    assert not store.has_checkpoint("u1")
    store.clear_checkpoint("u1")  # idempotent


def test_store_lane_beats_round_trip(tmp_path):
    store = RunStore(str(tmp_path), campaign="c")
    assert store.read_unit_beat("u1") == {}

    beat = {"updated_s": 12.5, "pid": 41, "key": "u1", "step": 3}
    store.unit_beat_path("u1").write_text(json.dumps(beat))
    store.unit_beat_path("u2").write_text("{torn")  # tolerated, not fatal
    assert store.read_unit_beat("u1") == beat
    assert store.read_unit_beat("u2") == {}

    store.clear_unit_beat("u1")
    assert store.read_unit_beat("u1") == {}
    store.clear_unit_beat("u1")  # idempotent
    store.unit_beat_path("u1").write_text(json.dumps(beat))
    store.reset_unit_beats()
    assert list((tmp_path / "beats").iterdir()) == []


def test_executor_run_resets_stale_liveness(tmp_path):
    """A killed drain's frozen liveness files must not survive into the
    next invocation (stale-heartbeat false alarms, ghost lane beats)."""
    store = RunStore(str(tmp_path), campaign="recov-t")
    store.write_heartbeats({"99": {"updated_s": 1.0, "state": "running"}})
    store.unit_beat_path("x").write_text(json.dumps({"pid": 1, "key": "x"}))

    CampaignExecutor(store).run([])

    assert "99" not in store.read_heartbeats()
    assert store.read_unit_beat("x") == {}


def test_inline_drain_writes_no_lane_beats(tmp_path):
    """Only pool supervision reads unit beats, so the inline drain
    writes none."""
    spec = _spec(seeds=(0, 1), checkpoint_every=0)
    store = RunStore(str(tmp_path), campaign=spec.name)
    status = CampaignExecutor(store).run(spec.expand())
    assert status.executed == 2
    assert not (Path(tmp_path) / "beats").exists()


def test_pool_drain_beats_every_lane(tmp_path):
    spec = _spec(seeds=(0, 1, 2, 3), checkpoint_every=0)
    store = RunStore(str(tmp_path), campaign=spec.name)
    status = CampaignExecutor(
        store, config=ExecutorConfig(workers=2)
    ).run(spec.expand())
    assert status.executed == 4
    pids = set()
    for unit in spec.expand():
        beat = store.read_unit_beat(unit.key)
        assert beat["pid"] != os.getpid()
        assert beat["key"] == unit.key
        assert beat["step"] == spec.steps
        pids.add(beat["pid"])
    assert len(pids) <= 2  # two pool lanes ran the four units


# ---------------------------------------------------------------------------
# worker provenance: preemption resume, corrupt-checkpoint fallback
# ---------------------------------------------------------------------------


def test_preemption_resumes_from_checkpoint(tmp_path):
    """preempt-mid-run kicks the unit out after step 3; the retry must
    restore the rescue snapshot (checkpoint *hit*, not step 0) and the
    finished unit must clear its snapshot from the store."""
    spec = _spec(fault_scenario="preempt-mid-run")
    status, store = run_campaign(spec, str(tmp_path / "store"))

    assert status.failed == 0 and status.executed == 1
    assert status.retries >= 1
    assert status.checkpoint_hits == 1
    assert "resumed from checkpoints" in status.describe()

    (artifact,) = store.results()
    assert artifact["result"]["checkpoint"] == "hit"
    metrics = artifact["result"]["metrics"]
    assert metrics["resumed_from_step"] == 3
    assert metrics["steps"] == spec.steps
    assert store.checkpoint_keys() == set()

    # Bit-exact economics: the preempted-and-resumed unit reports the
    # same simulated wall/energy as a never-preempted run of the grid.
    ref_status, ref_store = run_campaign(
        _spec(name="recov-ref"), str(tmp_path / "ref")
    )
    (ref,) = ref_store.results()
    assert metrics["elapsed_s"] == ref["result"]["metrics"]["elapsed_s"]
    assert metrics["gpu_energy_j"] == ref["result"]["metrics"]["gpu_energy_j"]


def test_corrupt_checkpoint_falls_back_to_fresh_start(tmp_path):
    spec = _spec()
    (unit,) = spec.expand()
    store = RunStore(str(tmp_path), campaign=spec.name)
    store.checkpoint_path(unit.key).write_text("{torn garbage")

    status = CampaignExecutor(
        store, checkpoint_every=spec.checkpoint_every
    ).run(spec.expand())

    assert status.failed == 0 and status.executed == 1
    assert status.checkpoint_hits == 0
    (artifact,) = store.results()
    assert artifact["result"]["checkpoint"] == "miss"
    assert store.checkpoint_keys() == set()


# ---------------------------------------------------------------------------
# lane supervision: missed-heartbeat verdicts, reaping, poll cadence
# ---------------------------------------------------------------------------


def _supervised(tmp_path, dead_after=10.0):
    store = RunStore(str(tmp_path), campaign="recov-t")
    executor = CampaignExecutor(
        store, config=ExecutorConfig(lane_dead_after_s=dead_after)
    )
    return store, executor


def _write_beat(store, unit, updated_s, pid=1, step=0, key=None):
    store.unit_beat_path(unit.key).write_text(json.dumps({
        "updated_s": updated_s, "pid": pid,
        "key": unit.key if key is None else key, "step": step,
    }))


def test_lane_dead_verdicts(tmp_path):
    store, executor = _supervised(tmp_path)
    (unit,) = _spec().expand()
    now = time.time()

    # No beat of its own: the unit has not started, so it is not dead,
    # however long ago it was dispatched.
    assert not executor._unit_is_dead(unit)

    # A fresh start beat vouches for the unit...
    _write_beat(store, unit, now)
    assert not executor._unit_is_dead(unit)

    # ...a stale start beat does not (a hang in the first step)...
    _write_beat(store, unit, now - 60.0)
    assert executor._unit_is_dead(unit)

    # ...nor a stale step beat...
    _write_beat(store, unit, now - 60.0, step=2)
    assert executor._unit_is_dead(unit)

    # ...and a beat carrying another key is not the unit's own.
    _write_beat(store, unit, now - 60.0, key="other-unit")
    assert not executor._unit_is_dead(unit)


def test_queued_unit_sharing_a_lane_is_not_reaped(tmp_path, monkeypatch):
    """A queued future shares its heartbeat lane with a running one: the
    running unit's stale beat must neither condemn the queued unit nor
    get its pid signalled on the queued unit's behalf."""
    store, executor = _supervised(tmp_path)
    running, queued = _spec(seeds=(0, 1)).expand()
    executor._beat(0, "running", unit=running.label)
    executor._beat(0, "running", unit=queued.label)
    _write_beat(store, running, time.time() - 60.0, pid=4242, step=3)

    signalled = []
    monkeypatch.setattr(os, "kill", lambda pid, sig: signalled.append(pid))
    assert not executor._unit_is_dead(queued)
    executor._reap_unit(queued)
    assert signalled == []

    assert executor._unit_is_dead(running)
    executor._reap_unit(running)
    assert signalled == [4242]


def test_reap_lane_sigterms_recorded_pid(tmp_path):
    store, executor = _supervised(tmp_path)
    (unit,) = _spec().expand()
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        _write_beat(store, unit, time.time(), pid=proc.pid)
        executor._reap_unit(unit)
        assert proc.wait(timeout=10) == -signal.SIGTERM
    finally:
        if proc.poll() is None:
            proc.kill()


def test_reap_lane_without_pid_is_noop(tmp_path):
    _, executor = _supervised(tmp_path)
    (unit,) = _spec().expand()
    executor._reap_unit(unit)  # no beat file at all: nothing to signal


def test_supervision_spares_queued_units(tmp_path):
    """Four ~0.8 s units on two lanes with a 0.6 s beat deadline: the
    two queued units wait longer than the deadline before they start,
    and every unit beats each step. Supervision must reap nothing."""
    spec = _spec(
        workloads=("SedovBlast",), particles=(2.0e5,), steps=1500,
        seeds=(0, 1, 2, 3), checkpoint_every=0,
    )
    store = RunStore(str(tmp_path), campaign=spec.name)
    status = CampaignExecutor(
        store,
        config=ExecutorConfig(
            workers=2, lane_dead_after_s=0.6, max_retries=0
        ),
    ).run(spec.expand())
    assert status.lanes_reaped == 0
    assert status.failed == 0
    assert status.executed == 4


def test_poll_interval_tracks_supervision(tmp_path):
    store = RunStore(str(tmp_path), campaign="c")

    def poll(**cfg):
        return CampaignExecutor(
            store, config=ExecutorConfig(**cfg)
        )._poll_interval()

    assert poll() is None  # no timeout, no supervision: block freely
    assert poll(lane_dead_after_s=8.0) == 2.0  # quarter of the deadline
    assert poll(timeout_s=1.0, lane_dead_after_s=8.0) == 1.0
    assert poll(lane_dead_after_s=0.12) == 0.05  # floored


# ---------------------------------------------------------------------------
# SIGKILLed worker process: pool rebuild + checkpoint resume
# ---------------------------------------------------------------------------


def test_sigkilled_worker_resumes_from_checkpoint(tmp_path):
    """SIGKILL the worker *process* mid-unit (BrokenProcessPool in the
    executor): the pool is rebuilt, the unit retries as transient, and
    the retry restores the on-disk checkpoint instead of step 0."""
    spec = _spec(steps=400, checkpoint_every=25)
    (unit,) = spec.expand()
    store = RunStore(str(tmp_path), campaign=spec.name)
    executor = CampaignExecutor(
        store,
        config=ExecutorConfig(workers=2),
        checkpoint_every=spec.checkpoint_every,
    )

    box = {}

    def drain():
        box["status"] = executor.run(spec.expand())

    thread = threading.Thread(target=drain)
    thread.start()
    killed = False
    deadline = time.time() + 60.0
    while time.time() < deadline:
        if store.checkpoint_keys():
            pid = store.read_unit_beat(unit.key).get("pid")
            if pid and pid != os.getpid():
                os.kill(int(pid), signal.SIGKILL)
                killed = True
                break
        time.sleep(0.005)
    thread.join(timeout=120.0)
    assert killed, "no checkpoint+beat appeared before the drain finished"
    assert not thread.is_alive()

    status = box["status"]
    assert status.failed == 0 and status.executed == 1
    assert status.retries >= 1
    assert status.checkpoint_hits == 1
    (artifact,) = store.results()
    assert artifact["result"]["metrics"]["resumed_from_step"] > 0


# ---------------------------------------------------------------------------
# kill matrix: SIGKILL the whole campaign process, resume, compare bytes
# ---------------------------------------------------------------------------

_DRIVER = textwrap.dedent(
    """
    import json, sys
    sys.path.insert(0, {src!r})
    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec.from_dict(json.loads(open(sys.argv[1]).read()))
    run_campaign(spec, sys.argv[2])
    """
)


def test_kill_matrix_sigkill_resume_byte_identical(tmp_path):
    """The issue's acceptance bar, literally: SIGKILL a two-seed
    campaign mid-unit; the resumed campaign restarts from checkpoints
    (not step 0) and its summary is byte-identical to an uninterrupted
    reference campaign's."""
    spec = _spec(steps=400, checkpoint_every=25, seeds=(0, 1))
    root = tmp_path / "store"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    driver = tmp_path / "driver.py"
    driver.write_text(_DRIVER.format(src=SRC))

    proc = subprocess.Popen(
        [sys.executable, str(driver), str(spec_path), str(root)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        killed = False
        ckpt_dir = root / "checkpoints"
        deadline = time.time() + 120.0
        while time.time() < deadline and proc.poll() is None:
            if ckpt_dir.is_dir() and any(ckpt_dir.glob("*.json")):
                proc.kill()  # SIGKILL: no handlers, no rescue snapshot
                killed = True
                break
            time.sleep(0.005)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert killed, "campaign finished before a checkpoint ever appeared"

    # Resume on the same store: cached units stay cached, the killed
    # unit restores its surviving periodic snapshot.
    status, store = run_campaign(spec, str(root))
    assert status.failed == 0
    assert status.executed + status.skipped == 2
    assert status.checkpoint_hits >= 1

    resumed_steps = [
        a["result"]["metrics"]["resumed_from_step"] for a in store.results()
    ]
    assert len(resumed_steps) == 2
    assert max(resumed_steps) > 0, "resume must not re-run from step 0"

    ref_status, ref_store = run_campaign(spec, str(tmp_path / "ref"))
    assert ref_status.failed == 0
    assert summary_json(build_summary(store)) == summary_json(
        build_summary(ref_store)
    )
