"""End-to-end resilience: degraded runs complete, same seed, same bytes.

The acceptance scenario of the fault-injection harness: a run with an
injected permanent ``GPU_IS_LOST`` completes end-to-end with the lost
rank degraded to its DVFS governor, the degradation is visible in the
telemetry and flagged in the :class:`~repro.core.EnergyReport`, and the
same seed reproduces byte-identical fault timing and final report.

``REPRO_FAULT_SEED`` (default 20240) selects the seed, so the CI fault
matrix can sweep seeds without touching the tests.
"""

from __future__ import annotations

import os

import pytest

from repro.core import EnergyReport, ManDynPolicy, ResilienceConfig
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    JobPreempted,
    build_plan,
    preemption_after_steps,
)
from repro.slurm import JobSpec, JobState, SlurmController
from repro.sph import run_instrumented
from repro.systems import Cluster, by_name
from repro.telemetry import TRACK_FAULTS, TraceCollector

SEED = int(os.environ.get("REPRO_FAULT_SEED", "20240"))


def _mandyn():
    # Distinct off-default bins: every function boundary is a real
    # vendor call, giving injected clock faults something to strike.
    return ManDynPolicy(
        {"MomentumEnergy": 1410.0, "IADVelocityDivCurl": 1365.0},
        default_mhz=1005.0,
    )


def _run_gpu_lost(seed: int, tmp_path, tag: str):
    cluster = Cluster(by_name("miniHPC"), 2)
    collector = TraceCollector.for_cluster(cluster)
    injector = FaultInjector(build_plan("gpu-lost", seed=seed, n_ranks=2))
    try:
        result = run_instrumented(
            cluster,
            "SedovBlast",
            n_particles_per_rank=1e5,
            n_steps=3,
            policy=_mandyn(),
            telemetry=collector,
            resilience=ResilienceConfig(),
            faults=injector,
        )
    finally:
        cluster.detach_management_library()
    path = tmp_path / f"report-{tag}.json"
    result.report.save(str(path))
    return result, injector, collector, path.read_bytes()


def test_gpu_lost_run_completes_degraded_and_flagged(tmp_path):
    result, injector, collector, _ = _run_gpu_lost(SEED, tmp_path, "a")

    # The run completed every step despite the permanent device loss.
    assert result.steps == 3
    assert not result.preempted
    assert result.degraded
    assert result.degraded_ranks == [0]
    assert result.faults_injected >= 1
    assert any(
        r.kind is FaultKind.GPU_IS_LOST for r in injector.records
    )

    # Flagged in the energy report, with the reason.
    assert result.report.degraded_ranks() == [0]
    flagged = [r for r in result.report.ranks if r.degraded]
    assert [r.rank for r in flagged] == [0]
    assert "GPU is lost" in flagged[0].degraded_reason

    # Visible on the telemetry faults track.
    names = [e.name for e in collector.events if e.track == TRACK_FAULTS]
    assert "fault-injected" in names
    assert "rank-degraded" in names


def test_same_seed_gives_byte_identical_reports_and_fault_timing(tmp_path):
    res_a, inj_a, _, bytes_a = _run_gpu_lost(SEED, tmp_path, "a")
    res_b, inj_b, _, bytes_b = _run_gpu_lost(SEED, tmp_path, "b")

    assert bytes_a == bytes_b
    timing_a = [
        (r.op, r.rank, r.kind, r.call_index, r.t_s) for r in inj_a.records
    ]
    timing_b = [
        (r.op, r.rank, r.kind, r.call_index, r.t_s) for r in inj_b.records
    ]
    assert timing_a == timing_b
    assert res_a.elapsed_s == res_b.elapsed_s
    assert res_a.gpu_energy_j == res_b.gpu_energy_j


def test_saved_degraded_report_roundtrips(tmp_path):
    result, _, _, _ = _run_gpu_lost(SEED, tmp_path, "a")
    path = tmp_path / "roundtrip.json"
    result.report.save(str(path))
    loaded = EnergyReport.load(str(path))
    assert loaded.degraded_ranks() == [0]
    flagged = [r for r in loaded.ranks if r.degraded]
    original = [r for r in result.report.ranks if r.degraded]
    assert flagged[0].degraded_reason == original[0].degraded_reason


def test_flaky_clocks_scenario_is_absorbed_by_retries():
    cluster = Cluster(by_name("miniHPC"), 2)
    injector = FaultInjector(
        build_plan("flaky-clocks", seed=SEED, n_ranks=2)
    )
    try:
        result = run_instrumented(
            cluster,
            "SedovBlast",
            n_particles_per_rank=1e5,
            n_steps=4,
            policy=_mandyn(),
            resilience=ResilienceConfig(max_retries=3),
            faults=injector,
        )
    finally:
        cluster.detach_management_library()
    assert result.steps == 4
    assert result.faults_injected >= 1  # the scenario did fire
    assert result.retries >= 1  # and the controller retried
    assert result.degraded_ranks == []  # but nothing tripped


def test_preemption_returns_partial_flagged_result():
    cluster = Cluster(by_name("miniHPC"), 1)
    collector = TraceCollector.for_cluster(cluster)
    plan = FaultPlan(seed=SEED).add(preemption_after_steps(2))
    injector = FaultInjector(plan)
    try:
        result = run_instrumented(
            cluster,
            "SedovBlast",
            n_particles_per_rank=1e5,
            n_steps=5,
            policy=_mandyn(),
            telemetry=collector,
            resilience=ResilienceConfig(),
            faults=injector,
        )
    finally:
        cluster.detach_management_library()
    assert result.preempted
    assert result.steps == 2  # partial, not zero and not five
    assert result.report.max_window_time_s() > 0.0
    names = [e.name for e in collector.events if e.track == TRACK_FAULTS]
    assert "job-preempted" in names


def test_slurm_controller_marks_preempted_job():
    cluster = Cluster(by_name("miniHPC"), 1)
    controller = SlurmController()
    controller.accounting.enable_energy_accounting()
    plan = FaultPlan(seed=SEED).add(preemption_after_steps(1))
    injector = FaultInjector(plan)

    def app(cluster, job):
        # An application driving its own step loop surfaces the
        # preemption to Slurm rather than absorbing it.
        for step in range(4):
            injector.check_preemption(step)
            for clock in cluster.clocks:
                clock.advance(0.5)
        return "done"

    try:
        job = controller.submit(
            JobSpec(name="preempt-me", n_nodes=1, n_tasks=1), cluster, app
        )
    finally:
        cluster.detach_management_library()
    assert job.state is JobState.PREEMPTED
    assert job.result is None  # never finished
    assert job.end_time is not None  # accounting window still closed
    rows = controller.accounting.sacct()
    assert len(rows) == 1
    assert job.elapsed_s > 0.0


def test_injector_without_resilience_still_fails_loud():
    # The harness composes with the fail-loud default: injecting a
    # fatal error without a ResilienceConfig crashes the run, exactly
    # like an unhandled NVML error in real instrumentation.
    from repro.nvml import NVMLError

    cluster = Cluster(by_name("miniHPC"), 1)
    plan = FaultPlan(seed=SEED).add(
        FaultSpec(
            op="nvmlDeviceSetApplicationsClocks",
            kind=FaultKind.GPU_IS_LOST,
        )
    )
    try:
        with pytest.raises(NVMLError):
            run_instrumented(
                cluster,
                "SedovBlast",
                n_particles_per_rank=1e5,
                n_steps=2,
                policy=_mandyn(),
                faults=FaultInjector(plan),
            )
    finally:
        cluster.detach_management_library()
