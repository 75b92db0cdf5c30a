"""Slurm emulation: jobs, energy accounting, sacct, plugins."""

import pytest

from repro.hardware import KernelLaunch
from repro.slurm import (
    AccountingDatabase,
    JobSpec,
    JobState,
    SlurmController,
    format_consumed_energy,
    format_elapsed,
    get_plugin,
)
from repro.systems import Cluster, by_name


def _app_kernel(steps=2):
    def app(cluster, job):
        k = KernelLaunch("MomentumEnergy", 1e12, 1e11, 1.0)
        for _ in range(steps):
            for rank in range(cluster.n_ranks):
                cluster.gpu_of_rank(rank).execute(k)
            cluster.comm.barrier()
        return "done"

    return app


@pytest.fixture
def controller():
    ctl = SlurmController()
    ctl.accounting.enable_energy_accounting()
    return ctl


def test_job_lifecycle_and_energy(controller):
    cluster = Cluster(by_name("CSCS-A100"), 4)
    try:
        spec = JobSpec(name="turb", n_nodes=1, n_tasks=4)
        job = controller.submit(spec, cluster, _app_kernel())
        assert job.state is JobState.COMPLETED
        assert job.result == "done"
        assert job.start_time > job.submit_time  # scheduling delay
        assert job.elapsed_s > 0
        assert job.consumed_energy_j > 0
    finally:
        cluster.detach_management_library()


def test_accounting_window_excludes_presubmit_energy(controller):
    cluster = Cluster(by_name("CSCS-A100"), 4)
    try:
        # Burn energy before the job exists.
        cluster.clocks[0].advance(100.0)
        cluster.comm.barrier()
        pre = cluster.total_node_energy_j()
        job = controller.submit(
            JobSpec(name="turb", n_nodes=1, n_tasks=4), cluster, _app_kernel()
        )
        # ConsumedEnergy covers the job window only (pm_counters staleness
        # allows a tiny slack of one publish tick).
        assert job.consumed_energy_j < cluster.total_node_energy_j() - pre * 0.5
    finally:
        cluster.detach_management_library()


def test_sacct_fields(controller):
    cluster = Cluster(by_name("CSCS-A100"), 4)
    try:
        job = controller.submit(
            JobSpec(name="evrard", n_nodes=1, n_tasks=4), cluster, _app_kernel()
        )
        rows = controller.accounting.sacct(
            job.job_id,
            fields=("JobID", "JobName", "State", "Elapsed",
                    "ConsumedEnergy", "ConsumedEnergyRaw", "NNodes"),
        )
        row = rows[0]
        assert row["JobName"] == "evrard"
        assert row["State"] == "COMPLETED"
        assert row["NNodes"] == "1"
        assert float(row["ConsumedEnergyRaw"]) == pytest.approx(
            job.consumed_energy_j, abs=1.0
        )
    finally:
        cluster.detach_management_library()


def test_energy_accounting_disabled_by_default():
    db = AccountingDatabase()
    assert not db.energy_accounting_enabled
    db.enable_energy_accounting()
    assert db.energy_accounting_enabled
    db.enable_energy_accounting()  # idempotent
    assert db.tres.count("energy") == 1


def test_gpu_freq_flag_applies_on_permissive_system(controller):
    cluster = Cluster(by_name("miniHPC"), 2)
    try:
        spec = JobSpec(name="turb", n_nodes=1, n_tasks=2, gpu_freq_mhz=900.0)
        controller.submit(spec, cluster, _app_kernel(steps=1))
        from repro.units import to_mhz

        assert to_mhz(cluster.gpus[0].application_clock_hz) == 900.0
    finally:
        cluster.detach_management_library()


def test_gpu_freq_flag_rejected_on_restricted_system(controller):
    cluster = Cluster(by_name("CSCS-A100"), 4)
    try:
        spec = JobSpec(name="turb", n_nodes=1, n_tasks=4, gpu_freq_mhz=900.0)
        with pytest.raises(PermissionError):
            controller.submit(spec, cluster, _app_kernel())
    finally:
        cluster.detach_management_library()


def test_failed_app_marks_job_failed(controller):
    cluster = Cluster(by_name("CSCS-A100"), 4)
    try:
        def bad_app(cluster, job):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            controller.submit(
                JobSpec(name="bad", n_nodes=1, n_tasks=4), cluster, bad_app
            )
        rows = controller.accounting.sacct()
        assert rows[0]["State"] == "FAILED"
    finally:
        cluster.detach_management_library()


def test_node_count_mismatch_rejected(controller):
    cluster = Cluster(by_name("CSCS-A100"), 4)
    try:
        with pytest.raises(ValueError):
            controller.submit(
                JobSpec(name="x", n_nodes=3, n_tasks=12), cluster, _app_kernel()
            )
    finally:
        cluster.detach_management_library()


def test_jobspec_validation():
    with pytest.raises(ValueError):
        JobSpec(name="x", n_nodes=0, n_tasks=1)
    with pytest.raises(ValueError):
        JobSpec(name="x", n_nodes=4, n_tasks=2)


def test_rapl_plugin_misses_gpu_energy():
    cluster = Cluster(by_name("CSCS-A100"), 4)
    try:
        rapl = get_plugin("rapl")
        ipmi = get_plugin("ipmi")
        cluster.gpus[0].execute(KernelLaunch("K", 1e13, 0.0, 1.0))
        cluster.comm.barrier()
        node = cluster.nodes[0]
        assert rapl(node, None) < ipmi(node, None)
    finally:
        cluster.detach_management_library()


def test_unknown_plugin_rejected():
    with pytest.raises(ValueError):
        get_plugin("telepathy")


def test_format_helpers():
    assert format_consumed_energy(12_500_000) == "12.50M"
    assert format_consumed_energy(999.0) == "999"
    assert format_consumed_energy(2.4e9) == "2.40G"
    assert format_elapsed(3_725) == "01:02:05"
    assert format_elapsed(90_000) == "1-01:00:00"
