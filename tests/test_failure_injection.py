"""Failure injection: the instrumentation must fail loudly and cleanly."""

import pytest

from repro import nvml
from repro.core import (
    FrequencyController,
    ManDynPolicy,
    StaticFrequencyPolicy,
    make_profiler,
)
from repro.hardware import KernelLaunch
from repro.slurm import JobSpec, JobState, SlurmController
from repro.sph import Simulation, run_instrumented
from repro.systems import Cluster, by_name


def test_mandyn_on_restricted_system_fails_with_permission_error():
    """ManDyn needs user-level clock control; CSCS-A100 denies it."""
    cluster = Cluster(by_name("CSCS-A100"), 4)
    try:
        policy = ManDynPolicy({"MomentumEnergy": 1410.0}, default_mhz=1005.0)
        with pytest.raises(nvml.NVMLError) as exc:
            run_instrumented(
                cluster, "SubsonicTurbulence", 1e6, 1, policy=policy
            )
        assert exc.value.value == nvml.NVML_ERROR_NO_PERMISSION
    finally:
        cluster.detach_management_library()


def test_static_policy_on_restricted_system_also_denied():
    cluster = Cluster(by_name("CSCS-A100"), 4)
    try:
        with pytest.raises(nvml.NVMLError):
            run_instrumented(
                cluster, "SubsonicTurbulence", 1e6, 1,
                policy=StaticFrequencyPolicy(1005.0),
            )
    finally:
        cluster.detach_management_library()


def test_device_vanishing_mid_run_raises_not_found():
    """A lost GPU surfaces as an NVML error, not silent wrong numbers."""
    cluster = Cluster(by_name("miniHPC"), 2)
    try:
        ctl = FrequencyController(
            cluster.gpus, ManDynPolicy({"A": 1410.0}, default_mhz=1005.0)
        )
        ctl.apply_initial_mode()
        # The node "loses" a device: NVML now only exposes one.
        nvml.attach_devices(cluster.gpus[:1])
        with pytest.raises(nvml.NVMLError):
            ctl.before_function("A", 1)
    finally:
        cluster.detach_management_library()


def test_slurm_app_crash_preserves_accounting():
    cluster = Cluster(by_name("CSCS-A100"), 4)
    try:
        controller = SlurmController()
        controller.accounting.enable_energy_accounting()

        def crashing_app(cl, job):
            cl.gpus[0].execute(KernelLaunch("K", 1e12, 0.0, 1.0))
            raise MemoryError("device OOM")

        with pytest.raises(MemoryError):
            controller.submit(
                JobSpec(name="oom", n_nodes=1, n_tasks=4),
                cluster,
                crashing_app,
            )
        rows = controller.accounting.sacct(
            fields=("JobName", "State", "ConsumedEnergyRaw")
        )
        assert rows[0]["State"] == JobState.FAILED.value
        # Energy consumed before the crash is still accounted.
        assert float(rows[0]["ConsumedEnergyRaw"]) > 0.0
    finally:
        cluster.detach_management_library()


def test_profiler_detects_unbalanced_instrumentation(mini_cluster):
    profiler = make_profiler(mini_cluster)
    profiler.before_function("XMass", 0)
    # Forgetting after_function then starting the next one is a bug in
    # the instrumented code; the profiler refuses to mis-attribute.
    with pytest.raises(RuntimeError):
        profiler.before_function("MomentumEnergy", 0)


def test_simulation_survives_policy_for_unsupported_clock(mini_cluster):
    # Requesting a clock outside the supported range: ManDyn quantizes
    # through the spec (controller path), so execution proceeds at the
    # nearest bin rather than crashing mid-run.
    policy = ManDynPolicy({"MomentumEnergy": 5000.0}, default_mhz=50.0)
    result = run_instrumented(
        mini_cluster, "SubsonicTurbulence", 1e6, 1, policy=policy
    )
    assert result.steps == 1


def test_failed_rank_clock_desync_is_visible():
    """If a rank stops participating, collectives surface the hang as
    monotonically growing wait time rather than wrong results."""
    cluster = Cluster(by_name("CSCS-A100"), 4)
    try:
        # Rank 2 races ahead (e.g. it skipped its barrier in a buggy
        # code path); the next barrier drags everyone to its time.
        cluster.clocks[2].advance(100.0)
        before = cluster.comm.stats.sync_wait_s
        cluster.comm.barrier()
        assert cluster.comm.stats.sync_wait_s - before > 250.0
        times = [c.now for c in cluster.clocks]
        assert max(times) - min(times) < 1e-9
    finally:
        cluster.detach_management_library()
