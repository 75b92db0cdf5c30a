"""Run a ManDyn simulation while faults strike — and survive it.

Builds a seeded :class:`repro.faults.FaultPlan` that loses rank 0's GPU
mid-run (permanent NVML ``GPU_IS_LOST`` on its third clock set) and
makes 20% of every other rank's clock sets time out transiently. With a
:class:`repro.core.ResilienceConfig`, the frequency controller retries
the timeouts with deterministic backoff and degrades rank 0 to its DVFS
governor instead of crashing; the run completes end-to-end and the
degradation is visible in the result, the energy report and the
telemetry faults track. The same seed reproduces the exact same faults.

    python examples/fault_injection.py [ranks] [steps] [seed]
"""

import sys

from repro.core import ManDynPolicy, ResilienceConfig
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.sph import run_instrumented
from repro.systems import Cluster, by_name
from repro.telemetry import TRACK_FAULTS, TraceCollector


def main() -> None:
    n_ranks = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    n_steps = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 20240

    plan = FaultPlan(seed=seed, name="example")
    plan.add(
        FaultSpec(
            op="nvmlDeviceSetApplicationsClocks",
            kind=FaultKind.GPU_IS_LOST,
            rank=0,
            after_calls=3,
        )
    )
    plan.add(
        FaultSpec(
            op="nvmlDeviceSetApplicationsClocks",
            kind=FaultKind.TIMEOUT,
            probability=0.2,
            latency_s=0.002,
        )
    )
    print(plan.describe())
    print()

    cluster = Cluster(by_name("miniHPC"), n_ranks)
    collector = TraceCollector.for_cluster(cluster)
    injector = FaultInjector(plan)
    policy = ManDynPolicy(
        {"MomentumEnergy": 1410.0, "IADVelocityDivCurl": 1365.0},
        default_mhz=1005.0,
    )
    try:
        result = run_instrumented(
            cluster,
            "SedovBlast",
            n_particles_per_rank=1e5,
            n_steps=n_steps,
            policy=policy,
            telemetry=collector,
            resilience=ResilienceConfig(),
            faults=injector,
        )
    finally:
        cluster.detach_management_library()

    print(
        f"completed {result.steps}/{n_steps} steps with "
        f"{result.faults_injected} faults injected and "
        f"{result.retries} transient retries"
    )
    print(f"degraded ranks: {result.degraded_ranks or 'none'}")
    for record in injector.records:
        print(f"  {record.describe()}")
    for rank_report in result.report.ranks:
        if rank_report.degraded:
            print(
                f"report flags rank {rank_report.rank}: "
                f"{rank_report.degraded_reason}"
            )
    fault_events = [
        e for e in collector.events if e.track == TRACK_FAULTS
    ]
    print(f"{len(fault_events)} events on the telemetry faults track")


if __name__ == "__main__":
    main()
