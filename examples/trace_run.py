"""Trace a ManDyn run and export it for Perfetto / chrome://tracing.

Attaches a :class:`repro.telemetry.TraceCollector` to an instrumented
Sedov blast run: every hooked step function becomes a duration span,
every NVML application-clock change becomes an instant on the rank's
clock track, and the result is written as Chrome ``trace_event`` JSON
(``trace_run.json`` in the current directory). The printed summary
reconciles the trace against the independently gathered energy report.

    python examples/trace_run.py [ranks] [steps]
"""

import sys

from repro.core import ManDynPolicy
from repro.sph import run_instrumented
from repro.systems import Cluster, by_name
from repro.telemetry import TraceCollector, render_summary, write_chrome_trace


def main() -> None:
    n_ranks = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    n_steps = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    cluster = Cluster(by_name("miniHPC"), n_ranks)
    collector = TraceCollector.for_cluster(cluster)
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
        )
    finally:
        cluster.detach_management_library()

    out = "trace_run.json"
    write_chrome_trace(
        out, collector.events,
        label=f"SedovBlast on miniHPC (ManDyn, {n_steps} steps)",
    )
    print(
        f"recorded {len(collector.events)} events "
        f"({len(collector.spans())} spans) across {n_ranks} ranks; "
        f"Chrome trace written to {out} — open it in Perfetto."
    )
    print()
    print(render_summary(collector, result.report))


if __name__ == "__main__":
    main()
