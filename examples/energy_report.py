"""Multi-node energy accounting: Slurm vs PMT vs pm_counters.

Submits a Subsonic Turbulence job (8 ranks on 2 CSCS-A100-like nodes,
150 M particles per GPU) through the simulated Slurm controller with
energy accounting enabled, and then compares every measurement path the
paper discusses:

* Slurm's sacct ConsumedEnergy (job window, from pm_counters),
* the instrumented PMT window (opens at the time-stepping loop),
* the per-device and per-function breakdowns (Figs. 4-5),
* the raw /sys/cray/pm_counters files of node 0.

The gathered per-rank report is written to ``energy_report.json`` for
post-hoc analysis, as the instrumented SPH-EXA does.

    python examples/energy_report.py
"""

from repro.core import (
    device_breakdown_percent,
    function_share_percent,
)
from repro.reporting import render_breakdown, render_table
from repro.slurm import JobSpec, SlurmController
from repro.sph import run_instrumented
from repro.systems import Cluster, by_name
from repro.units import format_energy


def main() -> None:
    cluster = Cluster(by_name("CSCS-A100"), n_ranks=8)
    controller = SlurmController()
    controller.accounting.enable_energy_accounting()
    captured = {}

    def app(cl, job):
        captured["result"] = run_instrumented(
            cl, "SubsonicTurbulence", 150.0e6, n_steps=5
        )
        return captured["result"]

    try:
        job = controller.submit(
            JobSpec(name="sphexa-turb", n_nodes=2, n_tasks=8),
            cluster,
            app,
        )
    finally:
        cluster.detach_management_library()
    result = captured["result"]

    rows = controller.accounting.sacct(
        job.job_id,
        fields=("JobID", "JobName", "State", "Elapsed", "NNodes",
                "ConsumedEnergy", "ConsumedEnergyRaw"),
    )
    print("sacct output:")
    print(render_table(list(rows[0]), [list(rows[0].values())]))

    pmt_j = result.report.total_j()
    slurm_j = job.consumed_energy_j
    print(
        f"\nSlurm ConsumedEnergy : {format_energy(slurm_j)}"
        f"\nPMT measured window  : {format_energy(pmt_j)}"
        f"\nsetup-phase energy   : {format_energy(slurm_j - pmt_j)} "
        f"({1.0 - pmt_j / slurm_j:.1%} of the job — GPUs idle during "
        "setup, as in Fig. 3)"
    )

    print()
    print(
        render_breakdown(
            device_breakdown_percent(result.report),
            title="energy per device class [%] (Fig. 4)",
        )
    )
    print()
    print(
        render_breakdown(
            function_share_percent(result.report, "GPU"),
            title="GPU energy per function [%] (Fig. 5)",
        )
    )

    pm = cluster.pm_counters[0]
    print("\n/sys/cray/pm_counters (node 0):")
    for name in ("energy", "cpu_energy", "memory_energy",
                 "accel0_energy", "freshness"):
        print(f"  {name:16} {pm.read_file(name)}")

    result.report.save("energy_report.json")
    print("\nper-rank report written to energy_report.json")


if __name__ == "__main__":
    main()
