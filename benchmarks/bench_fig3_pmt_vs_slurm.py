"""Fig. 3 — PMT-measured vs Slurm-reported energy.

Subsonic Turbulence with 150 M particles per GPU, energy measurement
enabled, on 8-48 GPU cards (CSCS-A100) and 16-96 GCDs (LUMI-G), each
run under full Slurm accounting. PMT (instrumented window) must closely
track Slurm (job window) with PMT always below — the difference being
the job-launch + application-setup energy (paper §IV-A). Values are
printed normalized to the largest configuration, as in the figure.
"""

from __future__ import annotations

from repro.reporting import render_series
from repro.slurm import JobSpec, SlurmController
from repro.sph import run_instrumented
from repro.systems import Cluster, by_name

from _harness import BENCH_STEPS

N_PER_GPU = 150.0e6

#: GPU-card counts of the paper's scaling runs.
CSCS_GPUS = (8, 16, 24, 32, 40, 48)
#: GCD counts on LUMI-G (one rank per GCD).
LUMI_GCDS = (16, 32, 48, 64, 80, 96)


def _measure(system, n_ranks):
    cluster = Cluster(system, n_ranks)
    try:
        controller = SlurmController()
        controller.accounting.enable_energy_accounting()
        captured = {}

        def app(cl, job):
            captured["result"] = run_instrumented(
                cl, "SubsonicTurbulence", N_PER_GPU, BENCH_STEPS
            )
            return captured["result"]

        job = controller.submit(
            JobSpec(
                name="sphexa-turb",
                n_nodes=cluster.n_nodes,
                n_tasks=n_ranks,
            ),
            cluster,
            app,
        )
        pmt_j = captured["result"].report.total_j()
        slurm_j = job.consumed_energy_j
        return pmt_j, slurm_j
    finally:
        cluster.detach_management_library()


def bench_fig3_pmt_vs_slurm(benchmark):
    def experiment():
        data = {}
        for n in CSCS_GPUS:
            data[("CSCS-A100", n)] = _measure(by_name("CSCS-A100"), n)
        for n in LUMI_GCDS:
            data[("LUMI-G", n)] = _measure(by_name("LUMI-G"), n)
        return data

    data = benchmark(experiment)

    for system, sizes, unit in (
        ("CSCS-A100", CSCS_GPUS, "GPUs"),
        ("LUMI-G", LUMI_GCDS, "GCDs"),
    ):
        ref_pmt, ref_slurm = data[(system, sizes[-1])]
        series = {
            "PMT (norm)": {
                n: round(data[(system, n)][0] / ref_slurm, 4) for n in sizes
            },
            "Slurm (norm)": {
                n: round(data[(system, n)][1] / ref_slurm, 4) for n in sizes
            },
            "PMT/Slurm": {
                n: round(data[(system, n)][0] / data[(system, n)][1], 4)
                for n in sizes
            },
        }
        print()
        print(
            render_series(
                series,
                x_label=unit,
                title=(
                    f"Fig. 3 ({system}): PMT vs Slurm energy, normalized "
                    f"to {sizes[-1]} {unit}"
                ),
            )
        )

    for (system, n), (pmt_j, slurm_j) in data.items():
        # Strong match, PMT strictly below Slurm (setup energy).
        assert pmt_j < slurm_j, (system, n)
        assert pmt_j > 0.75 * slurm_j, (system, n)
    # Both scale ~linearly with device count.
    for system, sizes in (("CSCS-A100", CSCS_GPUS), ("LUMI-G", LUMI_GCDS)):
        small = data[(system, sizes[0])][1] / sizes[0]
        large = data[(system, sizes[-1])][1] / sizes[-1]
        assert abs(large - small) / small < 0.25, system
