"""Ablation — centre-wide CPU down-clocking (the ARCHER2 move, §II-B).

The paper cites ARCHER2's 2022 decision to lower default CPU clocks
"to reduce the power consumption with limited performance loss".
For a GPU-resident code like SPH-EXA the host CPUs mostly idle, so the
same lever applies: this bench sweeps Slurm's ``--cpu-freq`` on a
CSCS-A100 job and shows node energy falling a few percent while
time-to-solution barely moves (only the small host-side phases slow).
"""

from __future__ import annotations

from repro.hardware import KernelLaunch
from repro.reporting import render_table
from repro.slurm import JobSpec, SlurmController
from repro.sph import run_instrumented
from repro.systems import Cluster, by_name

N_PER_GPU = 150.0e6
STEPS = 5
CPU_FREQS_KHZ = (2_450_000, 2_000_000, 1_800_000, 1_500_000)


def _run(cpu_freq_khz):
    cluster = Cluster(by_name("CSCS-A100"), 4)
    controller = SlurmController()
    controller.accounting.enable_energy_accounting()
    captured = {}

    def app(cl, job):
        captured["res"] = run_instrumented(
            cl, "SubsonicTurbulence", N_PER_GPU, STEPS
        )
        return captured["res"]

    try:
        job = controller.submit(
            JobSpec(
                name="cpufreq",
                n_nodes=1,
                n_tasks=4,
                cpu_freq_khz=cpu_freq_khz,
            ),
            cluster,
            app,
        )
    finally:
        cluster.detach_management_library()
    res = captured["res"]
    return res.elapsed_s, res.report.total_j(), job.consumed_energy_j


def bench_ablation_cpu_freq(benchmark):
    def experiment():
        return {khz: _run(khz) for khz in CPU_FREQS_KHZ}

    out = benchmark(experiment)

    base_t, base_e, _ = out[CPU_FREQS_KHZ[0]]
    rows = []
    for khz, (t, e, slurm_e) in out.items():
        rows.append(
            [
                f"{khz / 1e6:.2f} GHz",
                f"{t / base_t:.4f}",
                f"{e / base_e:.4f}",
            ]
        )
    print()
    print(
        render_table(
            ["--cpu-freq", "time-to-solution", "node energy"],
            rows,
            title=(
                "CPU frequency ablation (GPU-resident workload, "
                "CSCS-A100 node)"
            ),
        )
    )

    t_low, e_low, _ = out[CPU_FREQS_KHZ[-1]]
    # Limited performance loss...
    assert t_low / base_t < 1.02
    # ...with a measurable node-energy saving (the CPUs are a ~6 %
    # slice of a GPU node, so ~1 % node-level is the realistic ceiling).
    assert e_low / base_e < 0.995
    # Energy decreases monotonically with the CPU clock.
    energies = [out[khz][1] for khz in CPU_FREQS_KHZ]
    assert energies == sorted(energies, reverse=True)
    # And times grow (weakly) as the host phases slow.
    times = [out[khz][0] for khz in CPU_FREQS_KHZ]
    assert times == sorted(times)
