"""Subsonic Turbulence with the real SPH numerics (numeric backend).

A laptop-scale version of the paper's primary workload: a periodic box
of driven subsonic turbulence integrated with the actual SPH pipeline
(Morton-key domain decomposition, Wendland C6 kernels, IAD derivatives,
grad-h momentum/energy, CFL time-stepping) on 2 simulated MPI ranks,
with full per-function energy instrumentation.

    python examples/subsonic_turbulence.py [nside] [steps]
"""

import sys

import numpy as np

from repro.core import function_share_percent
from repro.reporting import render_breakdown
from repro.sph import NumericProblem, Simulation
from repro.sph.init import (
    TurbulenceConfig,
    TurbulenceDriver,
    make_turbulence,
    make_turbulence_eos,
)
from repro.sph.observables import rms_mach
from repro.systems import Cluster, by_name
from repro.units import format_energy, format_time


def main() -> None:
    nside = int(sys.argv[1]) if len(sys.argv) > 1 else 14
    steps = int(sys.argv[2]) if len(sys.argv) > 2 else 10

    cfg = TurbulenceConfig(nside=nside, mach_rms=0.3, seed=42)
    particles = make_turbulence(cfg)
    print(
        f"Subsonic Turbulence: {particles.n} particles "
        f"({nside}^3), target Mach {cfg.mach_rms}, {steps} steps"
    )

    cluster = Cluster(by_name("miniHPC"), n_ranks=2)
    try:
        problem = NumericProblem(
            particles=particles,
            n_ranks=2,
            eos=make_turbulence_eos(cfg),
            box_size=cfg.box_size,
            driver=TurbulenceDriver(cfg, amplitude=0.4),
        )
        sim = Simulation(
            cluster,
            "SubsonicTurbulence",
            n_particles_per_rank=particles.n // 2,
            numeric=problem,
        )
        sim.initialize()

        print(f"\n{'step':>4} {'dt':>10} {'Mach':>7} {'rho max/mean':>13} "
              f"{'Ekin':>10} {'Eint':>10}")
        for step in range(steps):
            sim.profiler.open_window() if step == 0 else None
            sim._run_step()
            mach = rms_mach(particles)
            contrast = float(
                np.max(particles.rho) / np.mean(particles.rho)
            )
            print(
                f"{step:>4} {problem.dt:>10.2e} {mach:>7.3f} "
                f"{contrast:>13.3f} {particles.kinetic_energy():>10.4f} "
                f"{particles.internal_energy():>10.4f}"
            )
        sim.profiler.close_window()
        report = sim.profiler.gather(cluster.comm)

        print(f"\nsimulated wall time: {format_time(report.max_window_time_s())}")
        print(f"total energy: {format_energy(report.total_j())} "
              f"(GPU: {format_energy(report.total_window_gpu_j())})")
        print()
        print(
            render_breakdown(
                function_share_percent(report, "GPU"),
                title="GPU energy share per SPH-EXA function [%]",
            )
        )
        print(
            "\nmomentum drift:",
            np.max(np.abs(particles.momentum())),
        )
    finally:
        cluster.detach_management_library()


if __name__ == "__main__":
    main()
