"""Evrard Collapse with self-gravity (numeric backend).

The paper's second workload: a cold gas sphere with rho ~ 1/r collapses
under Barnes-Hut self-gravity, heating as it bounces. Runs the full
instrumented pipeline (the propagator gains the Gravity function) on
one simulated rank and tracks the collapse diagnostics and the energy
budget.

    python examples/evrard_collapse.py [n_particles] [steps] [--skin S]
        [--ranks N]
"""

import argparse

import numpy as np

from repro.core import function_share_percent
from repro.reporting import render_breakdown
from repro.sph import NumericProblem, Simulation
from repro.sph.init import (
    EvrardConfig,
    make_evrard,
    make_evrard_eos,
    make_evrard_gravity,
)
from repro.sph.observables import density_contrast, energy_budget, half_mass_radius
from repro.systems import Cluster, by_name
from repro.units import format_energy, format_time


def main() -> None:
    parser = argparse.ArgumentParser(description="Evrard collapse example")
    parser.add_argument("n_particles", type=int, nargs="?", default=3000)
    parser.add_argument("steps", type=int, nargs="?", default=12)
    parser.add_argument(
        "--skin",
        type=float,
        default=0.1,
        help="Verlet skin in units of h; 0 searches every step "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--ranks",
        type=int,
        default=1,
        help="simulated MPI ranks (default %(default)s)",
    )
    args = parser.parse_args()
    n, steps = args.n_particles, args.steps

    cfg = EvrardConfig(n_particles=n, seed=7)
    particles = make_evrard(cfg)
    gravity = make_evrard_gravity(cfg)
    print(
        f"Evrard Collapse: {n} particles, u0 = {cfg.u0:.3f}, "
        f"softening = {gravity.softening:.4f}, {steps} steps"
    )
    budget0 = energy_budget(particles, gravity)
    print(
        f"initial energy: kin {budget0.kinetic:.4f}  "
        f"int {budget0.internal:.4f}  pot {budget0.potential:.4f}  "
        f"total {budget0.total:.4f}"
    )

    cluster = Cluster(by_name("miniHPC"), n_ranks=args.ranks)
    try:
        problem = NumericProblem(
            particles=particles,
            n_ranks=args.ranks,
            eos=make_evrard_eos(cfg),
            gravity=gravity,
            skin=args.skin,
        )
        sim = Simulation(
            cluster, "EvrardCollapse",
            n_particles_per_rank=n / args.ranks,
            numeric=problem,
        )
        sim.initialize()
        sim.profiler.open_window()

        print(f"\n{'step':>4} {'dt':>10} {'r_half':>8} {'rho contrast':>13} "
              f"{'Ekin':>9} {'Etot drift':>11}")
        for step in range(steps):
            sim._run_step()
            budget = energy_budget(particles, gravity)
            drift = (budget.total - budget0.total) / abs(budget0.total)
            print(
                f"{step:>4} {problem.dt:>10.2e} "
                f"{half_mass_radius(particles):>8.4f} "
                f"{density_contrast(particles):>13.1f} "
                f"{budget.kinetic:>9.4f} {drift:>+11.2%}"
            )
        sim.profiler.close_window()
        report = sim.profiler.gather(cluster.comm)

        print(f"\nsimulated wall time: {format_time(report.max_window_time_s())}")
        print(f"GPU energy: {format_energy(report.total_window_gpu_j())}")
        print()
        print(
            render_breakdown(
                function_share_percent(report, "GPU"),
                title="GPU energy share per function (note Gravity) [%]",
            )
        )
        # The sphere must have contracted and gained kinetic energy.
        final = energy_budget(particles, gravity)
        assert final.kinetic > 0.0
        print("\ncollapse is underway: kinetic energy "
              f"{final.kinetic:.4f} (from 0), potential deepened to "
              f"{final.potential:.4f} (from {budget0.potential:.4f})")
    finally:
        cluster.detach_management_library()


if __name__ == "__main__":
    main()
