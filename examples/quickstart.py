"""Quickstart: measure and reduce the energy of an SPH run in ~30 lines.

Runs the Subsonic Turbulence workload (450^3 particles, the paper's
miniHPC problem size) on one simulated A100 twice — once with the
default pinned-max clocks and once with the paper's ManDyn per-function
frequency scaling — and prints the headline comparison.

    python examples/quickstart.py
"""

from repro.core import ManDynPolicy, baseline_policy
from repro.sph import run_instrumented
from repro.systems import Cluster, by_name
from repro.units import format_energy, format_time


def run(policy):
    cluster = Cluster(by_name("miniHPC"), n_ranks=1)
    try:
        return run_instrumented(
            cluster,
            "SubsonicTurbulence",
            n_particles_per_rank=450**3,
            n_steps=10,
            policy=policy,
        )
    finally:
        cluster.detach_management_library()


def main() -> None:
    baseline = run(baseline_policy(1410.0))

    # ManDyn: compute-bound kernels at max clock, everything else low
    # (what the kernel tuner finds in Fig. 2; see tune_frequencies.py).
    mandyn = run(
        ManDynPolicy(
            {"MomentumEnergy": 1410.0, "IADVelocityDivCurl": 1365.0},
            default_mhz=1005.0,
        )
    )

    print(f"{'':14} {'time':>12} {'GPU energy':>14} {'EDP':>12}")
    for name, res in (("baseline", baseline), ("ManDyn", mandyn)):
        print(
            f"{name:14} {format_time(res.elapsed_s):>12} "
            f"{format_energy(res.gpu_energy_j):>14} {res.edp:>12.1f}"
        )
    dt = mandyn.elapsed_s / baseline.elapsed_s - 1.0
    de = 1.0 - mandyn.gpu_energy_j / baseline.gpu_energy_j
    dedp = 1.0 - mandyn.edp / baseline.edp
    print(
        f"\nManDyn: {de:+.1%} GPU energy saved for {dt:+.2%} time "
        f"({dedp:+.1%} EDP) — paper: up to 7.82 % energy for <= 2.95 % time."
    )


if __name__ == "__main__":
    main()
