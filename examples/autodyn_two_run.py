"""Frequency selection without a KernelTuner sweep: two ways.

The paper finds per-kernel frequencies with an offline KernelTuner
sweep (28 clocks x 7 iterations x 9 kernels). This example shows the
two cheaper routes the reproduction adds:

1. **two-run characterization** — run the production code twice (max
   clock + one down-clocked run), fit each function's compute-bound
   fraction kappa and idle-power share from the measured responses, and
   recommend best-EDP clocks analytically;
2. **AutoDyn** — tune *online*: explore candidate clocks during the
   first steps of a single production run, then pin the winners.

Both must land on (nearly) the same per-function map as the full sweep.

    python examples/autodyn_two_run.py
"""

from repro.core import (
    ManDynPolicy,
    OnlineTuningPolicy,
    StaticFrequencyPolicy,
    baseline_policy,
    characterize_functions,
    recommend_frequencies,
)
from repro.reporting import render_table
from repro.sph import run_instrumented
from repro.systems import Cluster, by_name
from repro.tuner import tune_all_sph_functions

N = 450**3
CANDIDATES = [1410.0, 1305.0, 1200.0, 1110.0, 1005.0]


def run(policy, steps=6):
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        result = run_instrumented(
            cluster, "SubsonicTurbulence", N, steps, policy=policy
        )
        return result, cluster
    finally:
        cluster.detach_management_library()


def main() -> None:
    # Route 0 (the paper's): full offline sweep, for reference.
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        sweep = tune_all_sph_functions(
            cluster.gpus[0], N, CANDIDATES, iterations=2
        )
    finally:
        cluster.detach_management_library()

    # Route 1: two production runs + analytic fit.
    ref, _ = run(baseline_policy(1410.0))
    low, _ = run(StaticFrequencyPolicy(1110.0))
    characters = characterize_functions(
        ref.report, low.report, 1410.0, 1110.0
    )
    two_run = recommend_frequencies(characters, CANDIDATES)

    # Route 2: online tuning in one run.
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        auto_policy = OnlineTuningPolicy(
            cluster.gpus, candidates_mhz=(1410.0, 1200.0, 1005.0),
            rounds_per_candidate=2,
        )
        run_instrumented(
            cluster, "SubsonicTurbulence", N, 8, policy=auto_policy
        )
    finally:
        cluster.detach_management_library()
    online = auto_policy.converged_map

    rows = []
    for fn in sorted(sweep, key=lambda f: -sweep[f]):
        ch = characters[fn]
        rows.append(
            [
                fn,
                f"{ch.kappa:.2f}",
                f"{sweep[fn]:.0f}",
                f"{two_run[fn]:.0f}",
                f"{online.get(fn, float('nan')):.0f}",
            ]
        )
    print(
        render_table(
            ["function", "fitted kappa", "KernelTuner sweep [MHz]",
             "two-run fit [MHz]", "AutoDyn online [MHz]"],
            rows,
            title="per-function frequency selection: three routes",
        )
    )

    # Use the two-run recommendation in anger.
    base, _ = run(baseline_policy(1410.0), steps=8)
    mandyn, _ = run(
        ManDynPolicy.from_tuning(two_run, default_mhz=1410.0), steps=8
    )
    t = mandyn.elapsed_s / base.elapsed_s
    e = mandyn.gpu_energy_j / base.gpu_energy_j
    print(
        f"\nManDyn from the two-run fit: time x{t:.4f}, "
        f"GPU energy x{e:.4f}, EDP x{t * e:.4f}"
    )


if __name__ == "__main__":
    main()
