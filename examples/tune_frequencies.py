"""Find per-kernel sweet-spot frequencies and run ManDyn with them.

Reproduces the paper's full methodology end to end:

1. KernelTuner-style sweep of every SPH-EXA kernel over the supported
   clocks in the 1005-1410 MHz window, best-EDP selection (Fig. 2);
2. build a ManDyn policy from the tuning result (section III-D);
3. compare baseline / best static / DVFS / ManDyn (Fig. 7).

    python examples/tune_frequencies.py
"""

from repro import nvml
from repro.core import (
    DvfsPolicy,
    ManDynPolicy,
    StaticFrequencyPolicy,
    baseline_policy,
)
from repro.reporting import render_table
from repro.sph import run_instrumented
from repro.systems import Cluster, by_name
from repro.tuner import tune_all_sph_functions

PROBLEM = 450**3
STEPS = 10


def main() -> None:
    # --- 1. tune ----------------------------------------------------------
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        handle = nvml.nvmlDeviceGetHandleByIndex(0)
        freqs = nvml.supported_clock_window_mhz(handle, 1005, 1410)[::3]
        best = tune_all_sph_functions(
            cluster.gpus[0], PROBLEM, freqs, iterations=3
        )
    finally:
        cluster.detach_management_library()
    print(
        render_table(
            ["function", "best-EDP clock [MHz]"],
            sorted(best.items(), key=lambda kv: -kv[1]),
            title="tuned per-kernel frequencies (Fig. 2)",
        )
    )

    # --- 2/3. compare policies ---------------------------------------------
    def run(policy):
        cl = Cluster(by_name("miniHPC"), 1)
        try:
            return run_instrumented(
                cl, "SubsonicTurbulence", PROBLEM, STEPS, policy=policy
            )
        finally:
            cl.detach_management_library()

    runs = {
        "baseline 1410": run(baseline_policy(1410.0)),
        "static 1005": run(StaticFrequencyPolicy(1005.0)),
        "DVFS": run(DvfsPolicy()),
        "ManDyn (tuned)": run(
            ManDynPolicy.from_tuning(best, default_mhz=1410.0)
        ),
    }
    base = runs["baseline 1410"]
    rows = []
    for label, res in runs.items():
        t = res.elapsed_s / base.elapsed_s
        e = res.gpu_energy_j / base.gpu_energy_j
        rows.append([label, f"{t:.4f}", f"{e:.4f}", f"{t * e:.4f}",
                     res.clock_set_calls])
    print()
    print(
        render_table(
            ["policy", "time", "GPU energy", "EDP", "clock sets"],
            rows,
            title="normalized comparison (Fig. 7)",
        )
    )


if __name__ == "__main__":
    main()
