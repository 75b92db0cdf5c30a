"""Ablation / future work — ManDyn on AMD GCDs (paper §V).

The paper's future work is "the adaptation of the proposed method on
AMD and Intel GPUs". The reproduction's frequency controller already
speaks ROCm SMI, so this bench runs the full methodology on LUMI-G
GCDs: tune per-function clocks on an MI250X GCD, then compare
baseline / static / ManDyn on an 8-GCD node. The qualitative outcome
must carry over: ManDyn saves GPU energy at a small time cost.
"""

from __future__ import annotations

from repro.core import ManDynPolicy, StaticFrequencyPolicy, baseline_policy
from repro.reporting import render_table
from repro.systems import Cluster, by_name
from repro.tuner import tune_all_sph_functions
from repro.units import to_mhz

from _harness import run_simulation

N_PER_GCD = 20.0e6
STATIC_LOW_MHZ = 1200.0


def bench_ablation_amd_mandyn(benchmark):
    def experiment():
        # Tune on one GCD: the MI250X window 1200..1700 MHz.
        cluster = Cluster(by_name("LUMI-G"), 1)
        try:
            gpu = cluster.gpus[0]
            hi = int(to_mhz(gpu.spec.max_clock_hz))
            freqs = list(range(hi, 1199, -100))
            tuned = tune_all_sph_functions(
                gpu, int(N_PER_GCD), freqs, iterations=2
            )
        finally:
            cluster.detach_management_library()

        runs = {
            "baseline 1700": run_simulation(
                by_name("LUMI-G"), 8, "SubsonicTurbulence", N_PER_GCD,
                baseline_policy(1700.0),
            ),
            f"static {STATIC_LOW_MHZ:.0f}": run_simulation(
                by_name("LUMI-G"), 8, "SubsonicTurbulence", N_PER_GCD,
                StaticFrequencyPolicy(STATIC_LOW_MHZ),
            ),
            "ManDyn (tuned)": run_simulation(
                by_name("LUMI-G"), 8, "SubsonicTurbulence", N_PER_GCD,
                ManDynPolicy.from_tuning(tuned, default_mhz=1700.0),
            ),
        }
        return tuned, runs

    tuned, runs = benchmark(experiment)

    print()
    print(
        render_table(
            ["function", "best-EDP clock [MHz]"],
            sorted(tuned.items(), key=lambda kv: -kv[1]),
            title="MI250X GCD per-function tuning (ROCm SMI control)",
        )
    )
    base = runs["baseline 1700"]
    rows = []
    for label, res in runs.items():
        t = res.elapsed_s / base.elapsed_s
        e = res.gpu_energy_j / base.gpu_energy_j
        rows.append([label, f"{t:.4f}", f"{e:.4f}", f"{t * e:.4f}"])
    print()
    print(
        render_table(
            ["policy", "time", "GPU energy", "EDP"],
            rows,
            title="LUMI-G (8 GCDs): ManDyn carries over to AMD",
        )
    )

    # The method transfers: compute-bound kernels tune high, light low.
    assert tuned["MomentumEnergy"] == 1700.0
    assert tuned["XMass"] < 1500.0
    mandyn = runs["ManDyn (tuned)"]
    t = mandyn.elapsed_s / base.elapsed_s
    e = mandyn.gpu_energy_j / base.gpu_energy_j
    assert t < 1.06          # small performance loss
    assert e < 0.97          # real GPU energy saving
    assert t * e < 0.99      # net EDP win
    # And ManDyn again beats whole-run static down-scaling on time.
    static = runs[f"static {STATIC_LOW_MHZ:.0f}"]
    assert mandyn.elapsed_s < static.elapsed_s
