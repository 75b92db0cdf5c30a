"""Ablation / future work — ManDyn on Intel GPUs (paper §V).

Completes the paper's future-work matrix: the methodology (tune per
function, pin clocks through the vendor management library before each
function) on an Aurora-class node with Intel Max 1550 GPUs driven
through Level Zero Sysman frequency ranges.
"""

from __future__ import annotations

from repro.core import ManDynPolicy, StaticFrequencyPolicy, baseline_policy
from repro.reporting import render_table
from repro.systems import Cluster, by_name
from repro.tuner import tune_all_sph_functions

from _harness import run_simulation

N_PER_GPU = 30.0e6


def bench_ablation_intel_mandyn(benchmark):
    def experiment():
        cluster = Cluster(by_name("Aurora-PVC"), 1)
        try:
            freqs = list(range(1600, 999, -100))
            tuned = tune_all_sph_functions(
                cluster.gpus[0], int(N_PER_GPU), freqs, iterations=2
            )
        finally:
            cluster.detach_management_library()

        runs = {
            "baseline 1600": run_simulation(
                by_name("Aurora-PVC"), 6, "SubsonicTurbulence", N_PER_GPU,
                baseline_policy(1600.0),
            ),
            "static 1000": run_simulation(
                by_name("Aurora-PVC"), 6, "SubsonicTurbulence", N_PER_GPU,
                StaticFrequencyPolicy(1000.0),
            ),
            "ManDyn (tuned)": run_simulation(
                by_name("Aurora-PVC"), 6, "SubsonicTurbulence", N_PER_GPU,
                ManDynPolicy.from_tuning(tuned, default_mhz=1600.0),
            ),
        }
        return tuned, runs

    tuned, runs = benchmark(experiment)

    print()
    print(
        render_table(
            ["function", "best-EDP clock [MHz]"],
            sorted(tuned.items(), key=lambda kv: -kv[1]),
            title="Intel Max 1550 per-function tuning (Level Zero Sysman)",
        )
    )
    base = runs["baseline 1600"]
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
            title="Aurora-PVC (6 GPUs): ManDyn carries over to Intel",
        )
    )

    assert tuned["MomentumEnergy"] == 1600.0
    assert tuned["XMass"] < 1400.0
    mandyn = runs["ManDyn (tuned)"]
    t = mandyn.elapsed_s / base.elapsed_s
    e = mandyn.gpu_energy_j / base.gpu_energy_j
    assert t < 1.06
    assert e < 0.97
    assert t * e < 0.99
    assert mandyn.elapsed_s < runs["static 1000"].elapsed_s
