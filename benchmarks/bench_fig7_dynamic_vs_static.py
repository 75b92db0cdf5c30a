"""Fig. 7 — static frequencies vs DVFS vs ManDyn (the headline result).

Subsonic Turbulence, 450³ particles, single A100 (miniHPC). Compares
time-to-solution, GPU energy-to-solution and EDP, normalized to the
1410 MHz baseline, for: static clocks 1005-1410 MHz, the hardware DVFS
governor, and the paper's ManDyn (per-function clocks from the tuner).

Shape targets (paper §IV-D): static down-scaling trades >15 % time for
~20 % energy; DVFS is time-neutral but costs energy; ManDyn loses at
most ~3 % time, saves ~8 % GPU energy (up to 7.82 % in the paper),
cuts EDP by ~4-7 %, and is ~16 % faster than static 1005 MHz.
"""

from __future__ import annotations

from repro.core import (
    DvfsPolicy,
    ManDynPolicy,
    StaticFrequencyPolicy,
    baseline_policy,
)
from repro.reporting import render_table
from repro.systems import Cluster, by_name
from repro.tuner import tune_all_sph_functions

from _harness import run_simulation

N = 450**3
STATIC_FREQS = (1305, 1200, 1110, 1005)


def _tuned_policy():
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        freqs = [1410 - 15 * k for k in range(0, 28, 3)]
        best = tune_all_sph_functions(
            cluster.gpus[0], N, freqs, iterations=2
        )
        return ManDynPolicy.from_tuning(best, default_mhz=1410.0), best
    finally:
        cluster.detach_management_library()


def bench_fig7_dynamic_vs_static(benchmark):
    def experiment():
        mandyn, tuned = _tuned_policy()
        runs = {}
        runs["1410 (base)"] = run_simulation(
            by_name("miniHPC"), 1, "SubsonicTurbulence", N, baseline_policy(1410)
        )
        for f in STATIC_FREQS:
            runs[str(f)] = run_simulation(
                by_name("miniHPC"), 1, "SubsonicTurbulence", N,
                StaticFrequencyPolicy(f),
            )
        runs["DVFS"] = run_simulation(
            by_name("miniHPC"), 1, "SubsonicTurbulence", N, DvfsPolicy()
        )
        runs["ManDyn"] = run_simulation(
            by_name("miniHPC"), 1, "SubsonicTurbulence", N, mandyn
        )
        return runs, tuned

    runs, tuned = benchmark(experiment)

    base = runs["1410 (base)"]
    rows = []
    norm = {}
    for label, run in runs.items():
        t = run.elapsed_s / base.elapsed_s
        e = run.gpu_energy_j / base.gpu_energy_j
        norm[label] = (t, e, t * e)
        rows.append([label, f"{t:.4f}", f"{e:.4f}", f"{t * e:.4f}"])
    print()
    print(
        render_table(
            ["configuration", "time-to-solution", "energy-to-solution",
             "EDP"],
            rows,
            title=(
                "Fig. 7: normalized time / GPU energy / EDP "
                "(Subsonic Turbulence, 450^3, single A100)"
            ),
        )
    )
    print(f"ManDyn per-function clocks (from Fig. 2 tuning): {tuned}")
    from repro.reporting import bar_chart

    print()
    print(
        bar_chart(
            {label: edp for label, (_, _, edp) in norm.items()},
            title="EDP, normalized to 1410 MHz (lower is better)",
            baseline=1.0,
        )
    )

    t_1005, e_1005, edp_1005 = norm["1005"]
    t_md, e_md, edp_md = norm["ManDyn"]
    t_dvfs, e_dvfs, _ = norm["DVFS"]

    # Static down-scaling: monotone time increase / energy decrease.
    times = [norm[str(f)][0] for f in STATIC_FREQS]
    energies = [norm[str(f)][1] for f in STATIC_FREQS]
    assert times == sorted(times)
    assert energies == sorted(energies, reverse=True)
    assert t_1005 > 1.12 and e_1005 < 0.88
    assert edp_1005 < 1.0  # paper: ~2.5 % EDP reduction

    # ManDyn headline numbers.
    assert t_md < 1.04  # paper: performance loss <= 2.95 %
    assert 0.90 <= e_md <= 0.95  # paper: up to 7.82 % per-GPU energy
    assert edp_md < 0.97  # paper: ~4 % EDP reduction
    # ManDyn vs static 1005: large time win (paper: 16 %).
    assert 1.0 - t_md / t_1005 > 0.08

    # DVFS: no time win, energy above baseline.
    assert 0.99 < t_dvfs < 1.05
    assert e_dvfs > 1.0
