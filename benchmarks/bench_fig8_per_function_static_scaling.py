"""Fig. 8 — per-function effect of static frequency down-scaling.

Execution time (a), energy (b) and EDP (c) of every SPH-EXA function at
static clocks 1005-1410 MHz, normalized to 1410 MHz, for Subsonic
Turbulence at 450³ particles on a single A100. Shape targets: the
compute-bound MomentumEnergy and IADVelocityDivCurl pay > 20 % time at
1005 MHz with energy cuts limited to ~13 % / ~19 %, while every other
function gains at least 10 % EDP.
"""

from __future__ import annotations

from repro.core import StaticFrequencyPolicy, baseline_policy, per_function_metrics
from repro.reporting import render_table
from repro.systems import by_name

from _harness import run_simulation

N = 450**3
FREQS = (1305, 1200, 1110, 1005)
COMPUTE_BOUND = ("MomentumEnergy", "IADVelocityDivCurl")


def bench_fig8_per_function_static_scaling(benchmark):
    def experiment():
        base = run_simulation(
            by_name("miniHPC"), 1, "SubsonicTurbulence", N, baseline_policy(1410)
        )
        runs = {1410: base}
        for f in FREQS:
            runs[f] = run_simulation(
                by_name("miniHPC"), 1, "SubsonicTurbulence", N,
                StaticFrequencyPolicy(f),
            )
        return {f: per_function_metrics(r.report) for f, r in runs.items()}

    metrics = benchmark(experiment)

    base = metrics[1410]
    functions = sorted(base, key=lambda fn: -base[fn].time_s)
    panels = {
        "(a) execution time": lambda fn, f: (
            metrics[f][fn].time_s / base[fn].time_s
        ),
        "(b) energy": lambda fn, f: (
            metrics[f][fn].energy_j / base[fn].energy_j
        ),
        "(c) EDP": lambda fn, f: (
            metrics[f][fn].edp / base[fn].edp
        ),
    }
    for title, fetch in panels.items():
        rows = [
            [fn] + [f"{fetch(fn, f):.4f}" for f in FREQS]
            for fn in functions
        ]
        print()
        print(
            render_table(
                ["function"] + [f"{f} MHz" for f in FREQS],
                rows,
                title=f"Fig. 8{title}, normalized to 1410 MHz",
            )
        )

    def ratio(fn, f, what):
        if what == "t":
            return metrics[f][fn].time_s / base[fn].time_s
        if what == "e":
            return metrics[f][fn].energy_j / base[fn].energy_j
        return metrics[f][fn].edp / base[fn].edp

    # Compute-bound kernels: > 20 % time at 1005, limited energy cuts.
    for fn in COMPUTE_BOUND:
        assert ratio(fn, 1005, "t") > 1.20, fn
    assert 0.82 < ratio("MomentumEnergy", 1005, "e") < 0.92  # ~ -13 %
    assert 0.76 < ratio("IADVelocityDivCurl", 1005, "e") < 0.90  # ~ -19 %
    # EDP benefit is limited for the compute-bound pair...
    for fn in COMPUTE_BOUND:
        assert ratio(fn, 1005, "edp") > 0.95, fn
    # ...while all other functions gain at least 10 % EDP at 1005 MHz.
    for fn in functions:
        if fn in COMPUTE_BOUND:
            continue
        assert ratio(fn, 1005, "edp") < 0.90, fn
    # Time ratios grow monotonically as the clock drops.
    for fn in functions:
        series = [ratio(fn, f, "t") for f in FREQS]
        assert series == sorted(series), fn
