"""Fig. 6 — EDP vs static GPU frequency for different problem sizes.

Subsonic Turbulence on a single A100 (miniHPC), particles per GPU from
200³ (8 M, under-utilized) to 450³ (91 M, the memory cap of the 40 GB
card), clocks 1005-1410 MHz, EDP normalized to the 1410 MHz baseline.
Shape targets: EDP < 1 when down-scaling; the under-utilized 200³ case
dips far deeper, with a moderate clock (~1110 MHz) already capturing
nearly all of the benefit.
"""

from __future__ import annotations

from repro.core import StaticFrequencyPolicy, baseline_policy
from repro.reporting import render_series
from repro.sph import max_particles_per_gpu
from repro.systems import by_name
from repro.units import GIB

from _harness import run_simulation

SIZES = {
    "200^3": 200**3,
    "250^3": 250**3,
    "300^3": 300**3,
    "350^3": 350**3,
    "400^3": 400**3,
    "450^3": 450**3,
}

FREQS = (1410, 1305, 1200, 1110, 1005)


def bench_fig6_static_edp_problem_size(benchmark):
    def experiment():
        series = {}
        for label, n in SIZES.items():
            base = run_simulation(
                by_name("miniHPC"), 1, "SubsonicTurbulence", n,
                baseline_policy(1410),
            )
            series[label] = {}
            for f in FREQS:
                if f == 1410:
                    run = base
                else:
                    run = run_simulation(
                        by_name("miniHPC"), 1, "SubsonicTurbulence", n,
                        StaticFrequencyPolicy(f),
                    )
                series[label][f] = run.edp / base.edp
        return series

    series = benchmark(experiment)

    print()
    print(
        render_series(
            {
                label: {f: round(v, 4) for f, v in vals.items()}
                for label, vals in series.items()
            },
            x_label="MHz",
            title=(
                "Fig. 6: EDP vs static GPU frequency, normalized to "
                "1410 MHz (Subsonic Turbulence, single A100)"
            ),
        )
    )
    # miniHPC's 40 GB card caps at 450^3 but not 150M (section IV-C).
    cap = max_particles_per_gpu(40.0 * GIB)
    print(f"note: 40 GB A100 memory cap = {cap / 1e6:.0f} M particles "
          "(>= 450^3 = 91 M; < 150 M)")

    for label, vals in series.items():
        # Down-scaling always pays off in EDP for this workload.
        assert vals[1005] < 1.0, label
        assert vals[1110] < vals[1410], label
    # The under-utilized case dips deepest (paper: "EDP drops
    # significantly when the GPUs are not fully utilized").
    assert min(series["200^3"].values()) < min(series["450^3"].values()) - 0.03
    # And 1110 MHz is already near-optimal for 200^3.
    small = series["200^3"]
    assert small[1110] <= min(small.values()) + 0.03
    # Monotone ordering of the dip depth with size.
    assert min(series["200^3"].values()) <= min(series["300^3"].values())
    assert min(series["300^3"].values()) <= min(series["450^3"].values())
    assert cap >= 450**3
    assert cap < 150e6
