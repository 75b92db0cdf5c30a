"""Ablation — sensitivity of the headline result to the power exponent.

The calibrated device model uses ``P = P_idle + i P_dyn (f/f_max)^alpha``
with alpha = 1.7 over the paper's clock window (DESIGN.md §5). This
bench sweeps alpha and shows the paper's *qualitative* conclusion —
ManDyn saves energy at small time cost — holds across the physically
plausible range (alpha in [1, 3]), while the magnitude of the saving
scales with alpha. The reproduction therefore does not hinge on the
exact calibration constant.
"""

from __future__ import annotations

import dataclasses

from repro.core import ManDynPolicy, baseline_policy
from repro.reporting import render_table
from repro.systems import by_name

from _harness import run_simulation

N = 450**3
ALPHAS = (1.0, 1.35, 1.7, 2.2, 3.0)

MANDYN = {
    "MomentumEnergy": 1410.0,
    "IADVelocityDivCurl": 1410.0,
}


def _system_with_alpha(alpha: float):
    system = by_name("miniHPC")
    gpu_spec = dataclasses.replace(system.gpu_spec, power_exponent=alpha)
    return dataclasses.replace(system, gpu_spec=gpu_spec)


def bench_ablation_power_exponent(benchmark):
    def experiment():
        rows = {}
        for alpha in ALPHAS:
            system = _system_with_alpha(alpha)
            base = run_simulation(
                system, 1, "SubsonicTurbulence", N, baseline_policy(1410)
            )
            mandyn = run_simulation(
                system, 1, "SubsonicTurbulence", N,
                ManDynPolicy(MANDYN, default_mhz=1005.0),
            )
            rows[alpha] = (
                mandyn.elapsed_s / base.elapsed_s,
                mandyn.gpu_energy_j / base.gpu_energy_j,
            )
        return rows

    rows = benchmark(experiment)

    print()
    print(
        render_table(
            ["alpha", "ManDyn time", "ManDyn GPU energy", "ManDyn EDP"],
            [
                [a, f"{t:.4f}", f"{e:.4f}", f"{t * e:.4f}"]
                for a, (t, e) in rows.items()
            ],
            title="power-exponent sensitivity of the headline result",
        )
    )

    for alpha, (t, e) in rows.items():
        # Time cost is alpha-independent (pure perf-model effect)...
        assert 1.0 < t < 1.05, alpha
        # ...and ManDyn saves energy for every plausible exponent.
        assert e < 0.97, alpha
        assert t * e < 0.99, alpha
    # Saving grows monotonically with alpha (steeper power curve).
    energies = [rows[a][1] for a in ALPHAS]
    assert energies == sorted(energies, reverse=True)
