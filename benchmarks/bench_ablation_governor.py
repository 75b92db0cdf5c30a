"""Ablation — which governor behaviours make DVFS lose to ManDyn?

DESIGN.md §5 calls out two governor modelling choices behind Fig. 7's
"DVFS costs energy" result:

* the **voltage margin** the governor holds above its clock (fast-boost
  headroom), and
* the **launch-presence floor** (utilization over-estimation for
  lightweight launches, [25]).

This bench sweeps both and shows the paper's observation is robust:
with zero margin the governor becomes roughly energy-neutral, and the
presence floor controls how much the DomainDecomp-style launch bursts
over-clock.
"""

from __future__ import annotations

import dataclasses

from repro.core import DvfsPolicy, baseline_policy
from repro.reporting import render_table
from repro.systems import by_name
from repro.units import mhz, to_mhz

from _harness import run_simulation

N = 450**3
MARGINS_MHZ = (0.0, 75.0, 150.0, 225.0)
FLOORS = (0.35, 0.55, 0.75)


def _system_with_governor(margin_mhz: float, floor: float):
    system = by_name("miniHPC")
    base_gpu = system.gpu_spec
    governor = dataclasses.replace(
        base_gpu.governor,
        voltage_margin_hz=mhz(margin_mhz),
        launch_presence_floor=floor,
    )
    return dataclasses.replace(
        system, gpu_spec=dataclasses.replace(base_gpu, governor=governor)
    )


def bench_ablation_governor(benchmark):
    def experiment():
        base = run_simulation(
            by_name("miniHPC"), 1, "SubsonicTurbulence", N, baseline_policy(1410)
        )
        margin_rows = {}
        for margin in MARGINS_MHZ:
            res = run_simulation(
                _system_with_governor(margin, 0.55), 1,
                "SubsonicTurbulence", N, DvfsPolicy(),
            )
            margin_rows[margin] = (
                res.elapsed_s / base.elapsed_s,
                res.gpu_energy_j / base.gpu_energy_j,
            )
        floor_rows = {}
        for floor in FLOORS:
            res = run_simulation(
                _system_with_governor(150.0, floor), 1,
                "SubsonicTurbulence", N, DvfsPolicy(),
            )
            floor_rows[floor] = (
                res.elapsed_s / base.elapsed_s,
                res.gpu_energy_j / base.gpu_energy_j,
            )
        return margin_rows, floor_rows

    margin_rows, floor_rows = benchmark(experiment)

    print()
    print(
        render_table(
            ["voltage margin [MHz]", "time", "GPU energy"],
            [
                [m, f"{t:.4f}", f"{e:.4f}"]
                for m, (t, e) in margin_rows.items()
            ],
            title="DVFS vs pinned baseline: voltage-margin ablation",
        )
    )
    print()
    print(
        render_table(
            ["launch presence floor", "time", "GPU energy"],
            [
                [f, f"{t:.4f}", f"{e:.4f}"]
                for f, (t, e) in floor_rows.items()
            ],
            title="DVFS vs pinned baseline: presence-floor ablation",
        )
    )

    # Energy cost of DVFS grows with the held voltage margin.
    energies = [margin_rows[m][1] for m in MARGINS_MHZ]
    assert energies == sorted(energies)
    # Without any margin the governor is (about) energy-neutral...
    assert margin_rows[0.0][1] < 1.005
    # ...and with the calibrated margin it costs energy (the paper's
    # observation).
    assert margin_rows[150.0][1] > 1.0
    # The presence floor barely affects time (kernels boost anyway)...
    for f in FLOORS:
        assert abs(floor_rows[f][0] - 1.0) < 0.05
    # ...but a higher floor raises light-phase clocks and energy.
    assert floor_rows[0.75][1] >= floor_rows[0.35][1]
