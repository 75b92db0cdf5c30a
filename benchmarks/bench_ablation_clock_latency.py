"""Ablation — how expensive may a clock change be before ManDyn loses?

ManDyn issues ``nvmlDeviceSetApplicationsClocks`` twice per step
(into and out of the compute-bound kernel block). The call costs real
time on real drivers; this bench sweeps the modelled latency and
locates the break-even point against the pinned baseline's EDP. At the
calibrated 3 ms the overhead is negligible — the design reason ManDyn
instruments *functions* rather than individual kernel launches (which
would multiply the switch count by orders of magnitude).
"""

from __future__ import annotations

from repro.core import ManDynPolicy, baseline_policy
from repro.hardware.gpu import SimulatedGpu
from repro.reporting import render_table
from repro.systems import by_name

from _harness import run_simulation

N = 450**3
LATENCIES_S = (0.0, 0.003, 0.030, 0.150, 0.600)

MANDYN = {
    "MomentumEnergy": 1410.0,
    "IADVelocityDivCurl": 1410.0,
}


def bench_ablation_clock_latency(benchmark):
    def experiment():
        original = SimulatedGpu.CLOCK_SET_LATENCY_S
        rows = {}
        try:
            base = run_simulation(
                by_name("miniHPC"), 1, "SubsonicTurbulence", N,
                baseline_policy(1410),
            )
            for latency in LATENCIES_S:
                SimulatedGpu.CLOCK_SET_LATENCY_S = latency
                res = run_simulation(
                    by_name("miniHPC"), 1, "SubsonicTurbulence", N,
                    ManDynPolicy(MANDYN, default_mhz=1005.0),
                )
                rows[latency] = (
                    res.elapsed_s / base.elapsed_s,
                    res.gpu_energy_j / base.gpu_energy_j,
                    res.clock_set_calls,
                )
        finally:
            SimulatedGpu.CLOCK_SET_LATENCY_S = original
        return rows

    rows = benchmark(experiment)

    print()
    print(
        render_table(
            ["clock-set latency [ms]", "time", "GPU energy", "EDP",
             "switches"],
            [
                [f"{lat * 1e3:.0f}", f"{t:.4f}", f"{e:.4f}",
                 f"{t * e:.4f}", calls]
                for lat, (t, e, calls) in rows.items()
            ],
            title="ManDyn vs baseline under clock-change latency",
        )
    )

    # At the calibrated latency ManDyn clearly wins EDP.
    t, e, _ = rows[0.003]
    assert t * e < 0.97
    # The win degrades monotonically with latency...
    edps = [rows[lat][0] * rows[lat][1] for lat in LATENCIES_S]
    assert edps == sorted(edps)
    # ...and an absurd 600 ms per change erases (or nearly erases) it.
    t_bad, e_bad, _ = rows[0.600]
    assert t_bad * e_bad > 0.99
    # Zero-latency differs from 3 ms by well under a percent: switch
    # overhead is not where ManDyn's cost comes from.
    assert abs(edps[1] - edps[0]) < 0.01
