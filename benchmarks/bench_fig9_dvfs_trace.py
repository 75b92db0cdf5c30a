"""Fig. 9 — frequencies chosen by DVFS during the simulation.

Runs 10 time-steps of Subsonic Turbulence (450³ particles) on a single
A100 under governor control, recording the device clock over time.
Shape targets (paper §IV-E): per step, the clock climbs to the 1410 MHz
maximum during MomentumEnergy and above 1350 MHz during
IADVelocityDivCurl; the kernels in between sit at 1300-1350 MHz; the
lightweight-launch burst of DomainDecompAndSync holds ~1200 MHz; the
end-of-step collective lets the clock dip below 1000 MHz.
"""

from __future__ import annotations

import numpy as np

from repro.core import DvfsPolicy
from repro.reporting import render_table
from repro.systems import Cluster, by_name
from repro.sph import Simulation

N = 450**3
STEPS = 10


def bench_fig9_dvfs_trace(benchmark):
    def experiment():
        cluster = Cluster(by_name("miniHPC"), 1)
        try:
            sim = Simulation(
                cluster, "SubsonicTurbulence", N, policy=DvfsPolicy()
            )
            sim.initialize()
            gpu = cluster.gpus[0]
            gpu.start_frequency_trace()

            # Record the clock level at the end of each function, per step.
            per_function = {fn.name: [] for fn in sim.functions}
            sim.profiler.open_window()
            for _ in range(STEPS):
                for fn in sim.functions:
                    sim._run_function(fn)
                    per_function[fn.name].append(
                        gpu.current_clock_hz / 1e6
                    )
            sim.profiler.close_window()
            trace = gpu.stop_frequency_trace()
            return per_function, trace
        finally:
            cluster.detach_management_library()

    per_function, trace = benchmark(experiment)

    rows = [
        [fn, f"{np.mean(clocks):.0f}", f"{np.min(clocks):.0f}",
         f"{np.max(clocks):.0f}"]
        for fn, clocks in per_function.items()
    ]
    print()
    print(
        render_table(
            ["function", "mean clock [MHz]", "min", "max"],
            rows,
            title=(
                "Fig. 9: DVFS-selected clock at the end of each function "
                f"({STEPS} time-steps, single A100)"
            ),
        )
    )
    freqs_mhz = np.array([f for _, f in trace]) / 1e6
    print(
        f"trace: {len(trace)} clock events, "
        f"min {freqs_mhz.min():.0f} MHz, max {freqs_mhz.max():.0f} MHz"
    )
    # Render two time-steps of the sawtooth, as the paper's plot does.
    from repro.reporting import line_chart

    t_start = trace[0][0]
    step_span = (trace[-1][0] - t_start) / STEPS
    window = [
        (t - t_start, f / 1e6)
        for t, f in trace
        if t - t_start <= 2.0 * step_span
    ]
    print()
    print(
        line_chart(
            window,
            title="device clock over the first two time-steps",
            y_label="MHz",
            x_label="simulated time [s]",
        )
    )

    mean = {fn: float(np.mean(v)) for fn, v in per_function.items()}
    # MomentumEnergy boosts the clock to the maximum...
    assert mean["MomentumEnergy"] == 1410.0
    # ...IADVelocityDivCurl above 1350 MHz...
    assert mean["IADVelocityDivCurl"] > 1350.0
    # ...DomainDecompAndSync's lightweight launches hold ~1200 MHz...
    assert 1100.0 <= mean["DomainDecompAndSync"] <= 1300.0
    # ...and the end-of-step collective dips below 1000 MHz.
    assert mean["Timestep"] < 1000.0
    # The full trace spans the whole sawtooth.
    assert freqs_mhz.max() == 1410.0
    assert freqs_mhz.min() < 1000.0
    # The sawtooth repeats every step: the max is reached in all steps.
    assert all(c == 1410.0 for c in per_function["MomentumEnergy"])
