"""Fig. 2 — best-EDP GPU frequency per SPH-EXA function (KernelTuner).

Reruns the paper's §III-C experiment: every SPH-EXA kernel at 450³
particles, swept over the supported clocks in the 1005-1410 MHz
window, best configuration selected by EDP. Compute-bound kernels
(MomentumEnergy, IADVelocityDivCurl) must tune to (near-)maximum
clocks; the lightweight kernels tune low.
"""

from __future__ import annotations

from repro import nvml
from repro.reporting import render_table
from repro.systems import Cluster, by_name
from repro.tuner import tune_all_sph_functions

PROBLEM_SIZE = 450**3


def bench_fig2_kerneltuner_frequencies(benchmark):
    def experiment():
        cluster = Cluster(by_name("miniHPC"), 1)
        try:
            handle = nvml.nvmlDeviceGetHandleByIndex(0)
            freqs = nvml.supported_clock_window_mhz(handle, 1005, 1410)
            # Every third bin keeps the sweep fast without changing the
            # sweet spots (15 MHz bins are much finer than the optima).
            freqs = freqs[::3]
            best = tune_all_sph_functions(
                cluster.gpus[0], PROBLEM_SIZE, freqs, iterations=3
            )
            return best, freqs
        finally:
            cluster.detach_management_library()

    best, freqs = benchmark(experiment)

    print()
    print(
        render_table(
            ["SPH-EXA function", "best-EDP frequency [MHz]"],
            sorted(best.items(), key=lambda kv: -kv[1]),
            title=(
                "Fig. 2: per-function GPU frequencies optimized for EDP "
                f"(Subsonic Turbulence, 450^3 particles, "
                f"{freqs[-1]:.0f}-{freqs[0]:.0f} MHz window)"
            ),
        )
    )

    assert best["MomentumEnergy"] == 1410.0
    assert best["IADVelocityDivCurl"] >= 1350.0
    for light in (
        "XMass",
        "NormalizationGradh",
        "EquationOfState",
        "DomainDecompAndSync",
        "FindNeighbors",
        "Timestep",
        "UpdateQuantities",
    ):
        assert best[light] <= 1110.0, light
