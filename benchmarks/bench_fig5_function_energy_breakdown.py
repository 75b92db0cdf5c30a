"""Fig. 5 — energy consumption breakdown by SPH-EXA function.

Per-function share of the GPU (and CPU) energy for Turbulence and
Evrard on both large systems, 32 ranks. Shape targets from the paper:
MomentumEnergy's GPU share is much larger on LUMI-G (45.80 %) than on
CSCS-A100 (25.29 %) — the AMD-optimization gap — and the Evrard runs
show an additional Gravity slice. CPU energy per function tracks the
function's wall time.
"""

from __future__ import annotations

from repro.core import function_share_percent, per_function_metrics
from repro.reporting import render_table
from repro.systems import by_name

from _harness import run_simulation

RUNS = [
    ("LUMI-Turb", "LUMI-G", "SubsonicTurbulence", 150.0e6),
    ("LUMI-Evr", "LUMI-G", "EvrardCollapse", 80.0e6),
    ("CSCS-A100-Turb", "CSCS-A100", "SubsonicTurbulence", 150.0e6),
    ("CSCS-A100-Evr", "CSCS-A100", "EvrardCollapse", 80.0e6),
]

N_RANKS = 32


def bench_fig5_function_energy_breakdown(benchmark):
    def experiment():
        out = {}
        for label, system, workload, n_per_gpu in RUNS:
            result = run_simulation(by_name(system), N_RANKS, workload, n_per_gpu)
            out[label] = result.report
        return out

    reports = benchmark(experiment)

    functions = sorted(
        {fn for rep in reports.values()
         for fn in rep.aggregate_functions()}
    )
    for device in ("GPU", "CPU"):
        rows = []
        shares = {
            label: function_share_percent(rep, device)
            for label, rep in reports.items()
        }
        for fn in functions:
            rows.append(
                [fn] + [f"{shares[label].get(fn, 0.0):.2f}"
                        for label in reports]
            )
        print()
        print(
            render_table(
                ["function"] + list(reports),
                rows,
                title=f"Fig. 5: {device} energy share per function [%]",
            )
        )

    gpu_shares = {
        label: function_share_percent(rep, "GPU")
        for label, rep in reports.items()
    }
    # MomentumEnergy share: LUMI-G much larger than CSCS-A100 (paper:
    # 45.80 % vs 25.29 % for the turbulence runs).
    assert (
        gpu_shares["LUMI-Turb"]["MomentumEnergy"]
        > gpu_shares["CSCS-A100-Turb"]["MomentumEnergy"] + 10.0
    )
    assert gpu_shares["LUMI-Turb"]["MomentumEnergy"] > 40.0
    # Evrard adds a Gravity slice; Turbulence has none.
    assert "Gravity" not in gpu_shares["LUMI-Turb"]
    assert gpu_shares["LUMI-Evr"].get("Gravity", 0.0) > 5.0
    assert gpu_shares["CSCS-A100-Evr"].get("Gravity", 0.0) > 5.0
    # The functions that consume the most GPU energy also consume the
    # most CPU energy (CPU burn is time-proportional, section IV-B).
    for label, rep in reports.items():
        metrics = per_function_metrics(rep, device="CPU")
        times = {fn: m.time_s for fn, m in metrics.items()}
        cpu_shares = function_share_percent(rep, "CPU")
        top_by_time = max(times, key=times.get)
        top_by_cpu = max(cpu_shares, key=cpu_shares.get)
        assert top_by_time == top_by_cpu, label
