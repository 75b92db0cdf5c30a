"""Fig. 4 — energy consumption breakdown by device.

Subsonic Turbulence (150 M particles/GPU) and Evrard Collapse (80 M
particles/GPU) on 32 ranks, on LUMI-G and CSCS-A100. The GPUs must
dominate (paper: 74.3 % on LUMI-G, 76.4 % on CSCS-A100), 'Other' is the
second slice, and the 100-step-extrapolated totals must land near the
paper's 24.4 / 15.2 / 12.5 / 10.7 MJ.
"""

from __future__ import annotations

from repro.core import device_breakdown_percent
from repro.reporting import render_table
from repro.systems import by_name
from repro.units import megajoules

from _harness import BENCH_STEPS, run_simulation_with_cluster, to_paper_scale

RUNS = [
    # (label, system, workload, particles/GPU, paper MJ)
    ("LUMI-Turb", "LUMI-G", "SubsonicTurbulence", 150.0e6, 24.4),
    ("LUMI-Evr", "LUMI-G", "EvrardCollapse", 80.0e6, 15.2),
    ("CSCS-A100-Turb", "CSCS-A100", "SubsonicTurbulence", 150.0e6, 12.5),
    ("CSCS-A100-Evr", "CSCS-A100", "EvrardCollapse", 80.0e6, 10.7),
]

N_RANKS = 32


def bench_fig4_device_energy_breakdown(benchmark):
    def experiment():
        out = {}
        for label, system, workload, n_per_gpu, paper_mj in RUNS:
            result, cluster = run_simulation_with_cluster(
                by_name(system), N_RANKS, workload, n_per_gpu
            )
            breakdown = device_breakdown_percent(result.report)
            total_mj = megajoules(
                to_paper_scale(result.report.total_j(), BENCH_STEPS)
            )
            out[label] = (breakdown, total_mj, paper_mj)
        return out

    out = benchmark(experiment)

    rows = []
    for label, (breakdown, total_mj, paper_mj) in out.items():
        rows.append(
            [
                label,
                f"{breakdown['GPU']:.1f}",
                f"{breakdown['CPU']:.1f}",
                f"{breakdown['Memory']:.1f}",
                f"{breakdown['Other']:.1f}",
                f"{total_mj:.1f}",
                f"{paper_mj:.1f}",
            ]
        )
    print()
    print(
        render_table(
            ["run", "GPU %", "CPU %", "Memory %", "Other %",
             "total [MJ, 100 steps]", "paper [MJ]"],
            rows,
            title="Fig. 4: energy breakdown by device (32 ranks)",
        )
    )
    print(
        "note: on CSCS-A100 the paper's pm_counters expose no separate"
        " memory counter; its Memory column folds into 'Other' there."
    )

    for label, (breakdown, total_mj, paper_mj) in out.items():
        # GPU dominates, around the paper's ~74-76 %.
        assert 60.0 < breakdown["GPU"] < 88.0, label
        rest = {k: v for k, v in breakdown.items() if k != "GPU"}
        assert max(rest, key=rest.get) == "Other", label
        # Totals land within 2x of the paper's MJ (absolute numbers are
        # model-calibrated; the reproduction claims the shape).
        assert 0.5 < total_mj / paper_mj < 2.0, label
    # Ordering of the four totals matches the paper.
    totals = {label: v[1] for label, v in out.items()}
    assert (
        totals["LUMI-Turb"]
        > totals["LUMI-Evr"]
        > totals["CSCS-A100-Evr"] * 0.8
    )
    assert totals["CSCS-A100-Turb"] > totals["CSCS-A100-Evr"]
    assert totals["LUMI-Turb"] > totals["CSCS-A100-Turb"]
