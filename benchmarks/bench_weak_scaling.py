"""Weak scaling over the Table-I particle sweeps.

Table I lists the paper's production sweeps: Subsonic Turbulence from
0.6 to 14.7 *billion* particles at a fixed 150 M particles per GPU —
i.e. weak scaling. This bench runs the first points of that sweep
(4-32 ranks on CSCS-A100) and checks the weak-scaling contract the
paper's energy methodology relies on: time per step stays flat while
total energy grows linearly with the allocation, so per-GPU energy is
the meaningful unit (the paper's "per GPU" savings).
"""

from __future__ import annotations

import pytest

from repro.reporting import render_table
from repro.systems import by_name

from _harness import BENCH_STEPS, run_simulation

N_PER_GPU = 150.0e6
RANK_COUNTS = (4, 8, 16, 32)


def bench_weak_scaling(benchmark):
    def experiment():
        out = {}
        for ranks in RANK_COUNTS:
            res = run_simulation(
                by_name("CSCS-A100"), ranks, "SubsonicTurbulence", N_PER_GPU
            )
            out[ranks] = res
        return out

    out = benchmark(experiment)

    base = out[RANK_COUNTS[0]]
    rows = []
    for ranks, res in out.items():
        total_particles = ranks * N_PER_GPU
        rows.append(
            [
                ranks,
                f"{total_particles / 1e9:.2f}",
                f"{res.elapsed_s / BENCH_STEPS:.3f}",
                f"{res.gpu_energy_j / ranks / 1e3:.2f}",
                f"{res.elapsed_s / base.elapsed_s:.4f}",
            ]
        )
    print()
    print(
        render_table(
            ["ranks (GPUs)", "particles [1e9]", "time/step [s]",
             "GPU energy per GPU [kJ]", "time vs 4 ranks"],
            rows,
            title=(
                "weak scaling (Table I sweep head): 150 M particles/GPU, "
                "Subsonic Turbulence, CSCS-A100"
            ),
        )
    )

    # Weak-scaling contract: time per step within a few % across sizes
    # (only the log-depth collectives grow)...
    for ranks, res in out.items():
        assert res.elapsed_s / base.elapsed_s < 1.10, ranks
    # ...and per-GPU energy is size-independent.
    per_gpu = [res.gpu_energy_j / ranks for ranks, res in out.items()]
    assert max(per_gpu) / min(per_gpu) < 1.05
    # Total energy therefore grows ~linearly with the allocation.
    e4 = out[4].gpu_energy_j
    e32 = out[32].gpu_energy_j
    assert e32 == pytest.approx(8.0 * e4, rel=0.10)



