"""Table I — simulation and computing system parameters.

Prints the simulation workload rows and the per-node hardware of the
three systems, straight from the presets the rest of the reproduction
runs on, and checks them against the published values.
"""

from __future__ import annotations

from repro.reporting import render_table
from repro.systems import by_name
from repro.units import to_mhz

#: The paper's workload rows (-n particle sweeps, -s 100).
SIMULATIONS = [
    (
        "Subsonic Turbulence",
        "-n 0.6|1.2|2.4|4.9|7.4|9.2|14.7 Billion particles -s 100",
        "150 million particles per GPU, 100 time-steps",
    ),
    (
        "Evrard Collapse",
        "-n 0.6|1.2|2.4|3.2|4.8|7.7 Billion particles -s 100",
        "80 million particles per GPU, 100 time-steps",
    ),
]


def bench_table1_systems(benchmark):
    def build():
        rows = []
        for name in ("LUMI-G", "CSCS-A100", "miniHPC"):
            system = by_name(name)
            gpu = system.gpu_spec
            cpu = system.cpu_spec
            rows.append(
                [
                    name,
                    f"{cpu.sockets}x {cpu.cores_per_socket}c {cpu.name}",
                    f"{system.ranks_per_node}x {gpu.name}",
                    f"{to_mhz(gpu.max_clock_hz):.0f} MHz",
                    f"{to_mhz(gpu.memory_clock_hz):.0f} MHz",
                ]
            )
        return rows

    rows = benchmark(build)

    print()
    print(
        render_table(
            ["Simulation", "Parameters", "Info"],
            SIMULATIONS,
            title="Table I (top): simulation parameters",
        )
    )
    print()
    print(
        render_table(
            ["System", "CPU", "GPUs / node", "GPU compute freq",
             "GPU memory freq"],
            rows,
            title="Table I (bottom): computing system parameters",
        )
    )

    by_system = {r[0]: r for r in rows}
    assert by_system["LUMI-G"][3] == "1700 MHz"
    assert by_system["LUMI-G"][4] == "1600 MHz"
    assert by_system["CSCS-A100"][3] == "1410 MHz"
    assert by_system["CSCS-A100"][4] == "1593 MHz"
    assert by_system["miniHPC"][3] == "1410 MHz"
    assert "MI250X" in by_system["LUMI-G"][2]
    assert "A100" in by_system["CSCS-A100"][2]
