"""pm_counters emulation: 10 Hz publish, staleness, file formats."""

import os

import pytest

from repro.craypm import PUBLISH_PERIOD_S, PmCounters
from repro.hardware import (
    ComputeNode,
    KernelLaunch,
    NodePowerSpec,
    SimulatedGpu,
    VirtualClock,
)
from repro.systems import by_name


def _setup(n_gpus=1, system="CSCS-A100", export_dir=None):
    clk = VirtualClock()
    spec = by_name(system).gpu_spec
    gpus = [SimulatedGpu(spec, clk, index=i) for i in range(n_gpus)]
    node = ComputeNode(
        "n0", clk, by_name("CSCS-A100").cpu_spec, NodePowerSpec(75.0, 235.0),
        gpus,
    )
    pm = PmCounters(node, export_dir=export_dir)
    return clk, node, pm


def test_counters_publish_at_10hz():
    clk, node, pm = _setup()
    assert pm.freshness == 0
    clk.advance(1.0)
    assert pm.freshness == 10


def test_reading_between_ticks_is_stale():
    clk, node, pm = _setup()
    clk.advance(0.25)
    # Last publish was at t=0.2; energy at 0.25 > published value.
    published = pm.read_energy_j("energy")
    assert published < node.node_energy_j
    assert published == pytest.approx(
        node.node_energy_j * (0.2 / 0.25), rel=1e-6
    )


def test_interpolation_is_exact_for_constant_power():
    clk, node, pm = _setup()
    clk.advance(0.5)  # exactly 5 ticks
    assert pm.read_energy_j("energy") == pytest.approx(
        node.node_energy_j, rel=1e-9
    )


def test_counter_set_includes_cpu_memory_accel():
    clk, node, pm = _setup(n_gpus=2)
    clk.advance(0.3)
    for name in ("energy", "cpu_energy", "memory_energy", "accel0_energy",
                 "accel1_energy"):
        assert pm.read_energy_j(name) >= 0.0


def test_accel_counter_is_per_card_on_mi250x():
    clk, node, pm = _setup(n_gpus=4, system="LUMI-G")
    node.gpus[0].execute(KernelLaunch("K", 1e12, 0.0, 1.0))
    clk.advance(0.2)
    card0 = pm.read_energy_j("accel0_energy")
    assert card0 == pytest.approx(
        node.gpus[0].energy_j + node.gpus[1].energy_j, rel=0.05
    )
    assert "accel2_energy" not in ""  # 4 GCDs -> 2 cards only
    with pytest.raises(FileNotFoundError):
        pm.read_energy_j("accel2_energy")


def test_power_files_report_average_over_tick():
    clk, node, pm = _setup()
    clk.advance(0.2)
    power = pm.read_power_w("power")
    # Node draws cpu idle-ish + memory + aux + gpu idle.
    expected = (
        node.cpu.power_w() + 75.0 + 235.0 + node.gpus[0].power_w()
    )
    assert power == pytest.approx(expected, rel=0.05)


def test_unknown_counter_file_raises():
    clk, node, pm = _setup()
    with pytest.raises(FileNotFoundError):
        pm.read_energy_j("nonsense")
    with pytest.raises(FileNotFoundError):
        pm.read_file("nonsense")


def test_file_format_cray_style():
    clk, node, pm = _setup()
    clk.advance(0.2)
    content = pm.read_file("energy")
    value, unit, ts = content.split()
    assert unit == "J"
    assert int(value) >= 0
    assert int(ts) == int(0.2 * 1e6)
    assert pm.read_file("version") == "1"
    assert int(pm.read_file("freshness")) == 2


def test_export_to_disk(tmp_path):
    export = str(tmp_path / "pm_counters")
    clk, node, pm = _setup(export_dir=export)
    clk.advance(0.2)
    files = os.listdir(export)
    assert "energy" in files and "cpu_energy" in files
    with open(os.path.join(export, "energy")) as fh:
        assert fh.read().strip().endswith(str(int(0.2 * 1e6)))


def test_files_listing():
    clk, node, pm = _setup(n_gpus=2)
    names = pm.files()
    assert "accel1_power" in names
    assert "generation" in names
