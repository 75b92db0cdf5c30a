"""ComputeNode and SimulatedCpu accounting."""

import pytest

from repro.hardware import (
    ComputeNode,
    KernelLaunch,
    NodePowerSpec,
    SimulatedCpu,
    SimulatedGpu,
    VirtualClock,
)
from repro.systems import by_name


def _node(n_gpus=2):
    clk = VirtualClock()
    spec = by_name("CSCS-A100").gpu_spec
    gpus = [SimulatedGpu(spec, clk, index=i) for i in range(n_gpus)]
    node = ComputeNode(
        "node0", clk, by_name("CSCS-A100").cpu_spec, NodePowerSpec(75.0, 235.0), gpus
    )
    return clk, node


def test_cpu_energy_accrues_with_time():
    clk = VirtualClock()
    cpu = SimulatedCpu(by_name("CSCS-A100").cpu_spec, clk)
    clk.advance(10.0)
    assert cpu.energy_j == pytest.approx(cpu.power_w() * 10.0)


def test_cpu_activity_changes_power():
    clk = VirtualClock()
    cpu = SimulatedCpu(by_name("CSCS-A100").cpu_spec, clk)
    low = cpu.power_w()
    cpu.set_activity(0.9)
    assert cpu.power_w() > low
    with pytest.raises(ValueError):
        cpu.set_activity(1.5)


def test_node_energy_is_sum_of_components():
    clk, node = _node()
    k = KernelLaunch("K", 1e12, 1e11, 1.0)
    node.gpus[0].execute(k)
    total = (
        node.cpu_energy_j
        + node.memory_energy_j
        + node.aux_energy_j
        + node.gpu_energy_j
    )
    assert node.node_energy_j == pytest.approx(total)
    assert node.node_energy_j > 0


def test_memory_and_aux_power_are_constant_draws():
    clk, node = _node()
    clk.advance(4.0)
    assert node.memory_energy_j == pytest.approx(75.0 * 4.0)
    assert node.aux_energy_j == pytest.approx(235.0 * 4.0)


def test_accel_energy_per_card_single_gcd():
    clk, node = _node(n_gpus=2)
    assert node.num_cards == 2
    node.gpus[0].execute(KernelLaunch("K", 1e12, 0.0, 1.0))
    assert node.accel_energy_j(0) > node.accel_energy_j(1)


def test_mi250x_cards_group_two_gcds():
    clk = VirtualClock()
    gpus = [SimulatedGpu(by_name("LUMI-G").gpu_spec, clk, index=i) for i in range(8)]
    node = ComputeNode(
        "lumi0", clk, by_name("CSCS-A100").cpu_spec, NodePowerSpec(150.0, 350.0), gpus
    )
    assert node.num_cards == 4
    assert node.gcds_per_card == 2
    gpus[0].execute(KernelLaunch("K", 1e12, 0.0, 1.0))
    # Card 0 holds GCDs 0 and 1: its counter includes both.
    assert node.accel_energy_j(0) == pytest.approx(
        gpus[0].energy_j + gpus[1].energy_j
    )


def test_partial_trailing_card_allowed():
    # An allocation may use only one GCD of the last MI250X card.
    clk = VirtualClock()
    gpus = [SimulatedGpu(by_name("LUMI-G").gpu_spec, clk, index=i) for i in range(3)]
    node = ComputeNode(
        "partial", clk, by_name("CSCS-A100").cpu_spec, NodePowerSpec(1.0, 1.0), gpus
    )
    assert node.num_cards == 2
    assert len(node.card_gpus(1)) == 1
    clk.advance(1.0)
    assert node.accel_energy_j(1) == pytest.approx(gpus[2].energy_j)


def test_empty_node_rejected():
    clk = VirtualClock()
    with pytest.raises(ValueError):
        ComputeNode("bad", clk, by_name("CSCS-A100").cpu_spec, NodePowerSpec(1.0, 1.0), [])


def test_card_index_bounds():
    clk, node = _node()
    with pytest.raises(IndexError):
        node.accel_energy_j(5)


def test_device_breakdown_keys():
    clk, node = _node()
    clk.advance(1.0)
    breakdown = node.device_energy_breakdown_j()
    assert set(breakdown) == {"GPU", "CPU", "Memory", "Other"}
    assert all(v >= 0 for v in breakdown.values())
