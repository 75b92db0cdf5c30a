"""PMT interface and backends (NVML, ROCm, RAPL wrap-around, Cray, dummy)."""

import pytest

from repro import nvml, pmt, rocm
from repro.craypm import PmCounters
from repro.hardware import (
    ComputeNode,
    KernelLaunch,
    NodePowerSpec,
    SimulatedCpu,
    SimulatedGpu,
    VirtualClock,
)
from repro.pmt import PMT, RaplPMT, State, create
from repro.pmt.rapl_backend import RAPL_ENERGY_UNIT_J
from repro.systems import by_name


def test_state_diff_helpers():
    a = State(timestamp_s=1.0, joules=100.0)
    b = State(timestamp_s=3.0, joules=400.0)
    assert PMT.seconds(a, b) == 2.0
    assert PMT.joules(a, b) == 300.0
    assert PMT.watts(a, b) == 150.0
    assert PMT.watts(a, a) == 0.0


def test_create_unknown_platform():
    with pytest.raises(ValueError):
        create("quantum")


def test_dummy_backend_zero_but_timed():
    clk = VirtualClock()
    sensor = create("dummy", clock=clk)
    s0 = sensor.read()
    clk.advance(2.0)
    s1 = sensor.read()
    assert PMT.seconds(s0, s1) == 2.0
    assert PMT.joules(s0, s1) == 0.0


def test_nvml_backend_measures_kernel():
    clk = VirtualClock()
    gpu = SimulatedGpu(by_name("CSCS-A100").gpu_spec, clk)
    nvml.attach_devices([gpu])
    sensor = create("nvml", device_index=0)
    begin = sensor.read()
    gpu.execute(KernelLaunch("K", 1e12, 0.0, 1.0))
    end = sensor.read()
    assert PMT.joules(begin, end) == pytest.approx(gpu.energy_j, rel=1e-3)
    assert PMT.seconds(begin, end) > 0


def test_nvml_backend_measure_context():
    clk = VirtualClock()
    gpu = SimulatedGpu(by_name("CSCS-A100").gpu_spec, clk)
    nvml.attach_devices([gpu])
    sensor = create("nvml", device_index=0)
    with sensor.measure() as m:
        gpu.execute(KernelLaunch("K", 1e12, 0.0, 1.0))
    assert m.joules > 0
    assert m.watts == pytest.approx(m.joules / m.seconds)


def test_rocm_backend_card_share():
    clk = VirtualClock()
    gcds = [SimulatedGpu(by_name("LUMI-G").gpu_spec, clk, index=i) for i in range(2)]
    rocm.attach_devices(gcds)
    raw = create("rocm", device_index=0)
    shared = create("rocm", device_index=0, card_share=True)
    gcds[0].execute(KernelLaunch("K", 1e12, 0.0, 1.0))
    assert raw.read().joules == pytest.approx(2.0 * shared.read().joules)


def test_rapl_backend_unwraps_counter():
    clk = VirtualClock()
    cpu = SimulatedCpu(by_name("CSCS-A100").cpu_spec, clk)
    sensor = RaplPMT(cpu)
    # One wrap is ~65.5 kJ; at ~110 W idle-ish that's ~600 s. Advance
    # in sub-wrap chunks past several wraps and check continuity.
    total_expected = 0.0
    last = sensor.read()
    for _ in range(30):
        clk.advance(100.0)
        now = sensor.read()
        delta = PMT.joules(last, now)
        assert delta >= 0.0
        total_expected += delta
        last = now
    assert total_expected == pytest.approx(cpu.energy_j, abs=1.0)
    assert cpu.energy_j > sensor.wrap_joules  # we actually wrapped


def test_rapl_raw_counter_wraps():
    clk = VirtualClock()
    cpu = SimulatedCpu(by_name("CSCS-A100").cpu_spec, clk)
    from repro.pmt.rapl_backend import RAPL_COUNTER_WRAP, RaplCounter

    counter = RaplCounter(cpu)
    clk.advance(1000.0)
    assert 0 <= counter.read_raw() < RAPL_COUNTER_WRAP


def test_likwid_alias_is_rapl():
    clk = VirtualClock()
    cpu = SimulatedCpu(by_name("CSCS-A100").cpu_spec, clk)
    sensor = create("likwid", cpu=cpu)
    assert isinstance(sensor, RaplPMT)


def test_cray_backend_reads_pm_counters():
    clk = VirtualClock()
    gpus = [SimulatedGpu(by_name("CSCS-A100").gpu_spec, clk)]
    node = ComputeNode("n0", clk, by_name("CSCS-A100").cpu_spec, NodePowerSpec(75, 235), gpus)
    pm = PmCounters(node)
    sensor = create("cray", counters=pm, counter="energy", clock=clk)
    s0 = sensor.read()
    clk.advance(1.0)
    s1 = sensor.read()
    assert PMT.joules(s0, s1) > 0


def test_cray_backend_invalid_counter():
    clk = VirtualClock()
    gpus = [SimulatedGpu(by_name("CSCS-A100").gpu_spec, clk)]
    node = ComputeNode("n0", clk, by_name("CSCS-A100").cpu_spec, NodePowerSpec(75, 235), gpus)
    pm = PmCounters(node)
    with pytest.raises(FileNotFoundError):
        create("cray", counters=pm, counter="bogus_energy", clock=clk)
