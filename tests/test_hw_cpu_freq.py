"""CPU frequency scaling (--cpu-freq substrate)."""

import pytest

from repro.hardware import KernelLaunch, SimulatedCpu, VirtualClock
from repro.slurm import JobSpec, SlurmController
from repro.sph import run_instrumented
from repro.systems import Cluster, by_name


def test_cpu_clock_clamping():
    clk = VirtualClock()
    cpu = SimulatedCpu(by_name("CSCS-A100").cpu_spec, clk)
    assert cpu.frequency_khz == cpu.spec.nominal_freq_khz
    assert cpu.set_frequency_khz(1_800_000) == 1_800_000
    assert cpu.set_frequency_khz(100) == cpu.spec.min_freq_khz
    assert cpu.set_frequency_khz(9_999_999) == cpu.spec.nominal_freq_khz


def test_downclocking_reduces_cpu_power():
    clk = VirtualClock()
    cpu = SimulatedCpu(by_name("CSCS-A100").cpu_spec, clk)
    p_nominal = cpu.power_w()
    cpu.set_frequency_khz(1_500_000)
    assert cpu.power_w() < p_nominal
    # Dynamic power shrinks superlinearly, idle sublinearly.
    cpu.set_activity(0.9)
    p_low_active = cpu.power_w()
    cpu.set_frequency_khz(cpu.spec.nominal_freq_khz)
    assert cpu.power_w() > p_low_active


def test_slowdown_factor():
    clk = VirtualClock()
    cpu = SimulatedCpu(by_name("CSCS-A100").cpu_spec, clk)
    assert cpu.slowdown_factor == pytest.approx(1.0)
    cpu.set_frequency_khz(cpu.spec.nominal_freq_khz // 2)
    assert cpu.slowdown_factor == pytest.approx(
        cpu.spec.nominal_freq_khz / cpu.frequency_khz
    )
    assert cpu.slowdown_factor > 1.0


def test_cpu_freq_applies_through_slurm():
    cluster = Cluster(by_name("CSCS-A100"), 4)
    controller = SlurmController()

    def app(cl, job):
        cl.gpus[0].execute(KernelLaunch("K", 1e11, 0.0, 1.0))
        cl.comm.barrier()
        return None

    try:
        controller.submit(
            JobSpec(name="cf", n_nodes=1, n_tasks=4, cpu_freq_khz=1_800_000),
            cluster,
            app,
        )
        assert cluster.nodes[0].cpu.frequency_khz == 1_800_000
    finally:
        cluster.detach_management_library()


def test_cpu_downclock_slows_host_phases_only():
    def run(freq_khz):
        cluster = Cluster(by_name("CSCS-A100"), 4)
        try:
            if freq_khz:
                cluster.apply_cpu_frequency_khz(freq_khz)
            return run_instrumented(
                cluster, "SubsonicTurbulence", 150e6, 2
            )
        finally:
            cluster.detach_management_library()

    base = run(None)
    slow = run(1_500_000)
    # Host phases (Timestep tail) slow by the clock ratio; the GPU
    # phases are untouched, so the total moves by far less.
    assert slow.elapsed_s > base.elapsed_s
    assert slow.elapsed_s < 1.05 * base.elapsed_s
    assert slow.gpu_energy_j == pytest.approx(base.gpu_energy_j, rel=0.02)
