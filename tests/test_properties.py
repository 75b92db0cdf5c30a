"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import Metrics, StaticFrequencyPolicy, energy_delay_product
from repro.hardware import (
    GpuPerfModel,
    GpuPowerModel,
    KernelLaunch,
    SimulatedGpu,
    VirtualClock,
)
from repro.sph import WorkloadModel
from repro.systems import by_name
from repro.units import mhz

SPEC = by_name("CSCS-A100").gpu_spec

clock_mhz = st.sampled_from(
    [round(c / 1e6) for c in SPEC.supported_clocks_hz()]
)
work = st.tuples(
    st.floats(min_value=1e8, max_value=1e13),  # flops
    st.floats(min_value=1e7, max_value=1e12),  # bytes
    st.floats(min_value=0.05, max_value=1.0),  # intensity
)


@given(work, clock_mhz)
@settings(max_examples=60, deadline=None)
def test_energy_is_power_times_time(w, f):
    """For any kernel at any pinned clock, E = integral of P dt exactly."""
    flops, nbytes, intensity = w
    gpu = SimulatedGpu(SPEC, VirtualClock())
    gpu.set_application_clocks(SPEC.memory_clock_hz, mhz(f), charge_latency=False)
    e0, t0 = gpu.energy_j, gpu.clock.now
    gpu.execute(KernelLaunch("K", flops, nbytes, intensity))
    dt = gpu.clock.now - t0
    power = GpuPowerModel(SPEC).busy_power_w(gpu.current_clock_hz, intensity)
    assert gpu.energy_j - e0 == pytest.approx(power * dt, rel=1e-9)


@given(work)
@settings(max_examples=40, deadline=None)
def test_downclocking_never_speeds_up_and_never_costs_energy(w):
    """Monotonicity: lower clock => time up (weakly), energy down (weakly)
    for any single kernel (idle power is small vs dynamic here)."""
    flops, nbytes, intensity = w
    assume(intensity >= 0.3)  # very light kernels can invert energy
    perf = GpuPerfModel(SPEC)
    power = GpuPowerModel(SPEC)
    k = KernelLaunch("K", flops, nbytes, intensity)
    prev_t, prev_e = None, None
    for f in (1410, 1290, 1170, 1050):
        t = perf.duration(k, mhz(f))
        e = power.busy_power_w(mhz(f), intensity) * t
        if prev_t is not None:
            assert t >= prev_t
            # Energy monotone when dynamic power dominates the idle floor.
            kappa = perf.compute_fraction(k, mhz(f))
            if intensity >= 0.5 or kappa < 0.5:
                assert e <= prev_e * 1.001
        prev_t, prev_e = t, e


@given(
    st.floats(min_value=1e-3, max_value=1e4),
    st.floats(min_value=1e-3, max_value=1e7),
)
@settings(max_examples=50)
def test_edp_normalization_identity(t, e):
    m = Metrics(time_s=t, energy_j=e)
    norm = m.normalized_to(m)
    assert norm.time == pytest.approx(1.0)
    assert norm.energy == pytest.approx(1.0)
    assert norm.edp == pytest.approx(1.0)
    assert energy_delay_product(e, t) == pytest.approx(m.edp)


@given(
    st.floats(min_value=1e4, max_value=2e8),
    st.floats(min_value=10.0, max_value=400.0),
)
@settings(max_examples=40, deadline=None)
def test_workload_total_nominal_time_is_particle_linear(n, neighbors):
    """Whole-step nominal work scales linearly in N at fixed neighbors."""
    a = WorkloadModel(n, neighbors)
    b = WorkloadModel(2.0 * n, neighbors)

    def nominal(model):
        total = 0.0
        for fn in model.order:
            for launch in model.launches_for(fn):
                total += launch.flops / 9.7e12 + launch.bytes_moved / 2e12
        return total

    assert nominal(b) == pytest.approx(2.0 * nominal(a), rel=1e-6)


@given(st.floats(min_value=100.0, max_value=2000.0))
@settings(max_examples=50)
def test_static_policy_names_and_values(freq):
    policy = StaticFrequencyPolicy(freq)
    assert policy.initial_mode() == freq
    assert policy.frequency_for("anything") is None
    assert f"{freq:.0f}" in policy.name


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_governor_estimate_stays_bounded(signals):
    from repro.hardware import DvfsGovernor

    gov = DvfsGovernor(SPEC)
    for s in signals:
        gov.note_launch(s)
        gov.observe_busy(0.005, s)
        assert 0.0 <= gov.utilization_estimate <= 1.0
        assert (
            SPEC.governor.idle_clock_hz
            <= gov.clock_hz
            <= SPEC.max_clock_hz
        )
        assert gov.clock_hz in SPEC.supported_clocks_hz()


@given(st.lists(st.floats(min_value=1e-4, max_value=10.0), min_size=1, max_size=40))
@settings(max_examples=30, deadline=None)
def test_gpu_energy_monotone_over_time(dts):
    gpu = SimulatedGpu(SPEC, VirtualClock())
    last = gpu.energy_j
    for dt in dts:
        gpu.clock.advance(dt)
        assert gpu.energy_j >= last
        last = gpu.energy_j


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=100))
@settings(max_examples=30, deadline=None)
def test_comm_allreduce_is_deterministic_and_rank_symmetric(n, seed):
    from repro.hardware import VirtualClock as VC
    from repro.mpi import SimComm

    rng = np.random.default_rng(seed)
    values = list(rng.uniform(0, 1, size=n))
    a = SimComm([VC() for _ in range(n)]).allreduce(list(values))
    b = SimComm([VC() for _ in range(n)]).allreduce(list(values))
    assert a == b
    assert a == pytest.approx(sum(values))
