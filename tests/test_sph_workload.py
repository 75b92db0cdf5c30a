"""Workload model: costs, utilization behaviour, function ordering."""

import pytest
from hypothesis import given, strategies as st

from repro.hardware import GpuPerfModel
from repro.sph import (
    FULL_UTILIZATION_PARTICLES,
    WorkloadModel,
    function_names,
    max_particles_per_gpu,
)
from repro.systems import by_name
from repro.units import GIB, mhz


def test_function_order_matches_paper_loop():
    names = function_names()
    assert names[0] == "DomainDecompAndSync"
    assert names[-1] == "UpdateQuantities"
    assert names.index("IADVelocityDivCurl") < names.index("MomentumEnergy")
    assert "Gravity" not in names
    withg = function_names(with_gravity=True)
    assert withg.index("Gravity") == withg.index("MomentumEnergy") - 1


def test_momentum_energy_dominates_step_time():
    model = WorkloadModel(91e6)
    perf = GpuPerfModel(by_name("miniHPC").gpu_spec)
    f = by_name("miniHPC").gpu_spec.max_clock_hz
    times = {
        fn: sum(perf.duration(l, f) for l in model.launches_for(fn))
        for fn in model.order
    }
    total = sum(times.values())
    assert times["MomentumEnergy"] == max(times.values())
    assert 0.25 < times["MomentumEnergy"] / total < 0.55
    assert times["IADVelocityDivCurl"] / total > 0.1


def test_momentum_energy_is_compute_bound_lights_are_not():
    model = WorkloadModel(91e6)
    perf = GpuPerfModel(by_name("miniHPC").gpu_spec)
    f = by_name("miniHPC").gpu_spec.max_clock_hz

    def kappa(fn):
        launch = model.launches_for(fn)[0]
        return perf.compute_fraction(launch, f)

    assert kappa("MomentumEnergy") > 0.7
    assert kappa("IADVelocityDivCurl") > 0.55
    assert kappa("XMass") < 0.3
    assert kappa("NormalizationGradh") < 0.3
    assert kappa("DomainDecompAndSync") < 0.2


def test_neighbor_scaling_applies_to_pair_kernels_only():
    base = WorkloadModel(1e6, mean_neighbors=100.0)
    dense = base.with_neighbors(200.0)
    mom_base = base.launches_for("MomentumEnergy")[0]
    mom_dense = dense.launches_for("MomentumEnergy")[0]
    assert mom_dense.flops == pytest.approx(2.0 * mom_base.flops)
    ts_base = base.launches_for("Timestep")[0]
    ts_dense = dense.launches_for("Timestep")[0]
    assert ts_dense.flops == pytest.approx(ts_base.flops)


def test_domain_decomp_is_many_lightweight_launches():
    model = WorkloadModel(91e6)
    launches = model.launches_for("DomainDecompAndSync")
    assert len(launches) == 40
    assert all(l.launch_overhead > 0 for l in launches)
    single = model.launches_for("MomentumEnergy")
    assert len(single) == 1


def test_underutilized_problem_becomes_latency_bound():
    full = WorkloadModel(FULL_UTILIZATION_PARTICLES)
    small = WorkloadModel(8e6)  # 200^3
    assert small.utilization < 1.0
    assert full.utilization == 1.0
    l_small = small.launches_for("MomentumEnergy")[0]
    l_full = full.launches_for("MomentumEnergy")[0]
    # Compute work shifts into clock-independent memory-latency time.
    assert l_small.flops / 8e6 < l_full.flops / FULL_UTILIZATION_PARTICLES
    assert (
        l_small.bytes_moved / 8e6
        > l_full.bytes_moved / FULL_UTILIZATION_PARTICLES
    )
    # And power intensity drops.
    assert l_small.power_intensity < l_full.power_intensity
    # Net effect: frequency sensitivity (kappa) falls.
    perf = GpuPerfModel(by_name("miniHPC").gpu_spec)
    f_max = by_name("miniHPC").gpu_spec.max_clock_hz
    assert perf.compute_fraction(l_small, f_max) < perf.compute_fraction(
        l_full, f_max
    )


def test_gravity_only_in_evrard_workload():
    turb = WorkloadModel(91e6, with_gravity=False)
    evr = WorkloadModel(91e6, with_gravity=True)
    with pytest.raises(KeyError):
        turb.launches_for("Gravity")
    assert evr.launches_for("Gravity")[0].power_intensity > 0.9


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        WorkloadModel(0)
    with pytest.raises(ValueError):
        WorkloadModel(100, mean_neighbors=0)


def test_max_particles_per_gpu_memory_cap():
    cap_40gb = max_particles_per_gpu(40.0 * GIB)
    cap_80gb = max_particles_per_gpu(80.0 * GIB)
    # miniHPC (40 GB) fits 450^3 = 91M but not 150M (paper section IV-C).
    assert cap_40gb >= 450**3
    assert cap_40gb < 150e6
    assert cap_80gb >= 150e6


@given(st.floats(min_value=1e4, max_value=2e8))
def test_nominal_work_scales_linearly_with_particles(n):
    a = WorkloadModel(n)
    b = WorkloadModel(2.0 * n)
    la = a.launches_for("MomentumEnergy")[0]
    lb = b.launches_for("MomentumEnergy")[0]

    # The nominal reference-device time is conserved by the
    # latency-bound shift and linear in the particle count.
    def nominal(l):
        return l.flops / 9.7e12 + l.bytes_moved / 2.0e12

    assert nominal(lb) == pytest.approx(2.0 * nominal(la), rel=1e-6)
