"""Instrumented simulation: model mode, numeric mode, policies."""

import numpy as np
import pytest

from repro.core import DvfsPolicy, ManDynPolicy, StaticFrequencyPolicy, baseline_policy
from repro.sph import NumericProblem, Simulation, run_instrumented
from repro.sph.init import (
    EvrardConfig,
    TurbulenceConfig,
    make_evrard,
    make_evrard_eos,
    make_evrard_gravity,
    make_turbulence,
    make_turbulence_eos,
)
from repro.systems import Cluster, by_name


def test_model_mode_runs_and_reports(mini_cluster):
    result = run_instrumented(
        mini_cluster, "SubsonicTurbulence", 10e6, n_steps=3
    )
    assert result.steps == 3
    assert result.elapsed_s > 0
    assert result.gpu_energy_j > 0
    functions = result.report.aggregate_functions()
    assert "MomentumEnergy" in functions
    assert functions["MomentumEnergy"].calls == 3
    assert "Gravity" not in functions


def test_evrard_workload_includes_gravity(mini_cluster):
    result = run_instrumented(
        mini_cluster, "EvrardCollapse", 10e6, n_steps=2
    )
    assert "Gravity" in result.report.aggregate_functions()


def test_unknown_workload_rejected(mini_cluster):
    with pytest.raises(ValueError):
        Simulation(mini_cluster, "KelvinHelmholtz", 1e6)


def test_initialization_precedes_window(mini_cluster):
    sim = Simulation(mini_cluster, "SubsonicTurbulence", 10e6)
    result = sim.run(2)
    report = result.report.ranks[0]
    # Window opens after the init phase (Fig. 3's PMT-vs-Slurm gap).
    assert report.window_start_s > 0
    assert report.window_end_s > report.window_start_s


def test_initialize_is_idempotent(mini_cluster):
    sim = Simulation(mini_cluster, "SubsonicTurbulence", 10e6)
    sim.initialize()
    t = mini_cluster.elapsed_s()
    sim.initialize()
    assert mini_cluster.elapsed_s() == t


def test_mandyn_switches_clocks_per_function(mini_cluster):
    policy = ManDynPolicy({"MomentumEnergy": 1410.0}, default_mhz=1005.0)
    result = run_instrumented(
        mini_cluster, "SubsonicTurbulence", 10e6, n_steps=2, policy=policy
    )
    # Two switches per step (into MomentumEnergy and out at Timestep),
    # plus the initial pin.
    assert result.clock_set_calls >= 4


def test_static_policy_pins_once(mini_cluster):
    result = run_instrumented(
        mini_cluster,
        "SubsonicTurbulence",
        10e6,
        n_steps=3,
        policy=StaticFrequencyPolicy(1110.0),
    )
    assert result.clock_set_calls == 1
    from repro.units import to_mhz

    assert to_mhz(mini_cluster.gpus[0].application_clock_hz) == 1110.0


def test_dvfs_policy_leaves_governor_in_charge(mini_cluster):
    run_instrumented(
        mini_cluster,
        "SubsonicTurbulence",
        10e6,
        n_steps=2,
        policy=DvfsPolicy(),
    )
    assert mini_cluster.gpus[0].dvfs_active


def test_multi_rank_run_synchronizes(lumi_cluster):
    result = run_instrumented(
        lumi_cluster, "SubsonicTurbulence", 5e6, n_steps=2
    )
    times = [c.now for c in lumi_cluster.clocks]
    assert max(times) - min(times) < 1e-9  # post-collective sync
    assert len(result.report.ranks) == 16


def test_numeric_mode_turbulence_runs_physics():
    cfg = TurbulenceConfig(nside=10, seed=21)
    parts = make_turbulence(cfg)
    cluster = Cluster(by_name("miniHPC"), 2)
    try:
        problem = NumericProblem(
            particles=parts,
            n_ranks=2,
            eos=make_turbulence_eos(cfg),
            box_size=cfg.box_size,
        )
        sim = Simulation(
            cluster,
            "SubsonicTurbulence",
            n_particles_per_rank=parts.n // 2,
            numeric=problem,
        )
        result = sim.run(3)
        assert len(result.dt_history) == 3
        assert all(dt > 0 for dt in result.dt_history)
        assert parts.rho is not None
        # Momentum stays conserved through the integration.
        assert np.all(np.abs(parts.momentum()) < 1e-10)
        # Workload models picked up the real decomposition counts.
        total_model = sum(w.n_particles for w in sim.workloads)
        assert total_model == pytest.approx(parts.n)
    finally:
        cluster.detach_management_library()


def test_numeric_mode_evrard_collapses():
    cfg = EvrardConfig(n_particles=1500, seed=22)
    parts = make_evrard(cfg)
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        problem = NumericProblem(
            particles=parts,
            n_ranks=1,
            eos=make_evrard_eos(cfg),
            gravity=make_evrard_gravity(cfg),
        )
        sim = Simulation(
            cluster, "EvrardCollapse", parts.n, numeric=problem
        )
        r0 = np.sqrt(np.mean(parts.x**2 + parts.y**2 + parts.z**2))
        sim.run(8)
        r1 = np.sqrt(np.mean(parts.x**2 + parts.y**2 + parts.z**2))
        # Cold sphere under self-gravity: it contracts.
        assert r1 < r0
        # And gains infall kinetic energy.
        assert parts.kinetic_energy() > 0
    finally:
        cluster.detach_management_library()


def test_numeric_rank_mismatch_rejected(mini_cluster):
    parts = make_turbulence(TurbulenceConfig(nside=6))
    problem = NumericProblem(particles=parts, n_ranks=4, box_size=1.0)
    with pytest.raises(ValueError):
        Simulation(mini_cluster, "SubsonicTurbulence", 100.0, numeric=problem)


def test_run_validates_steps(mini_cluster):
    sim = Simulation(mini_cluster, "SubsonicTurbulence", 1e6)
    with pytest.raises(ValueError):
        sim.run(0)


def test_result_edp_property(mini_cluster):
    result = run_instrumented(
        mini_cluster, "SubsonicTurbulence", 10e6, n_steps=1
    )
    assert result.edp == pytest.approx(
        result.elapsed_s * result.gpu_energy_j
    )
