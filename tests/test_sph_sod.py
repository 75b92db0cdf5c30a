"""Sod shock tube vs the exact Riemann solution."""

import numpy as np
import pytest

from repro.sph import NumericProblem, Simulation
from repro.sph.init import SodConfig, make_sod, make_sod_eos
from repro.sph.riemann import GasState, sample_solution, solve_star_region
from repro.systems import Cluster, by_name

# ---------------------------------------------------------------------------
# Exact solver unit checks
# ---------------------------------------------------------------------------

SOD_L = GasState(1.0, 0.0, 1.0)
SOD_R = GasState(0.125, 0.0, 0.1)


def test_star_region_matches_toro_reference():
    p_star, u_star = solve_star_region(SOD_L, SOD_R, gamma=1.4)
    assert p_star == pytest.approx(0.30313, abs=2e-5)
    assert u_star == pytest.approx(0.92745, abs=2e-5)


def test_sampled_profile_structure():
    # The right shock moves at ~1.75 for gamma=1.4: sample beyond it.
    xi = np.linspace(-2.0, 2.0, 801)
    rho, u, p = sample_solution(xi, SOD_L, SOD_R, gamma=1.4)
    # Far field recovers the initial states.
    assert rho[0] == pytest.approx(1.0)
    assert rho[-1] == pytest.approx(0.125)
    assert p[0] == pytest.approx(1.0) and p[-1] == pytest.approx(0.1)
    # Pressure is continuous across the contact but density jumps.
    p_star, u_star = solve_star_region(SOD_L, SOD_R, gamma=1.4)
    near_contact = np.abs(xi - u_star) < 0.05
    assert np.all(np.abs(p[near_contact] - p_star) < 1e-6)
    assert rho[np.searchsorted(xi, u_star) - 3] > rho[
        np.searchsorted(xi, u_star) + 3
    ]
    # Velocity is non-negative everywhere for this problem.
    assert np.all(u >= -1e-12)


def test_symmetric_problem_gives_symmetric_solution():
    state = GasState(1.0, 0.0, 1.0)
    p_star, u_star = solve_star_region(state, state)
    assert u_star == pytest.approx(0.0, abs=1e-12)
    assert p_star == pytest.approx(1.0, rel=1e-9)


def test_strong_shock_case_converges():
    left = GasState(1.0, 0.0, 1000.0)
    right = GasState(1.0, 0.0, 0.01)
    p_star, u_star = solve_star_region(left, right, gamma=1.4)
    assert 0.01 < p_star < 1000.0
    assert u_star > 0.0


# ---------------------------------------------------------------------------
# SPH vs exact
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sod_run():
    cfg = SodConfig(nside=16)
    particles = make_sod(cfg)
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        problem = NumericProblem(
            particles=particles,
            n_ranks=1,
            eos=make_sod_eos(cfg),
            box_size=cfg.box_size,
        )
        sim = Simulation(
            cluster, "SodShockTube", particles.n, numeric=problem
        )
        sim.initialize()
        sim.profiler.open_window()
        t = 0.0
        while t < 0.08:
            sim._run_step()
            t += problem.dt
        sim.profiler.close_window()
        return cfg, particles, t
    finally:
        cluster.detach_management_library()


def test_sod_ic_states(sod_run):
    cfg = SodConfig(nside=8)
    p = make_sod(cfg)
    # Equal particle masses across the jump.
    assert np.allclose(p.m, p.m[0])
    # Internal energies realize the two pressures.
    left = p.x < cfg.x_mid
    gamma = cfg.gamma
    assert np.allclose(
        (gamma - 1.0) * cfg.rho_left * p.u[left], cfg.p_left
    )
    assert np.allclose(
        (gamma - 1.0) * cfg.rho_right * p.u[~left], cfg.p_right
    )


def test_sod_ic_requires_density_ratio():
    with pytest.raises(ValueError):
        make_sod(SodConfig(rho_right=0.5))


def test_sod_wave_structure(sod_run):
    cfg, particles, t_end = sod_run
    # Sample SPH density/velocity in x bins inside the central window.
    window = (particles.x > 0.25) & (particles.x < 0.75)
    x = particles.x[window]
    xi = (x - cfg.x_mid) / t_end
    rho_exact, u_exact, _ = sample_solution(
        xi, cfg.left_state(), cfg.right_state(), cfg.gamma
    )
    rho_sph = particles.rho[window]
    u_sph = particles.vx[window]

    # Exclude particles within a smoothing length of the two sharp
    # features (contact and shock), where SPH legitimately smears.
    p_star, u_star = solve_star_region(
        cfg.left_state(), cfg.right_state(), cfg.gamma
    )
    a_r = cfg.right_state().sound_speed(cfg.gamma)
    gm1, gp1 = cfg.gamma - 1.0, cfg.gamma + 1.0
    s_shock = a_r * np.sqrt(
        gp1 / (2 * cfg.gamma) * p_star / cfg.p_right + gm1 / (2 * cfg.gamma)
    )
    h_local = particles.h[window]
    sharp = (np.abs(xi - u_star) * t_end < 2.5 * h_local) | (
        np.abs(xi - s_shock) * t_end < 2.5 * h_local
    )
    smooth = ~sharp
    assert smooth.sum() > 50  # the comparison set must be non-trivial

    rel_rho = np.abs(rho_sph[smooth] - rho_exact[smooth]) / rho_exact[smooth]
    # Median within a few percent; allow lattice-relaxation noise tails.
    assert np.median(rel_rho) < 0.06
    assert np.percentile(rel_rho, 90) < 0.20
    # Velocity: the star region moves right at ~u*.
    star = (np.abs(xi - u_star * 0.5) < 0.2) & smooth
    if star.sum() > 10:
        assert np.mean(u_sph[star]) > 0.2
    # Gross structure: shocked-right density exceeds the ambient right
    # state, rarefied-left density below the left state.
    shocked = (xi > 0.5 * s_shock) & (
        xi < s_shock - 2.5 * h_local.max() / t_end
    )
    if shocked.sum() > 5:
        assert np.mean(rho_sph[shocked]) > 1.5 * cfg.rho_right
    fan = xi < -0.3
    if fan.sum() > 5:
        assert np.mean(rho_sph[fan]) < 1.05 * cfg.rho_left


def test_sod_conserves_energy_and_momentum(sod_run):
    cfg, particles, _ = sod_run
    e_total = particles.kinetic_energy() + particles.internal_energy()
    # Initial energy: internal only.
    u_l = cfg.p_left / ((cfg.gamma - 1.0) * cfg.rho_left)
    u_r = cfg.p_right / ((cfg.gamma - 1.0) * cfg.rho_right)
    mass_half = cfg.rho_left * 0.5
    e0 = mass_half * u_l + cfg.rho_right * 0.5 * u_r
    assert e_total == pytest.approx(e0, rel=0.05)
    # Transverse momentum stays zero; axial momentum cancels between the
    # two (mirrored) diaphragms of the periodic box.
    mom = particles.momentum()
    assert abs(mom[1]) < 1e-10 and abs(mom[2]) < 1e-10
    assert abs(mom[0]) < 1e-8
