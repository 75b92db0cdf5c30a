"""Sedov-Taylor blast: ICs, expansion, analytic similarity check."""

import numpy as np
import pytest

from repro.sph import NumericProblem, Simulation, propagator_for
from repro.sph.init import (
    SedovConfig,
    analytic_shock_radius,
    make_sedov,
    make_sedov_eos,
    shock_radius,
)
from repro.systems import Cluster, by_name


def test_sedov_ic_energy_budget():
    cfg = SedovConfig(nside=10, blast_energy=1.0)
    p = make_sedov(cfg)
    assert p.n == 1000
    assert p.total_mass() == pytest.approx(1.0)
    # Total internal energy = blast + cold background.
    e_int = p.internal_energy()
    assert e_int == pytest.approx(
        cfg.blast_energy + cfg.u_background * 1.0, rel=1e-6
    )
    # The spike is concentrated at the box center.
    center = cfg.box_size / 2.0
    r = np.sqrt((p.x - center) ** 2 + (p.y - center) ** 2 + (p.z - center) ** 2)
    hot = p.u > 100.0 * cfg.u_background
    assert hot.sum() <= cfg.spike_particles
    assert np.max(r[hot]) < 0.25 * cfg.box_size


def test_sedov_ic_is_initially_static():
    p = make_sedov(SedovConfig(nside=6))
    assert p.kinetic_energy() == 0.0


def test_analytic_shock_radius_scaling():
    cfg = SedovConfig()
    r1 = analytic_shock_radius(cfg, 0.01)
    r2 = analytic_shock_radius(cfg, 0.02)
    assert r2 / r1 == pytest.approx(2.0**0.4, rel=1e-9)
    assert analytic_shock_radius(cfg, 0.0) == 0.0
    with pytest.raises(ValueError):
        analytic_shock_radius(cfg, -1.0)


def test_sedov_uses_hydro_propagator():
    names = [f.name for f in propagator_for("SedovBlast")]
    assert "Gravity" not in names
    assert "MomentumEnergy" in names


def test_sedov_blast_expands_and_conserves_energy():
    cfg = SedovConfig(nside=12, seed=5)
    p = make_sedov(cfg)
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        problem = NumericProblem(
            particles=p,
            n_ranks=1,
            eos=make_sedov_eos(cfg),
            box_size=cfg.box_size,
        )
        sim = Simulation(cluster, "SedovBlast", p.n, numeric=problem)
        e0 = p.internal_energy()  # all internal at t=0
        radii = []
        times = []
        t = 0.0
        sim.initialize()
        sim.profiler.open_window()
        for _ in range(8):
            sim._run_step()
            t += problem.dt
            times.append(t)
            radii.append(shock_radius(p, cfg))
        sim.profiler.close_window()

        # The blast converts internal to kinetic energy and expands.
        assert p.kinetic_energy() > 0.01 * e0
        assert radii[-1] > radii[0] > 0.0
        assert radii == sorted(radii)
        # Total energy is conserved to a few percent (AV is conservative).
        e_total = p.kinetic_energy() + p.internal_energy()
        assert e_total == pytest.approx(e0, rel=0.05)
        # The measured radius tracks the analytic t^(2/5) within a factor
        # ~2 at this resolution (energy is injected over a finite region).
        expected = analytic_shock_radius(cfg, times[-1])
        assert 0.3 * expected < radii[-1] < 3.0 * expected
    finally:
        cluster.detach_management_library()


def test_sedov_momentum_stays_zero():
    cfg = SedovConfig(nside=10, seed=6)
    p = make_sedov(cfg)
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        problem = NumericProblem(
            particles=p, n_ranks=1, eos=make_sedov_eos(cfg),
            box_size=cfg.box_size,
        )
        sim = Simulation(cluster, "SedovBlast", p.n, numeric=problem)
        sim.run(4)
        assert np.all(np.abs(p.momentum()) < 1e-10)
    finally:
        cluster.detach_management_library()
