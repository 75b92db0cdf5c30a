"""Checkpoint / restart round-trips."""

import numpy as np
import pytest

from repro.sph import NumericProblem, Simulation
from repro.sph.init import TurbulenceConfig, make_turbulence, make_turbulence_eos
from repro.sph.io import CheckpointMeta, load_checkpoint, save_checkpoint
from repro.systems import Cluster, by_name


def test_roundtrip_is_bit_exact(tmp_path, small_turbulence):
    p = small_turbulence
    path = str(tmp_path / "ck.npz")
    meta = CheckpointMeta(step=42, physical_time=1.5, last_dt=1e-3,
                          workload="SubsonicTurbulence")
    save_checkpoint(path, p, meta)
    loaded, meta2 = load_checkpoint(path)
    assert np.array_equal(loaded.x, p.x)
    assert np.array_equal(loaded.vx, p.vx)
    assert np.array_equal(loaded.u, p.u)
    assert meta2.step == 42
    assert meta2.physical_time == 1.5
    assert meta2.workload == "SubsonicTurbulence"


def test_uncomputed_derived_fields_stay_none(tmp_path):
    p = make_turbulence(TurbulenceConfig(nside=5, seed=3))
    path = str(tmp_path / "ck.npz")
    save_checkpoint(path, p)
    loaded, _ = load_checkpoint(path)
    assert loaded.rho is None
    assert loaded.c11 is None


def test_computed_derived_fields_roundtrip(tmp_path):
    p = make_turbulence(TurbulenceConfig(nside=5, seed=4))
    p.ensure_derived()
    p.rho[:] = 2.0
    path = str(tmp_path / "ck.npz")
    save_checkpoint(path, p)
    loaded, _ = load_checkpoint(path)
    assert np.all(loaded.rho == 2.0)


def test_wrong_format_rejected(tmp_path):
    path = str(tmp_path / "bogus.npz")
    np.savez(path, meta_format=np.array("something-else"))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_restart_continues_identically(tmp_path):
    """Running 4 steps equals running 2, checkpointing, restarting, 2."""
    cfg = TurbulenceConfig(nside=8, seed=17)

    def fresh_sim(particles):
        cluster = Cluster(by_name("miniHPC"), 1)
        problem = NumericProblem(
            particles=particles, n_ranks=1,
            eos=make_turbulence_eos(cfg), box_size=cfg.box_size,
        )
        sim = Simulation(
            cluster, "SubsonicTurbulence", particles.n, numeric=problem
        )
        return cluster, sim, problem

    # Continuous 4-step reference.
    p_ref = make_turbulence(cfg)
    cl1, sim1, prob1 = fresh_sim(p_ref)
    sim1.run(4)
    cl1.detach_management_library()

    # 2 steps, checkpoint, restart, 2 more steps.
    p_a = make_turbulence(cfg)
    cl2, sim2, prob2 = fresh_sim(p_a)
    sim2.run(2)
    cl2.detach_management_library()
    path = str(tmp_path / "restart.npz")
    save_checkpoint(
        path, p_a, CheckpointMeta(step=2, last_dt=prob2.previous_dt or 0.0)
    )

    p_b, meta = load_checkpoint(path)
    cl3, sim3, prob3 = fresh_sim(p_b)
    prob3.previous_dt = meta.last_dt if meta.last_dt > 0 else None
    sim3.run(2)
    cl3.detach_management_library()

    # Positions agree to tight tolerance (identical numerics, the only
    # difference being the restart boundary).
    assert np.allclose(p_b.x, p_ref.x, atol=1e-12)
    assert np.allclose(p_b.vx, p_ref.vx, atol=1e-12)
    assert np.allclose(p_b.u, p_ref.u, atol=1e-12)
