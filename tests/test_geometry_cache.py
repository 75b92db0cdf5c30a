"""StepGeometry cache, Verlet-skin reuse, and pair-closure regression.

The numeric hot-path overhaul must not change the physics: running the
step loop through the shared :class:`StepGeometry` cache (with and
without a Verlet skin) has to reproduce the uncached per-kernel
recomputation path trajectory-for-trajectory — bit-exact at
``skin=0`` (same neighbor list, same summation order) and to tight
rounding tolerance at ``skin>0`` (identical pair sets, neighbor order
inherited from the wide query). Splitting the pair kernels into many
blocks across threads must change no bit at all.
"""

import hashlib
import json
import multiprocessing as mp
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.sph import NumericProblem, ParticleSet, Simulation, find_neighbors
from repro.sph import geometry
from repro.sph.eos import IdealGasEOS
from repro.sph.init import (
    EvrardConfig,
    SedovConfig,
    TurbulenceConfig,
    TurbulenceDriver,
    make_evrard,
    make_sedov,
    make_sedov_eos,
    make_turbulence,
    make_turbulence_eos,
)
from repro.sph.kernels_math import WendlandC6Kernel, default_kernel
from repro.sph.numeric import MIN_SKIN, neighborhood_max
from repro.sph.neighbors import mirror_missing, pairs_member_mask
from repro.sph.physics import (
    ArtificialViscosity,
    TimestepControl,
    compute_density_gradh,
    compute_iad_divv_curlv,
    compute_momentum_energy,
    compute_xmass,
    local_timestep,
    update_quantities,
)
from repro.sph.physics.momentum_energy import signal_velocity
from repro.sph.physics.positions import IntegrationConfig
from repro.systems import Cluster, by_name

PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json"

TRACKED_FIELDS = ("rho", "gradh", "divv", "ax", "du")


def _snapshot(particles):
    return {f: np.copy(getattr(particles, f)) for f in TRACKED_FIELDS}


def _run_cached(particles, eos, box_size, steps, skin, driver=None):
    """Drive the step loop through NumericProblem (shared geometry)."""
    problem = NumericProblem(
        particles=particles,
        n_ranks=1,
        eos=eos,
        box_size=box_size,
        driver=driver,
        skin=skin,
    )
    trajectory = []
    for _ in range(steps):
        problem.find_neighbors()
        problem.xmass()
        problem.normalization_gradh()
        problem.equation_of_state()
        problem.iad_velocity_div_curl()
        problem.momentum_energy()
        problem.set_global_dt(min(problem.local_timesteps()))
        trajectory.append(_snapshot(particles))
        problem.update_quantities()
    return trajectory, problem


def _run_uncached(particles, eos, box_size, steps, driver=None):
    """Reference loop: fresh search and per-kernel geometry each step."""
    kernel = default_kernel()
    av = ArtificialViscosity()
    control = TimestepControl()
    integration = IntegrationConfig()
    previous_dt = None
    trajectory = []
    for _ in range(steps):
        nlist = find_neighbors(
            particles,
            support_radius=kernel.support_radius,
            box_size=box_size,
        )
        compute_xmass(particles, nlist, kernel, box_size)
        compute_density_gradh(particles, nlist, kernel, box_size)
        eos.apply(particles)
        compute_iad_divv_curlv(particles, nlist, kernel, box_size)
        ext = None if driver is None else driver.acceleration(particles)
        compute_momentum_energy(
            particles,
            nlist,
            kernel,
            av=av,
            box_size=box_size,
            external_ax=None if ext is None else ext[:, 0],
            external_ay=None if ext is None else ext[:, 1],
            external_az=None if ext is None else ext[:, 2],
        )
        dt = local_timestep(
            particles,
            nlist,
            control=control,
            previous_dt=previous_dt,
            box_size=box_size,
        )
        trajectory.append(_snapshot(particles))
        update_quantities(
            particles,
            dt,
            nlist=nlist,
            config=integration,
            box_size=box_size,
        )
        previous_dt = dt
    return trajectory


def _assert_trajectories_match(cached, reference, exact):
    assert len(cached) == len(reference)
    for step, (got, want) in enumerate(zip(cached, reference)):
        for field in TRACKED_FIELDS:
            if exact:
                assert np.array_equal(got[field], want[field]), (
                    f"step {step}: {field} differs bit-for-bit"
                )
            else:
                scale = max(1.0, float(np.max(np.abs(want[field]))))
                np.testing.assert_allclose(
                    got[field],
                    want[field],
                    rtol=1e-12,
                    atol=1e-12 * scale,
                    err_msg=f"step {step}: {field}",
                )


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("skin", [0.0, 0.1])
    def test_sedov(self, skin):
        cfg = SedovConfig(nside=10, seed=5)
        cached, _ = _run_cached(
            make_sedov(cfg), make_sedov_eos(cfg), cfg.box_size,
            steps=3, skin=skin,
        )
        reference = _run_uncached(
            make_sedov(cfg), make_sedov_eos(cfg), cfg.box_size, steps=3
        )
        _assert_trajectories_match(cached, reference, exact=(skin == 0.0))

    @pytest.mark.parametrize("skin", [0.0, 0.1])
    def test_subsonic_turbulence(self, skin):
        cfg = TurbulenceConfig(nside=8, mach_rms=0.3, seed=42)
        cached, _ = _run_cached(
            make_turbulence(cfg),
            make_turbulence_eos(cfg),
            cfg.box_size,
            steps=3,
            skin=skin,
            driver=TurbulenceDriver(cfg, amplitude=0.4),
        )
        reference = _run_uncached(
            make_turbulence(cfg),
            make_turbulence_eos(cfg),
            cfg.box_size,
            steps=3,
            driver=TurbulenceDriver(cfg, amplitude=0.4),
        )
        _assert_trajectories_match(cached, reference, exact=(skin == 0.0))


class TestVerletReuse:
    def _problem(self, skin=0.5):
        cfg = SedovConfig(nside=8, seed=5)
        return NumericProblem(
            particles=make_sedov(cfg),
            n_ranks=1,
            eos=make_sedov_eos(cfg),
            box_size=cfg.box_size,
            skin=skin,
        )

    def test_static_particles_reuse_wide_list(self):
        problem = self._problem()
        problem.find_neighbors()
        assert (problem.neighbor_rebuilds, problem.neighbor_reuses) == (1, 0)
        problem.find_neighbors()
        problem.find_neighbors()
        assert (problem.neighbor_rebuilds, problem.neighbor_reuses) == (1, 2)

    def test_large_displacement_forces_rebuild(self):
        problem = self._problem()
        problem.find_neighbors()
        # Move one particle much farther than the skin budget allows.
        p = problem.particles
        p.x[0] = (p.x[0] + 10.0 * p.h[0]) % problem.box_size
        problem.find_neighbors()
        assert problem.neighbor_rebuilds == 2
        assert problem.neighbor_reuses == 0

    def test_smoothing_length_growth_forces_rebuild(self):
        problem = self._problem()
        problem.find_neighbors()
        problem.particles.h *= 1.5
        problem.find_neighbors()
        assert problem.neighbor_rebuilds == 2

    def test_growth_budget_scales_with_kernel_support(self):
        """h growth moves the support edge by support_radius * dh, not
        2 dh: a support-3 kernel must rebuild before a pair beyond the
        wide radius can enter the true support unseen."""

        class _Support3(WendlandC6Kernel):
            support_radius = 3.0

        p = ParticleSet.zeros(2)
        p.x[1] = 3.4  # beyond the wide radius (3 + 0.3) * h = 3.3
        p.m[:], p.h[:], p.u[:] = 1.0, 1.0, 1.0
        problem = NumericProblem(
            particles=p, n_ranks=1, kernel=_Support3(), skin=0.3
        )
        problem.find_neighbors()
        assert problem.nlist.counts().tolist() == [0, 0]
        # 2 dh = 0.28 fits the 0.3 skin budget; 3 dh = 0.42 does not,
        # and 3 * 1.14 = 3.42 puts the pair inside the true support.
        p.h[:] = 1.14
        problem.find_neighbors()
        fresh = find_neighbors(p, support_radius=3.0)
        assert fresh.counts().tolist() == [1, 1]
        for i in range(2):
            assert set(problem.nlist.of(i)) == set(fresh.of(i))
        assert problem.neighbor_rebuilds == 2

    def test_masked_list_matches_fresh_search(self):
        """The wide list masked to true support = a fresh 2h search."""
        problem = self._problem(skin=0.3)
        problem.find_neighbors()
        # Drift everything a little (inside the skin budget) and reuse.
        rng = np.random.default_rng(3)
        p = problem.particles
        budget = 0.05 * float(np.min(p.h))
        for arr in (p.x, p.y, p.z):
            arr += rng.uniform(-budget, budget, p.n)
            arr %= problem.box_size
        problem.find_neighbors()
        assert problem.neighbor_reuses == 1
        fresh = find_neighbors(
            p, support_radius=2.0, box_size=problem.box_size
        )
        masked = problem.nlist
        assert np.array_equal(masked.offsets, fresh.offsets)
        for i in range(masked.n):
            assert set(masked.of(i)) == set(fresh.of(i))


def _random_asymmetric(n=300, seed=9, h0=0.06):
    rng = np.random.default_rng(seed)
    p = ParticleSet.zeros(n)
    p.x[:] = rng.random(n)
    p.y[:] = rng.random(n)
    p.z[:] = rng.random(n)
    p.m[:] = 1.0 / n
    # Strongly asymmetric smoothing lengths: many pairs where j is
    # inside 2 h_i but i is outside 2 h_j.
    p.h[:] = h0 * (1.0 + 2.0 * rng.random(n))
    p.u[:] = 1.0
    return p


def _inputs(kind, seed):
    """Seeded particles, EOS and box for the geometry property tests."""
    if kind == "sedov":
        cfg = SedovConfig(nside=8, seed=seed)
        return make_sedov(cfg), make_sedov_eos(cfg), cfg.box_size
    if kind == "turbulence":
        cfg = TurbulenceConfig(nside=8, mach_rms=0.3, seed=seed)
        return make_turbulence(cfg), make_turbulence_eos(cfg), cfg.box_size
    box = 1.0 if kind == "random-periodic" else None
    return _random_asymmetric(seed=seed), IdealGasEOS(), box


def _simulate(kind, seed, skin, steps=3):
    """Run the instrumented loop on ``_inputs``; return the problem,
    every particle field and the EnergyReport (as exact JSON)."""
    particles, eos, box = _inputs(kind, seed)
    problem = NumericProblem(
        particles=particles, n_ranks=2, eos=eos, box_size=box, skin=skin
    )
    cluster = Cluster(by_name("miniHPC"), 2)
    try:
        result = Simulation(
            cluster, "SedovBlast", particles.n, numeric=problem
        ).run(steps)
    finally:
        cluster.detach_management_library()
    report = json.dumps(result.report.to_dict(), sort_keys=True)
    return problem, problem.particles.state_dict(), report


def _digest(fields, report):
    digest = hashlib.sha256(report.encode())
    for name in sorted(fields):
        if fields[name] is not None:
            digest.update(name.encode() + fields[name].tobytes())
    return digest.hexdigest()


def _child_run(conn):
    _, fields, report = _simulate("sedov", 11, 0.1)
    conn.send(_digest(fields, report))
    conn.close()


class TestBlockedKernels:
    """Pair kernels split into particle-range blocks across threads
    reproduce a one-block run bit for bit, and leave no thread behind."""

    @pytest.mark.parametrize("skin", [0.0, 0.1])
    @pytest.mark.parametrize(
        "kind", ["sedov", "turbulence", "random-periodic", "random-open"]
    )
    def test_many_blocks_match_one_block(self, kind, skin, monkeypatch):
        monkeypatch.setattr(geometry, "BLOCK_PAIRS", 1 << 40)
        one, one_fields, one_report = _simulate(kind, 7, skin)
        assert len(one.geometry.blocks) == 1
        monkeypatch.setattr(geometry, "BLOCK_PAIRS", 97)
        many, fields, report = _simulate(kind, 7, skin)
        assert len(many.geometry.blocks) > 50
        assert report == one_report
        assert fields.keys() == one_fields.keys()
        for name, want in one_fields.items():
            got = fields[name]
            assert (got is None) == (want is None), name
            if want is not None:
                assert got.tobytes() == want.tobytes(), name

    def test_run_blocks_runs_each_block_once_and_reraises(self, monkeypatch):
        """More threads than cores and a tiny switch interval: every
        block runs exactly once, and a failing block's exception reaches
        the caller after all helpers have stopped."""
        monkeypatch.setattr(geometry, "kernel_threads", lambda: 8)
        runs = np.zeros(5000, dtype=np.int64)

        def once(k):
            runs[k] += 1

        def fail(k):
            if k == 2500:
                raise ValueError("block 2500")

        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            geometry.run_blocks(once, [(k,) for k in range(runs.size)])
            with pytest.raises(ValueError, match="block 2500"):
                geometry.run_blocks(fail, [(k,) for k in range(runs.size)])
        finally:
            sys.setswitchinterval(interval)
        assert np.all(runs == 1)
        assert threading.active_count() == before

    def test_no_thread_outlives_a_run_and_fork_after_run(self, monkeypatch):
        monkeypatch.setattr(geometry, "BLOCK_PAIRS", 97)
        before = threading.active_count()
        _, fields, report = _simulate("sedov", 11, 0.1)
        assert threading.active_count() == before
        ctx = mp.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_child_run, args=(send,))
        child.start()
        send.close()
        try:
            assert recv.poll(120), "forked numeric run did not finish"
            got = recv.recv()
        finally:
            child.join(timeout=30)
        assert not child.is_alive()
        assert child.exitcode == 0
        assert got == _digest(fields, report)


def test_full_size_sedov_reproduces_pinned_benchmark_values(tmp_path):
    """The numeric-sedov benchmark's full-size seed-11 run (16^3
    particles, 2 ranks, skin 0.1, 10 steps, a checkpoint every 4)
    spans many pair blocks and matches ``perfbench/pinned.json``."""
    want = json.loads(PINNED.read_text())["full"]["11"]
    cfg = SedovConfig(nside=16, blast_energy=1.0, seed=11)
    particles = make_sedov(cfg)
    problem = NumericProblem(
        particles=particles, n_ranks=2, eos=make_sedov_eos(cfg),
        box_size=cfg.box_size, skin=0.1,
    )
    cluster = Cluster(by_name("miniHPC"), 2)
    try:
        result = Simulation(
            cluster, "SedovBlast", particles.n / 2, numeric=problem
        ).run(10, checkpoint_every=4,
              checkpoint_path=str(tmp_path / "sedov.ckpt.json"))
    finally:
        cluster.detach_management_library()
    assert len(problem.geometry.blocks) > 1
    state = hashlib.sha256()
    for name in ("x", "y", "z", "vx", "vy", "vz", "m", "h", "u"):
        state.update(getattr(problem.particles, name).tobytes())
    assert result.gpu_energy_j == want["gpu_energy_j"]
    assert state.hexdigest() == want["state_sha256"]


class _CountingKernel(WendlandC6Kernel):
    def __init__(self):
        self.value_calls = 0

    def value(self, r, h):
        self.value_calls += 1
        return super().value(r, h)


class TestDistanceDerivedGeometry:
    """The skin>0 geometry reads mirror pairs off distances and caches
    the gather-side kernel value; both must match the direct scans."""

    @staticmethod
    def _check(problem):
        geom, kernel = problem.geometry, problem.kernel
        assert np.array_equal(
            geom.missing_mirrors, mirror_missing(geom.i_idx, geom.j_idx)
        )
        w = geom.kernel_value(kernel)
        assert geom.kernel_value(kernel) is w
        h_i = problem.particles.h[geom.i_idx]
        assert np.array_equal(w, kernel.value(geom.r, h_i))

    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize("skin", [0.05, 0.1, 0.5])
    @pytest.mark.parametrize(
        "kind", ["sedov", "turbulence", "random-periodic", "random-open"]
    )
    def test_matches_mirror_scan_and_kernel(self, kind, skin, seed):
        particles, eos, box = _inputs(kind, seed)
        problem = NumericProblem(
            particles=particles, n_ranks=1, eos=eos, box_size=box, skin=skin
        )
        problem.find_neighbors()
        self._check(problem)
        # Drift positions and smoothing lengths inside the skin budget
        # (2 max|dx| + 2 max dh <= skin * min h) so the wide list from
        # the rebuild is reused at new distances and asymmetric h.
        rng = np.random.default_rng(seed)
        p = problem.particles
        budget = skin * float(np.min(p.h))
        step = 0.24 * budget / np.sqrt(3.0)
        for arr in (p.x, p.y, p.z):
            arr += rng.uniform(-step, step, p.n)
            if box is not None:
                arr %= box
        p.h += rng.uniform(-0.24 * budget, 0.24 * budget, p.n)
        problem.find_neighbors()
        assert (problem.neighbor_rebuilds, problem.neighbor_reuses) == (1, 1)
        self._check(problem)

    def test_asymmetry_is_exercised(self):
        particles, eos, box = _inputs("random-periodic", 9)
        problem = NumericProblem(
            particles=particles, n_ranks=1, eos=eos, box_size=box, skin=0.1
        )
        problem.find_neighbors()
        assert np.any(problem.geometry.missing_mirrors)

    def test_xmass_and_iad_share_one_kernel_evaluation(self):
        cfg = SedovConfig(nside=6, seed=5)
        kernel = _CountingKernel()
        problem = NumericProblem(
            particles=make_sedov(cfg), n_ranks=1, kernel=kernel,
            eos=make_sedov_eos(cfg), box_size=cfg.box_size, skin=0.1,
        )
        problem.find_neighbors()
        problem.xmass()
        problem.normalization_gradh()
        problem.equation_of_state()
        problem.iad_velocity_div_curl()
        assert kernel.value_calls == 1


def _closure(geom):
    """Reference closure: the pairs, then the reversed mirrors of the
    pairs whose mirror a pair-set scan does not find, materialized."""
    p = geom.pairs
    miss = mirror_missing(p.i_idx, p.j_idx)
    return geometry.PairTable(
        i_idx=np.concatenate([p.i_idx, p.j_idx[miss]]),
        j_idx=np.concatenate([p.j_idx, p.i_idx[miss]]),
        dx=np.concatenate([p.dx, -p.dx[miss]]),
        dy=np.concatenate([p.dy, -p.dy[miss]]),
        dz=np.concatenate([p.dz, -p.dz[miss]]),
        r=np.concatenate([p.r, p.r[miss]]),
    )


def _reference_undirected(geom):
    """The ``i < j`` pairs of the materialized closure, in its order."""
    sym = _closure(geom)
    keep = sym.i_idx < sym.j_idx
    return [a[keep] for a in (sym.i_idx, sym.j_idx, sym.dx, sym.dy, sym.dz, sym.r)]


def _reference_signal_velocity(p, geom):
    """v_sig over the materialized closure, reduced per particle by a
    stable argsort of the closure and segment maxima."""
    sym = _closure(geom)
    i, j = sym.i_idx, sym.j_idx
    vdotr_unit = (
        (p.vx[i] - p.vx[j]) * sym.dx
        + (p.vy[i] - p.vy[j]) * sym.dy
        + (p.vz[i] - p.vz[j]) * sym.dz
    ) / sym.r
    vsig = p.c[i] + p.c[j] - 3.0 * np.minimum(vdotr_unit, 0.0)
    order = np.argsort(i, kind="stable")
    sorted_i = i[order]
    grid = np.arange(p.n)
    starts = np.searchsorted(sorted_i, grid, side="left")
    has = np.searchsorted(sorted_i, grid, side="right") > starts
    out = p.c.copy()
    out[has] = np.maximum(out[has], np.maximum.reduceat(vsig[order], starts[has]))
    return out


def _reference_momentum_energy(p, geom, kernel, av):
    """ax, ay, az, du from one whole-array sweep of the reference
    undirected table, each side's weight formed as one product."""
    i, j, dx, dy, dz, r = _reference_undirected(geom)
    h, rho, c, m = p.h, p.rho, p.c, p.m
    p_over = p.p / (p.gradh * p.rho**2)
    balsara = av.balsara_factor(p)
    grad_i = kernel.grad_r(r, h[i]) / r
    grad_j = kernel.grad_r(r, h[j]) / r
    grad_bar = 0.5 * (grad_i + grad_j)
    v_dot_r = (
        (p.vx[i] - p.vx[j]) * dx
        + (p.vy[i] - p.vy[j]) * dy
        + (p.vz[i] - p.vz[j]) * dz
    )
    h_bar = 0.5 * (h[i] + h[j])
    rho_bar = 0.5 * (rho[i] + rho[j])
    c_bar = 0.5 * (c[i] + c[j])
    mu = h_bar * v_dot_r / (r * r + av.epsilon * h_bar * h_bar)
    mu = np.where(v_dot_r < 0.0, mu, 0.0)
    f_bar = 0.5 * (balsara[i] + balsara[j])
    visc = f_bar * (-av.alpha * c_bar * mu + av.beta * mu * mu) / rho_bar
    s_ij = p_over[i] * grad_i + p_over[j] * grad_j + visc * grad_bar
    half_heat = 0.5 * visc * grad_bar * v_dot_r

    def both(w_i, w_j):
        return geometry.scatter_sum(i, w_i, p.n) + geometry.scatter_sum(j, w_j, p.n)

    return (
        both(-m[j] * s_ij * dx, m[i] * s_ij * dx),
        both(-m[j] * s_ij * dy, m[i] * s_ij * dy),
        both(-m[j] * s_ij * dz, m[i] * s_ij * dz),
        both(
            m[j] * (p_over[i] * grad_i * v_dot_r + half_heat),
            m[i] * (p_over[j] * grad_j * v_dot_r + half_heat),
        ),
    )


class TestClosureReplacement:
    """signal_velocity and MomentumEnergy read the pair table plus the
    missing-mirror flags, never a materialized symmetric closure; they
    must give the same bits as the closure-based reference above."""

    @staticmethod
    def _problem(kind, skin):
        particles, eos, box = _inputs(kind, 5)
        # Empty first and last rows: smoothing lengths too small to
        # reach any neighbor, while the neighbors still reach them.
        particles.h[[0, -1]] *= 1e-3
        problem = NumericProblem(
            particles=particles, n_ranks=1, eos=eos, box_size=box, skin=skin
        )
        problem.find_neighbors()
        problem.xmass()
        problem.normalization_gradh()
        problem.equation_of_state()
        problem.iad_velocity_div_curl()
        return problem

    @pytest.mark.parametrize("skin", [0.0, 0.1])
    @pytest.mark.parametrize(
        "kind", ["sedov", "turbulence", "random-periodic", "random-open"]
    )
    def test_matches_materialized_closure(self, kind, skin):
        problem = self._problem(kind, skin)
        geom, p = problem.geometry, problem.particles
        counts = geom.nlist.counts()
        assert counts[0] == counts[-1] == 0
        # Some missing mirrors land in the undirected table reversed.
        assert np.any(geom.missing_mirrors & (geom.j_idx < geom.i_idx))
        und = geom.undirected()
        got = (und.i_idx, und.j_idx, und.dx, und.dy, und.dz, und.r)
        for a, b in zip(got, _reference_undirected(geom)):
            assert a.tobytes() == b.tobytes()
        problem.momentum_energy()
        want = _reference_momentum_energy(p, geom, problem.kernel, problem.av)
        for name, w in zip(("ax", "ay", "az", "du"), want):
            assert getattr(p, name).tobytes() == w.tobytes(), name
        vsig = signal_velocity(p, problem.nlist, problem.box_size, geometry=geom)
        assert vsig.tobytes() == _reference_signal_velocity(p, geom).tobytes()

    def test_caches_dropped_after_the_timestep(self):
        problem = self._problem("sedov", 0.1)
        problem.momentum_energy()
        geom = problem.geometry
        assert geom._und is not None and geom._w is not None
        problem.local_timesteps()
        assert geom._und is None and geom._w is None
        assert problem.geometry is geom


class TestStepMemory:
    """Memory a numeric step leaves alive and its traced peak, per
    directed pair: an nside-12 Sedov run (skin 0.1, 4 steps) under
    tracemalloc on one kernel thread, so no helper thread's block
    temporaries add to the peak. Measured 65-67 B held and a 153 B
    peak; a materialized symmetric closure held 152-156 B with a 220 B
    peak."""

    HELD_BYTES_PER_PAIR = 100
    PEAK_BYTES_PER_PAIR = 180

    def test_held_and_peak_bytes_per_pair(self, monkeypatch):
        monkeypatch.setattr(geometry, "kernel_threads", lambda: 1)
        cfg = SedovConfig(nside=12, seed=11)
        particles = make_sedov(cfg)
        problem = NumericProblem(
            particles=particles, n_ranks=2, eos=make_sedov_eos(cfg),
            box_size=cfg.box_size, skin=0.1,
        )
        cluster = Cluster(by_name("miniHPC"), 2)
        sim = Simulation(cluster, "SedovBlast", particles.n / 2, numeric=problem)
        held = []
        tracemalloc.start()
        try:
            sim.run(
                4, on_step=lambda step: held.append(
                    tracemalloc.get_traced_memory()[0]
                ),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            cluster.detach_management_library()
        pairs = problem.geometry.pairs.m
        assert len(held) == 4
        assert max(held) <= self.HELD_BYTES_PER_PAIR * pairs, (
            [h / pairs for h in held]
        )
        assert peak <= self.PEAK_BYTES_PER_PAIR * pairs, peak / pairs


def _drift_inputs(kind):
    """Particles and periodic box for the multi-step Verlet tests:
    large enough that a motion cube covers only part of the domain."""
    if kind == "sedov":
        return make_sedov(SedovConfig(nside=12, seed=21)), 1.0
    if kind == "turbulence":
        cfg = TurbulenceConfig(nside=12, mach_rms=0.3, seed=21)
        return make_turbulence(cfg), 1.0
    if kind == "evrard":
        # Open sphere, h spread 4.7x between centre and edge.
        return make_evrard(EvrardConfig(n_particles=2500, seed=29)), None
    box = 1.0 if kind == "random-periodic" else None
    return _random_asymmetric(n=1500, seed=21, h0=0.04), box


def _fast_region(p, box):
    """The 1% of particles nearest one particle (at the open edge)."""
    pos = p.positions()
    centre = 0 if box is not None else int(np.argmax(p.x))
    d = pos - pos[centre]
    if box is not None:
        d -= box * np.round(d / box)
    order = np.argsort(np.sum(d * d, axis=1), kind="stable")
    return order[: max(3, p.n // 100)]


def _drift(p, box, skin, fast, rng):
    """Slow motion everywhere, and fast motion plus h growth in
    ``fast`` that spends a row's skin budget within a step or two."""
    unit = skin * float(np.min(p.h))
    for arr in (p.x, p.y, p.z):
        arr += rng.uniform(-0.01, 0.01, p.n) * unit
        arr[fast] += rng.uniform(-0.6, 0.6, fast.size) * unit
        if box is not None:
            arr %= box
    p.h *= 1.0 + 0.01 * skin * rng.uniform(-1.0, 1.0, p.n)
    p.h[fast] *= 1.0 + 0.05 * skin


def _assert_fresh(problem):
    """The masked list equals a fresh search at R h, array for array."""
    fresh = find_neighbors(
        problem.particles,
        support_radius=problem.kernel.support_radius,
        box_size=problem.box_size,
    )
    assert np.array_equal(problem.nlist.offsets, fresh.offsets)
    assert np.array_equal(problem.nlist.neighbors, fresh.neighbors)


def _drive(problem, steps, move):
    """Call find_neighbors ``steps`` times, checking the masked list
    after each and calling ``move()`` between; returns rows searched
    per call."""
    rows = []
    for step in range(steps):
        if step:
            move()
        before = problem.neighbor_rows_searched
        problem.find_neighbors()
        rows.append(problem.neighbor_rows_searched - before)
        _assert_fresh(problem)
    return rows


def _particles(x, y, z, h):
    n = len(x)
    p = ParticleSet.zeros(n)
    p.x[:], p.y[:], p.z[:] = x, y, z
    p.m[:], p.h[:], p.u[:] = 1.0 / n, h, 1.0
    return p


class TestPerRowVerletBudget:
    """Only rows whose motion budget is spent are searched again, and
    the masked list stays exactly a fresh search."""

    @pytest.mark.parametrize("skin", [0.05, 0.1, 0.5])
    @pytest.mark.parametrize(
        "kind",
        ["sedov", "turbulence", "random-periodic", "random-open", "evrard"],
    )
    def test_local_fast_motion(self, kind, skin):
        particles, box = _drift_inputs(kind)
        if kind == "evrard":
            assert particles.h.max() / particles.h.min() > 4.5
        problem = NumericProblem(
            particles=particles, n_ranks=1, box_size=box, skin=skin
        )
        fast = _fast_region(particles, box)
        rng = np.random.default_rng(5)
        rows = _drive(
            problem, 6, lambda: _drift(particles, box, skin, fast, rng)
        )
        n = particles.n
        assert rows[0] == n
        assert all(k < n for k in rows[1:]), rows
        assert sum(rows[1:]) > 0, rows
        assert problem.neighbor_rebuilds == 1 + sum(k > 0 for k in rows[1:])
        assert problem.neighbor_reuses == sum(k == 0 for k in rows[1:])

    def test_slow_rows_keep_their_entries(self):
        """Rows that were not searched again keep their wide-list run
        unchanged; searched rows get a fresh wide search and a fresh
        budget, so a call with no motion searches nothing."""
        particles, box = _drift_inputs("sedov")
        problem = NumericProblem(
            particles=particles, n_ranks=1, box_size=box, skin=0.1
        )
        problem.find_neighbors()
        before = problem._wide_nlist
        search_h = np.copy(problem._search_h)
        _drift(particles, box, 0.1, _fast_region(particles, box),
               np.random.default_rng(1))
        problem.find_neighbors()
        after = problem._wide_nlist
        # Every h moved, so the rows whose search h changed are the
        # rows searched.
        searched = problem._search_h != search_h
        assert 0 < searched.sum() < particles.n
        assert np.all((problem._row_budget == 0.0) == searched)
        wide = find_neighbors(particles, support_radius=2.1, box_size=box)
        for i in range(particles.n):
            want = wide.of(i) if searched[i] else before.of(i)
            assert np.array_equal(after.of(i), want)
        rows = problem.neighbor_rows_searched
        problem.find_neighbors()
        assert problem.neighbor_rows_searched == rows
        assert problem.neighbor_reuses == 1

    def test_two_collinear_particles(self):
        """Zero extent on two axes: one cell there, whole-axis maxima."""
        p = _particles([0.0, 0.5], [0.0, 0.0], [0.0, 0.0], 0.2)
        problem = NumericProblem(particles=p, n_ranks=1, skin=0.5)

        def approach():
            p.x[1] -= 0.03

        rows = _drive(problem, 8, approach)
        assert problem.nlist.counts().tolist() == [1, 1]
        assert rows[0] == 2 and sum(rows[1:]) > 0

    def test_all_particles_in_one_cell(self):
        rng = np.random.default_rng(4)
        n = 40
        p = _particles(*(1e-3 * rng.random((3, n))), 0.5)
        problem = NumericProblem(particles=p, n_ranks=1, skin=0.1)

        def jitter():
            for arr in (p.x, p.y, p.z):
                arr += rng.uniform(-0.02, 0.02, n)

        rows = _drive(problem, 5, jitter)
        assert problem.nlist.counts().tolist() == [n - 1] * n
        assert rows[0] == n

    def test_grid_smaller_than_the_cube(self):
        """A periodic box with fewer cells per axis than the cube
        spans falls back to whole-axis maxima and stays exact."""
        particles = _random_asymmetric(n=200, seed=6, h0=0.1)
        problem = NumericProblem(
            particles=particles, n_ranks=1, box_size=1.0, skin=0.2
        )
        fast = _fast_region(particles, 1.0)
        rng = np.random.default_rng(8)
        _drive(
            problem, 5, lambda: _drift(particles, 1.0, 0.2, fast, rng)
        )


class TestNeighborhoodMax:
    """The cube bound covers every particle within ``length``."""

    @staticmethod
    def _check(pos, values, length, box):
        bound = neighborhood_max(pos, values, length, box)
        d = pos[:, None, :] - pos[None, :, :]
        if box is not None:
            d -= box * np.round(d / box)
        near = np.sqrt(np.sum(d * d, axis=2)) <= length
        want = np.max(np.where(near, values[None, :], 0.0), axis=1)
        assert np.all(bound >= want)
        assert np.all(bound >= values)
        return bound

    @pytest.mark.parametrize("box", [None, 1.0])
    @pytest.mark.parametrize("length", [0.05, 0.13, 0.3, 2.0])
    def test_random_points(self, box, length):
        rng = np.random.default_rng(12)
        pos = rng.random((400, 3))
        values = rng.random(400) ** 8
        bound = self._check(pos, values, length, box)
        if length < 0.1:
            assert np.min(bound) < np.max(values)  # the bound is local

    def test_degenerate_extents(self):
        rng = np.random.default_rng(3)
        values = rng.random(30)
        line = np.zeros((30, 3))
        line[:, 0] = np.linspace(0.0, 1.0, 30)
        self._check(line, values, 0.1, None)
        self._check(np.zeros((30, 3)), values, 0.1, None)
        self._check(np.zeros((1, 3)), values[:1], 0.1, None)
        self._check(1e-9 * rng.random((30, 3)), values, 0.1, None)
        self._check(rng.random((30, 3)), values, 0.45, 1.0)

    def test_far_outlier_keeps_the_grid_small(self):
        """One open particle 1e6 away would need 4e7 cells of
        ``length / 4`` on its axis; the per-axis cap keeps the grid at
        a few cells per particle and the bound still holds."""
        rng = np.random.default_rng(2)
        pos = rng.random((400, 3))
        pos[0] = (1e6, 0.5, 0.5)
        values = rng.random(400)
        self._check(pos, values, 0.1, None)


class TestSkinValidation:
    def _problem(self, skin):
        cfg = SedovConfig(nside=4, seed=5)
        return NumericProblem(
            particles=make_sedov(cfg), n_ranks=1, box_size=cfg.box_size,
            skin=skin,
        )

    @pytest.mark.parametrize(
        "skin", [float("nan"), -0.1, -1e-12, float("inf"), float("-inf")]
    )
    def test_rejects_non_finite_and_negative(self, skin):
        with pytest.raises(ValueError, match="finite width >= 0"):
            self._problem(skin)

    @pytest.mark.parametrize("skin", [1e-300, 1e-12, 0.5e-9])
    def test_rejects_positive_below_floor(self, skin):
        with pytest.raises(ValueError, match="below the floor"):
            self._problem(skin)

    @pytest.mark.parametrize("skin", [0, 0.0, MIN_SKIN, 0.1, 2])
    def test_accepts_zero_and_floor_and_above(self, skin):
        assert self._problem(skin).skin == float(skin)


class TestSymmetricPairsRegression:
    def test_matches_bruteforce_closure(self):
        p = _random_asymmetric()
        nlist = find_neighbors(p, support_radius=2.0, box_size=1.0)
        directed = {
            (i, j) for i in range(nlist.n) for j in nlist.of(i)
        }
        # The asymmetry must actually be exercised.
        asymmetric = {(i, j) for (i, j) in directed if (j, i) not in directed}
        assert asymmetric
        closure = directed | {(j, i) for (i, j) in directed}
        # The step loop's closure: the directed pairs plus the mirror of
        # every pair whose reverse mirror_missing flags as absent.
        i_idx = np.repeat(np.arange(nlist.n, dtype=np.int64), nlist.counts())
        j_idx = np.asarray(nlist.neighbors, dtype=np.int64)
        missing = mirror_missing(i_idx, j_idx)
        got_i = np.concatenate([i_idx, j_idx[missing]])
        got_j = np.concatenate([j_idx, i_idx[missing]])
        got = set(zip(got_i.tolist(), got_j.tolist()))
        assert got == closure
        assert len(got_i) == len(closure)  # no duplicates introduced

    def test_member_mask_no_overflow_on_huge_indices(self):
        """Indices above 2^31 take the lexsort path and must not wrap
        (the historical ``i * n + j`` key encoding overflowed here)."""
        big = 1 << 62
        i_idx = np.array([big, big, 5, big - 3], dtype=np.int64)
        j_idx = np.array([big - 1, 7, big, 5], dtype=np.int64)
        pair_set = set(zip(i_idx.tolist(), j_idx.tolist()))
        expected = np.array(
            [(j, i) in pair_set for i, j in zip(i_idx, j_idx)]
        )
        got = ~mirror_missing(i_idx, j_idx)
        assert np.array_equal(got, expected)

    def test_member_mask_paths_agree(self):
        """Packed-key fast path and lexsort fallback give identical
        answers on the same (shifted) pair set."""
        rng = np.random.default_rng(1)
        m = 500
        i_idx = rng.integers(0, 40, m).astype(np.int64)
        j_idx = rng.integers(0, 40, m).astype(np.int64)
        qi = rng.integers(0, 40, m).astype(np.int64)
        qj = rng.integers(0, 40, m).astype(np.int64)
        fast = pairs_member_mask(i_idx, j_idx, qi, qj)
        shift = np.int64(1) << 33  # push everything past the 31-bit cap
        slow = pairs_member_mask(
            i_idx + shift, j_idx + shift, qi + shift, qj + shift
        )
        assert np.array_equal(fast, slow)

    def test_member_mask_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        some = np.array([1, 2], dtype=np.int64)
        assert pairs_member_mask(empty, empty, some, some).tolist() == [
            False,
            False,
        ]
        assert pairs_member_mask(some, some, empty, empty).size == 0
