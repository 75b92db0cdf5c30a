"""StepGeometry cache, Verlet-skin reuse, and pair-closure regression.

The numeric hot-path overhaul must not change the physics: running the
step loop through the shared :class:`StepGeometry` cache (with and
without a Verlet skin) has to reproduce the uncached per-kernel
recomputation path trajectory-for-trajectory — bit-exact at
``skin=0`` (same neighbor list, same summation order) and to tight
rounding tolerance at ``skin>0`` (identical pair sets, neighbor order
inherited from the wide query).
"""

import numpy as np
import pytest

from repro.sph import NumericProblem, ParticleSet, find_neighbors
from repro.sph.eos import IdealGasEOS
from repro.sph.init import (
    SedovConfig,
    TurbulenceConfig,
    TurbulenceDriver,
    make_sedov,
    make_sedov_eos,
    make_turbulence,
    make_turbulence_eos,
)
from repro.sph.kernels_math import WendlandC6Kernel, default_kernel
from repro.sph.numeric import MIN_SKIN
from repro.sph.neighbors import (
    mirror_missing,
    pairs_member_mask,
    symmetric_pairs,
)
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
from repro.sph.physics.positions import IntegrationConfig

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


def _random_asymmetric(n=300, seed=9):
    rng = np.random.default_rng(seed)
    p = ParticleSet.zeros(n)
    p.x[:] = rng.random(n)
    p.y[:] = rng.random(n)
    p.z[:] = rng.random(n)
    p.m[:] = 1.0 / n
    # Strongly asymmetric smoothing lengths: many pairs where j is
    # inside 2 h_i but i is outside 2 h_j.
    p.h[:] = 0.06 * (1.0 + 2.0 * rng.random(n))
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
            geom._sym_missing, mirror_missing(geom.i_idx, geom.j_idx)
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
        assert np.any(problem.geometry._sym_missing)

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
        i_idx, j_idx = symmetric_pairs(nlist)
        got = set(zip(i_idx.tolist(), j_idx.tolist()))
        assert got == closure
        assert len(i_idx) == len(closure)  # no duplicates introduced

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
