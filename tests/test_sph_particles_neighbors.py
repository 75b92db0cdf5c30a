"""ParticleSet container and neighbor search."""

import numpy as np
import pytest

from repro.sph import (
    ParticleSet,
    find_neighbors,
    StepGeometry,
    find_neighbors_bruteforce,
)
from repro.sph.init import TurbulenceConfig, make_turbulence


def _random_particles(n=50, seed=0, box=None):
    rng = np.random.default_rng(seed)
    scale = box if box else 1.0
    pos = rng.uniform(0, scale, size=(n, 3))
    return ParticleSet(
        x=pos[:, 0], y=pos[:, 1], z=pos[:, 2],
        vx=np.zeros(n), vy=np.zeros(n), vz=np.zeros(n),
        m=np.full(n, 1.0 / n), h=np.full(n, 0.2 * scale), u=np.full(n, 1.0),
    )


def test_particleset_validates_shapes():
    with pytest.raises(ValueError):
        ParticleSet(
            x=np.zeros(3), y=np.zeros(2), z=np.zeros(3),
            vx=np.zeros(3), vy=np.zeros(3), vz=np.zeros(3),
            m=np.zeros(3), h=np.zeros(3), u=np.zeros(3),
        )


def test_ensure_derived_allocates_zeros():
    p = ParticleSet.zeros(5)
    assert p.rho is None
    p.ensure_derived()
    assert p.rho.shape == (5,)
    assert p.c33.shape == (5,)


def test_select_and_concatenate_roundtrip():
    p = _random_particles(20)
    first = p.select(np.arange(10))
    second = p.select(np.arange(10, 20))
    merged = ParticleSet.concatenate([first, second])
    assert merged.n == 20
    assert np.allclose(merged.x, p.x)


def test_conserved_helpers():
    p = _random_particles(10)
    p.vx[:] = 1.0
    assert p.total_mass() == pytest.approx(1.0)
    assert p.kinetic_energy() == pytest.approx(0.5)
    assert p.momentum()[0] == pytest.approx(1.0)
    assert p.internal_energy() == pytest.approx(1.0)


def test_neighbors_match_bruteforce_open_box():
    p = _random_particles(60, seed=3)
    fast = find_neighbors(p)
    slow = find_neighbors_bruteforce(p)
    assert np.array_equal(fast.offsets, slow.offsets)
    for i in range(p.n):
        assert set(fast.of(i)) == set(slow.of(i))


def test_neighbors_match_bruteforce_periodic():
    p = _random_particles(50, seed=4, box=1.0)
    p.h[:] = 0.15
    fast = find_neighbors(p, box_size=1.0)
    slow = find_neighbors_bruteforce(p, box_size=1.0)
    for i in range(p.n):
        assert set(fast.of(i)) == set(slow.of(i))


def test_self_excluded_from_neighbors():
    p = _random_particles(30, seed=5)
    nlist = find_neighbors(p)
    for i in range(p.n):
        assert i not in nlist.of(i)


def test_periodic_wrapping_finds_cross_boundary_pairs():
    n = 2
    p = ParticleSet(
        x=np.array([0.01, 0.99]), y=np.array([0.5, 0.5]),
        z=np.array([0.5, 0.5]),
        vx=np.zeros(n), vy=np.zeros(n), vz=np.zeros(n),
        m=np.ones(n), h=np.full(n, 0.05), u=np.ones(n),
    )
    nlist = find_neighbors(p, box_size=1.0)
    assert 1 in nlist.of(0)
    open_list = find_neighbors(p)
    assert 1 not in open_list.of(0)


def test_positions_outside_periodic_box_rejected():
    p = _random_particles(5)
    p.x[0] = 1.5
    with pytest.raises(ValueError):
        find_neighbors(p, box_size=1.0)


def test_neighbor_counts_and_stats():
    p = make_turbulence(TurbulenceConfig(nside=8, seed=2))
    nlist = find_neighbors(p, box_size=1.0)
    counts = nlist.counts()
    assert counts.sum() == nlist.total_pairs
    assert nlist.mean_count() == pytest.approx(counts.mean())
    # Target ~100 neighbors in a near-uniform box.
    assert 50 < nlist.mean_count() < 200


def test_pair_displacements_minimum_image():
    p = ParticleSet(
        x=np.array([0.02, 0.98]), y=np.array([0.5, 0.5]),
        z=np.array([0.5, 0.5]),
        vx=np.zeros(2), vy=np.zeros(2), vz=np.zeros(2),
        m=np.ones(2), h=np.full(2, 0.05), u=np.ones(2),
    )
    nlist = find_neighbors(p, box_size=1.0)
    geom = StepGeometry.build(p, nlist, box_size=1.0)
    assert geom.pairs.m == 2  # each particle sees the other across the wall
    assert np.all(geom.r < 0.1)  # wrapped distance, not 0.96
    assert np.all(np.abs(geom.dx) < 0.1)
    # d = x_i - x_j: 0.02 - 0.98 wraps to +0.04 for i = 0.
    assert geom.dx[geom.i_idx == 0] == pytest.approx(0.04)


def _lattice(side=4, spacing=0.25, h=0.125):
    """Cubic lattice whose axis neighbors sit exactly on the search
    radius ``2 h`` (every coordinate and distance is exact in binary)."""
    g = np.arange(side) * spacing
    x, y, z = (a.ravel() for a in np.meshgrid(g, g, g, indexing="ij"))
    n = len(x)
    return ParticleSet(
        x=x, y=y, z=z,
        vx=np.zeros(n), vy=np.zeros(n), vz=np.zeros(n),
        m=np.ones(n), h=np.full(n, h), u=np.ones(n),
    )


@pytest.mark.parametrize("box", [None, 1.0])
def test_bruteforce_matches_tree_on_exact_ties(box):
    """Both searches keep pairs at exactly ``r == 2 h`` (closed bound)
    and list each row in increasing index order."""
    p = _lattice()
    fast = find_neighbors(p, support_radius=2.0, box_size=box)
    slow = find_neighbors_bruteforce(p, support_radius=2.0, box_size=box)
    assert np.array_equal(fast.offsets, slow.offsets)
    assert np.array_equal(fast.neighbors, slow.neighbors)
    # Only the exact-tie axis neighbors are inside the support: six per
    # particle when periodic, fewer at the faces of the open lattice.
    counts = fast.counts()
    assert counts.max() == 6
    if box is None:
        assert counts.min() == 3
    else:
        assert np.all(counts == 6)


def test_rows_argument_queries_a_subset():
    p = _random_particles(80, seed=6)
    full = find_neighbors(p, support_radius=2.0)
    rows = np.array([0, 5, 6, 41, 79])
    part = find_neighbors(p, support_radius=2.0, rows=rows)
    assert part.n == len(rows)
    for k, i in enumerate(rows):
        assert np.array_equal(part.of(k), full.of(i))


def test_replace_rows_splices_csr():
    p = _random_particles(60, seed=7)
    old = find_neighbors(p, support_radius=1.0)
    new = find_neighbors(p, support_radius=2.0)
    rows = np.array([0, 1, 30, 59])
    spliced = old.replace_rows(
        rows, find_neighbors(p, support_radius=2.0, rows=rows)
    )
    for i in range(p.n):
        want = new.of(i) if i in rows else old.of(i)
        assert np.array_equal(spliced.of(i), want)
    everything = np.arange(p.n)
    whole = old.replace_rows(everything, new)
    assert np.array_equal(whole.offsets, new.offsets)
    assert np.array_equal(whole.neighbors, new.neighbors)
