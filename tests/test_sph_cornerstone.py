"""Cornerstone substrate: Morton keys, decomposition, halos."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sph.cornerstone import (
    MORTON_BITS,
    Box,
    decompose,
    discover_halos,
    key_at_level,
    morton_decode,
    morton_encode,
    plan_exchange,
)

UNIT = Box.cube(0.0, 1.0)


def _points(n, seed=0):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 1.0, size=(n, 3))
    return p[:, 0], p[:, 1], p[:, 2]


def test_morton_roundtrip_exact():
    x, y, z = _points(500, seed=1)
    keys = morton_encode(x, y, z, UNIT)
    coords = morton_decode(keys)
    from repro.sph.cornerstone.morton import cell_coords

    expected = cell_coords(x, y, z, UNIT)
    assert np.array_equal(coords, expected)


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=25, deadline=None)
def test_morton_roundtrip_property(seed):
    x, y, z = _points(64, seed=seed)
    keys = morton_encode(x, y, z, UNIT)
    coords = morton_decode(keys)
    back = (
        coords[:, 0].astype(np.float64) / (1 << MORTON_BITS)
    )
    assert np.all(np.abs(back - x) < 2.0 ** -(MORTON_BITS - 1))


def test_morton_locality_nearby_points_share_prefix():
    x = np.array([0.5, 0.5 + 1e-7, 0.9])
    y = np.array([0.5, 0.5, 0.1])
    z = np.array([0.5, 0.5, 0.9])
    keys = morton_encode(x, y, z, UNIT)
    level8 = key_at_level(keys, 8)
    assert level8[0] == level8[1]
    assert level8[0] != level8[2]


def test_points_outside_box_rejected():
    with pytest.raises(ValueError):
        morton_encode(
            np.array([1.5]), np.array([0.5]), np.array([0.5]), UNIT
        )


def test_box_validation_and_bounding():
    with pytest.raises(ValueError):
        Box(1.0, 0.0, 0.0, 1.0, 0.0, 1.0)
    x, y, z = _points(100, seed=2)
    box = Box.bounding(x, y, z)
    assert box.xmin <= x.min() and box.xmax >= x.max()


def test_key_at_level_bounds():
    keys = morton_encode(*_points(10), UNIT)
    with pytest.raises(ValueError):
        key_at_level(keys, 25)
    assert np.all(key_at_level(keys, 0) == 0)


def test_decompose_balances_counts():
    x, y, z = _points(4000, seed=6)
    keys = np.sort(morton_encode(x, y, z, UNIT))
    for n_ranks in (1, 2, 4, 7):
        assignment = decompose(keys, n_ranks)
        ranks = assignment.rank_of_keys(keys)
        counts = np.bincount(ranks, minlength=n_ranks)
        assert counts.sum() == len(keys)
        assert counts.max() - counts.min() <= len(keys) // n_ranks * 0.5 + 2


def test_decompose_ranges_are_contiguous_in_sfc_order():
    x, y, z = _points(1000, seed=7)
    keys = np.sort(morton_encode(x, y, z, UNIT))
    assignment = decompose(keys, 4)
    ranks = assignment.rank_of_keys(keys)
    # Sorted keys must map to non-decreasing ranks.
    assert np.all(np.diff(ranks) >= 0)


def test_plan_exchange_counts_migrations():
    current = np.array([0, 0, 1, 1])
    target = np.array([0, 1, 1, 0])
    plan = plan_exchange(current, target, 2)
    assert plan.total_migrating == 2
    assert plan.send_counts[0, 1] == 1
    assert plan.send_counts[1, 0] == 1
    assert plan.bytes_per_pair()[0, 0] == 0.0


def test_plan_exchange_mismatched_inputs():
    with pytest.raises(ValueError):
        plan_exchange(np.array([0]), np.array([0, 1]), 2)


def test_halo_discovery_finds_boundary_particles():
    rng = np.random.default_rng(8)
    pos = rng.uniform(0, 1, size=(500, 3))
    h = np.full(500, 0.05)
    # Split by x coordinate into 2 ranks.
    ranks = (pos[:, 0] > 0.5).astype(np.int64)
    plan = discover_halos(pos, h, ranks, 2)
    assert plan.total_halos > 0
    # Halos of rank 1 owned by rank 0 sit near the x=0.5 boundary.
    idx = plan.halo_indices.get((0, 1), np.empty(0, dtype=np.int64))
    assert len(idx) > 0
    assert np.all(pos[idx, 0] > 0.5 - 2 * 0.05 - 1e-9)
    consumer_halos = plan.halos_for(1)
    assert set(idx).issubset(set(consumer_halos))


def test_halo_discovery_periodic_wraps():
    pos = np.array([[0.01, 0.5, 0.5], [0.99, 0.5, 0.5]])
    h = np.full(2, 0.04)
    ranks = np.array([0, 1])
    open_plan = discover_halos(pos, h, ranks, 2)
    periodic_plan = discover_halos(pos, h, ranks, 2, box_size=1.0)
    assert periodic_plan.total_halos > open_plan.total_halos


def test_halo_discovery_input_validation():
    with pytest.raises(ValueError):
        discover_halos(np.zeros((3, 3)), np.zeros(2), np.zeros(3), 1)
