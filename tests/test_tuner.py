"""KernelTuner-style tuner: strategies, observers, frequency sweeps."""

import pytest

from repro.hardware import KernelLaunch, SimulatedGpu, VirtualClock
from repro.systems import by_name
from repro.tuner import (
    FREQUENCY_PARAM,
    enumerate_space,
    brute_force,
    greedy_descent,
    random_sample,
    sph_kernel_source,
    tune_all_sph_functions,
    tune_kernel,
)


@pytest.fixture
def gpu():
    return SimulatedGpu(by_name("miniHPC").gpu_spec, VirtualClock())


FREQS = [1410, 1305, 1200, 1110, 1005]


def test_enumerate_space_cartesian():
    space = enumerate_space({"a": [1, 2], "b": ["x", "y", "z"]})
    assert len(space) == 6
    assert {"a": 1, "b": "x"} in space


def test_enumerate_space_empty():
    assert enumerate_space({}) == [{}]


def test_random_sample_fraction():
    space = {"a": list(range(10))}
    sampled = random_sample(space, fraction=0.3, seed=1)
    assert len(sampled) == 3
    with pytest.raises(ValueError):
        random_sample(space, fraction=0.0)


def test_greedy_descent_finds_quadratic_minimum():
    values = list(range(20))
    visited = greedy_descent(
        {"x": values}, lambda cfg: (cfg["x"] - 13) ** 2, seed=3, restarts=3
    )
    assert any(cfg["x"] == 13 for cfg in visited)
    assert len(visited) < 20  # did not enumerate everything


def test_tune_kernel_brute_force_frequency(gpu):
    source = sph_kernel_source("MomentumEnergy", 450**3)
    results, best = tune_kernel(
        "MomentumEnergy",
        source,
        450**3,
        {FREQUENCY_PARAM: FREQS},
        gpu,
        iterations=2,
    )
    assert len(results) == len(FREQS)
    for rec in results:
        assert rec["time"] > 0 and rec["energy"] > 0 and rec["power"] > 0
    # Compute-bound kernel: best EDP at the maximum clock.
    assert best[FREQUENCY_PARAM] == 1410


def test_memory_bound_kernel_tunes_low(gpu):
    source = sph_kernel_source("XMass", 450**3)
    _, best = tune_kernel(
        "XMass", source, 450**3, {FREQUENCY_PARAM: FREQS}, gpu, iterations=2
    )
    assert best[FREQUENCY_PARAM] <= 1110


def test_objectives_change_winner(gpu):
    source = sph_kernel_source("XMass", 450**3)
    _, best_time = tune_kernel(
        "XMass", source, 450**3, {FREQUENCY_PARAM: FREQS}, gpu,
        objective="time", iterations=1,
    )
    _, best_energy = tune_kernel(
        "XMass", source, 450**3, {FREQUENCY_PARAM: FREQS}, gpu,
        objective="energy", iterations=1,
    )
    assert best_time[FREQUENCY_PARAM] == 1410
    assert best_energy[FREQUENCY_PARAM] == 1005


def test_block_size_parameter(gpu):
    source = sph_kernel_source("MomentumEnergy", 10**6)
    results, best = tune_kernel(
        "MomentumEnergy",
        source,
        10**6,
        {"block_size": [64, 128, 256, 512]},
        gpu,
        objective="time",
        iterations=1,
    )
    assert best["block_size"] == 256  # the efficiency-curve peak


def test_unsupported_frequency_rejected(gpu):
    source = sph_kernel_source("XMass", 10**6)
    with pytest.raises(ValueError):
        tune_kernel(
            "XMass", source, 10**6, {FREQUENCY_PARAM: [1007]}, gpu,
            iterations=1,
        )


def test_input_validation(gpu):
    source = sph_kernel_source("XMass", 10**6)
    with pytest.raises(ValueError):
        tune_kernel("XMass", source, 0, {FREQUENCY_PARAM: FREQS}, gpu)
    with pytest.raises(ValueError):
        tune_kernel("XMass", source, 10, {}, gpu)
    with pytest.raises(ValueError):
        tune_kernel(
            "XMass", source, 10, {FREQUENCY_PARAM: FREQS}, gpu, iterations=0
        )
    with pytest.raises(ValueError):
        tune_kernel(
            "XMass", source, 10, {FREQUENCY_PARAM: FREQS}, gpu,
            strategy="quantum",
        )
    with pytest.raises(ValueError):
        tune_kernel(
            "XMass", source, 10, {FREQUENCY_PARAM: FREQS}, gpu,
            objective="beauty",
        )


def test_greedy_strategy_on_frequency(gpu):
    source = sph_kernel_source("MomentumEnergy", 450**3)
    results, best = tune_kernel(
        "MomentumEnergy",
        source,
        450**3,
        {FREQUENCY_PARAM: FREQS},
        gpu,
        strategy="greedy",
        iterations=1,
        strategy_options={"seed": 5, "restarts": 2},
    )
    assert best[FREQUENCY_PARAM] == 1410


def test_tune_all_sph_functions_fig2_shape(gpu):
    best = tune_all_sph_functions(gpu, 450**3, FREQS, iterations=1)
    # Compute-bound functions keep the max clock; the light ones drop.
    assert best["MomentumEnergy"] == 1410.0
    assert best["IADVelocityDivCurl"] == 1410.0
    assert best["XMass"] < 1410.0
    assert best["NormalizationGradh"] < 1410.0
    assert best["DomainDecompAndSync"] < 1410.0
