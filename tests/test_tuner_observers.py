"""Tuner observers measured directly against device ground truth."""

import pytest

from repro.hardware import KernelLaunch, SimulatedGpu, VirtualClock
from repro.systems import by_name
from repro.tuner import (
    EnergyObserver,
    PowerObserver,
    TimeObserver,
    default_observers,
)


@pytest.fixture
def gpu():
    return SimulatedGpu(by_name("CSCS-A100").gpu_spec, VirtualClock())


KERNEL = KernelLaunch("K", flops=1e12, bytes_moved=1e11, power_intensity=1.0)


def _observe(gpu, observer, iterations=3):
    for _ in range(iterations):
        observer.before_start(gpu)
        gpu.execute(KERNEL)
        observer.after_finish(gpu)
    return observer.get_results()


def test_time_observer_averages_duration(gpu):
    results = _observe(gpu, TimeObserver())
    expected = gpu.perf_model.duration(KERNEL, gpu.current_clock_hz)
    assert results["time"] == pytest.approx(expected, rel=1e-9)


def test_energy_observer_matches_counter_delta(gpu):
    e0 = gpu.energy_j
    results = _observe(gpu, EnergyObserver())
    assert results["energy"] == pytest.approx(
        (gpu.energy_j - e0) / 3.0, rel=1e-9
    )


def test_power_observer_reads_busy_power(gpu):
    results = _observe(gpu, PowerObserver())
    assert results["power"] == pytest.approx(
        gpu.spec.max_power_w, rel=1e-6
    )


def test_observers_before_any_iteration_return_zero(gpu):
    assert TimeObserver().get_results() == {"time": 0.0}
    assert EnergyObserver().get_results() == {"energy": 0.0}
    assert PowerObserver().get_results() == {"power": 0.0}


def test_default_observer_set(gpu):
    observers = default_observers()
    kinds = {type(o).__name__ for o in observers}
    assert kinds == {"TimeObserver", "EnergyObserver", "PowerObserver"}
    merged = {}
    for o in observers:
        _observe(gpu, o, iterations=1)
        merged.update(o.get_results())
    assert merged["time"] > 0
    assert merged["energy"] == pytest.approx(
        merged["power"] * merged["time"], rel=1e-6
    )
