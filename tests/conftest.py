"""Shared fixtures: clean device registries, small clusters, particles,
and a gate that holds inline campaign units open."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import levelzero, nvml, rocm
from repro.campaign import executor as campaign_executor
from repro.hardware import SimulatedGpu, VirtualClock
from repro.sph.init import TurbulenceConfig, make_turbulence
from repro.systems import Cluster, by_name


@pytest.fixture(autouse=True)
def clean_device_registries():
    """Detach NVML/ROCm device registries around every test."""
    yield
    nvml.detach_devices()
    rocm.detach_devices()
    levelzero.detach_devices()


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def a100(clock):
    return SimulatedGpu(by_name("CSCS-A100").gpu_spec, clock)


@pytest.fixture
def gcd(clock):
    return SimulatedGpu(by_name("LUMI-G").gpu_spec, clock)


@pytest.fixture
def mini_cluster():
    cluster = Cluster(by_name("miniHPC"), 1)
    yield cluster
    cluster.detach_management_library()


@pytest.fixture
def cscs_cluster():
    cluster = Cluster(by_name("CSCS-A100"), 8)
    yield cluster
    cluster.detach_management_library()


@pytest.fixture
def lumi_cluster():
    cluster = Cluster(by_name("LUMI-G"), 16)
    yield cluster
    cluster.detach_management_library()


@pytest.fixture(scope="session")
def small_turbulence():
    """A small, reusable turbulence particle set (session-scoped; copy
    before mutating)."""
    return make_turbulence(TurbulenceConfig(nside=10, seed=7))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class UnitGate:
    """Holds each inline campaign unit open once its real run returns.

    Stands in for ``repro.campaign.executor.run_unit_safe``: the unit
    computes as usual, then parks until the test calls :meth:`open`,
    so a test can keep a unit in flight without sleeping. Pool lanes
    cannot pickle the gate; it serves ``workers <= 1`` drains only.
    """

    def __init__(self, real, timeout_s: float = 30.0) -> None:
        self._real = real
        self._timeout_s = timeout_s
        self._open = threading.Event()
        self._parked = threading.Condition()
        self.parked = 0

    def __call__(self, *args, **kwargs):
        outcome = self._real(*args, **kwargs)
        with self._parked:
            self.parked += 1
            self._parked.notify_all()
        self._open.wait(self._timeout_s)
        return outcome

    def open(self) -> None:
        """Let every parked and future unit through."""
        self._open.set()

    def wait_parked(self, n: int) -> bool:
        """Block until ``n`` units have reached the gate."""
        with self._parked:
            return self._parked.wait_for(
                lambda: self.parked >= n, self._timeout_s
            )


@pytest.fixture
def unit_gate(monkeypatch):
    gate = UnitGate(campaign_executor.run_unit_safe)
    monkeypatch.setattr(campaign_executor, "run_unit_safe", gate)
    yield gate
    gate.open()
