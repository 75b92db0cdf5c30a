"""Shared fixtures: clean device registries, small clusters, particles."""

from __future__ import annotations

import numpy as np
import pytest

from repro import levelzero, nvml, rocm
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
