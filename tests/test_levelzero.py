"""Level Zero Sysman shim and the Intel future-work path."""

import pytest

from repro import levelzero
from repro.core import FrequencyController, ManDynPolicy, baseline_policy
from repro.hardware import KernelLaunch, SimulatedGpu, VirtualClock
from repro.pmt import PMT, create
from repro.sph import run_instrumented
from repro.systems import Cluster, by_name
from repro.units import mhz, to_mhz


@pytest.fixture
def pvc():
    clk = VirtualClock()
    gpus = [SimulatedGpu(by_name("Aurora-PVC").gpu_spec, clk, index=i) for i in range(2)]
    levelzero.attach_devices(gpus)
    levelzero.zesInit()
    return gpus


def test_uninitialized_raises():
    levelzero.detach_devices()
    with pytest.raises(levelzero.LevelZeroError):
        levelzero.zesDeviceGetCount()


def test_enumeration_and_domains(pvc):
    assert levelzero.zesDeviceGetCount() == 2
    assert "Max 1550" in levelzero.zesDeviceGetName(0)
    domains = levelzero.zesDeviceEnumFrequencyDomains(0)
    assert levelzero.ZES_FREQ_DOMAIN_GPU in domains
    assert levelzero.ZES_FREQ_DOMAIN_MEMORY in domains


def test_available_clocks_ascending(pvc):
    clocks = levelzero.zesFrequencyGetAvailableClocks(
        0, levelzero.ZES_FREQ_DOMAIN_GPU
    )
    assert clocks == sorted(clocks)
    assert clocks[0] == 900.0 and clocks[-1] == 1600.0


def test_set_range_pins_clock(pvc):
    levelzero.zesFrequencySetRange(
        0, levelzero.ZES_FREQ_DOMAIN_GPU, 1200.0, 1200.0
    )
    state = levelzero.zesFrequencyGetState(0, levelzero.ZES_FREQ_DOMAIN_GPU)
    assert state.actual == 1200.0
    assert levelzero.zesFrequencyGetRange(
        0, levelzero.ZES_FREQ_DOMAIN_GPU
    ) == (1200.0, 1200.0)


def test_full_range_restores_governor(pvc):
    levelzero.zesFrequencySetRange(
        0, levelzero.ZES_FREQ_DOMAIN_GPU, 1100.0, 1100.0
    )
    levelzero.zesFrequencySetRange(
        0, levelzero.ZES_FREQ_DOMAIN_GPU, 900.0, 1600.0
    )
    assert pvc[0].dvfs_active


def test_invalid_range_rejected(pvc):
    with pytest.raises(levelzero.LevelZeroError):
        levelzero.zesFrequencySetRange(
            0, levelzero.ZES_FREQ_DOMAIN_GPU, 1400.0, 1200.0
        )
    with pytest.raises(levelzero.LevelZeroError):
        levelzero.zesFrequencySetRange(
            0, levelzero.ZES_FREQ_DOMAIN_MEMORY, 1000.0, 1000.0
        )


def test_energy_counter_microjoules(pvc):
    pvc[0].execute(KernelLaunch("K", 1e13, 0.0, 1.0))
    counter = levelzero.zesPowerGetEnergyCounter(0)
    assert counter.energy_uj == pytest.approx(pvc[0].energy_j * 1e6, rel=1e-6)
    assert counter.timestamp_us == pytest.approx(
        pvc[0].clock.now * 1e6, abs=1.0
    )


def test_pmt_levelzero_backend(pvc):
    sensor = create("levelzero", device_index=0)
    begin = sensor.read()
    pvc[0].execute(KernelLaunch("K", 1e13, 0.0, 1.0))
    end = sensor.read()
    assert PMT.joules(begin, end) == pytest.approx(pvc[0].energy_j, rel=1e-3)
    assert PMT.watts(begin, end) > 0


def test_controller_drives_intel_devices(pvc):
    policy = ManDynPolicy({"MomentumEnergy": 1600.0}, default_mhz=1000.0)
    ctl = FrequencyController(pvc, policy)
    ctl.apply_initial_mode()
    assert to_mhz(pvc[0].application_clock_hz) == 1000.0
    ctl.before_function("MomentumEnergy", 0)
    assert to_mhz(pvc[0].application_clock_hz) == 1600.0
    ctl.before_function("XMass", 0)
    assert to_mhz(pvc[0].application_clock_hz) == 1000.0


def test_aurora_cluster_end_to_end():
    cluster = Cluster(by_name("Aurora-PVC"), 6)
    try:
        base = run_instrumented(
            cluster, "SubsonicTurbulence", 20e6, 2,
            policy=baseline_policy(1600.0),
        )
        assert base.gpu_energy_j > 0
    finally:
        cluster.detach_management_library()

    cluster2 = Cluster(by_name("Aurora-PVC"), 6)
    try:
        mandyn = run_instrumented(
            cluster2, "SubsonicTurbulence", 20e6, 2,
            policy=ManDynPolicy(
                {"MomentumEnergy": 1600.0, "IADVelocityDivCurl": 1600.0},
                default_mhz=1000.0,
            ),
        )
    finally:
        cluster2.detach_management_library()
    # The method carries over to Intel: energy down, small time cost.
    assert mandyn.gpu_energy_j < base.gpu_energy_j
    assert mandyn.elapsed_s < 1.06 * base.elapsed_s
