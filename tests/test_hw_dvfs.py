"""DVFS governor behaviour (Fig. 9 dynamics)."""

import pytest

from repro.hardware import DvfsGovernor
from repro.systems import by_name
from repro.units import mhz, to_mhz


@pytest.fixture
def gov():
    return DvfsGovernor(by_name("CSCS-A100").gpu_spec)


def test_initial_clock_is_supported(gov):
    spec = by_name("CSCS-A100").gpu_spec
    assert gov.clock_hz in spec.supported_clocks_hz()


def test_full_intensity_launch_boosts_to_max(gov):
    gov.note_launch(1.0)
    gov.observe_busy(0.1, 1.0)
    assert to_mhz(gov.clock_hz) == 1410.0


def test_compute_heavy_reaches_above_1350(gov):
    gov.note_launch(0.92)
    for _ in range(20):
        gov.observe_busy(0.01, 0.92)
    assert to_mhz(gov.clock_hz) > 1350.0


def test_lightweight_burst_sits_near_1200(gov):
    # DomainDecompAndSync: many tiny launches, low real intensity.
    for _ in range(50):
        gov.note_launch(0.3)
        gov.observe_busy(0.002, 0.3)
    assert 1100.0 <= to_mhz(gov.clock_hz) <= 1300.0


def test_idle_decays_below_1000(gov):
    gov.note_launch(1.0)
    gov.observe_busy(0.05, 1.0)
    gov.observe_idle(0.5)
    assert to_mhz(gov.clock_hz) < 1000.0


def test_long_idle_approaches_idle_clock(gov):
    gov.observe_idle(5.0)
    assert gov.clock_hz <= by_name("CSCS-A100").gpu_spec.governor.idle_clock_hz + mhz(30)


def test_utilization_estimate_bounded(gov):
    for _ in range(100):
        gov.note_launch(1.0)
        gov.observe_busy(0.01, 1.0)
    assert 0.0 <= gov.utilization_estimate <= 1.0


def test_transitions_counted(gov):
    start = gov.transitions
    gov.note_launch(1.0)
    gov.observe_busy(0.1, 1.0)
    gov.observe_idle(1.0)
    assert gov.transitions > start


def test_boost_residency_window(gov):
    gov.note_launch(1.0)
    gov.observe_busy(0.02, 1.0)
    # Immediately after a launch: residency power held.
    assert gov.residency_intensity > 0.0
    gov.observe_idle(1.0)
    assert gov.residency_intensity == 0.0


def test_negative_dt_rejected(gov):
    with pytest.raises(ValueError):
        gov.observe_busy(-1.0, 0.5)
    with pytest.raises(ValueError):
        gov.observe_idle(-1.0)


def test_decision_snapshot_consistent(gov):
    gov.note_launch(0.8)
    d = gov.decision()
    assert d.clock_hz == gov.clock_hz
    assert d.voltage_margin_hz == gov.voltage_margin_hz
