"""Catalog schema validation: strict, actionable rejections."""

import copy
import os

import pytest

from repro.catalog import (
    CATALOG_SCHEMA_VERSION,
    SchemaError,
    load_payload,
    shipped_catalog_dir,
    validate_system_payload,
)


@pytest.fixture()
def payload():
    """A known-good payload (the shipped miniHPC spec), deep-copied."""
    path = os.path.join(shipped_catalog_dir(), "minihpc.json")
    return copy.deepcopy(load_payload(path))


def _reject(payload, match):
    with pytest.raises(SchemaError, match=match):
        validate_system_payload(payload, source="spec.yaml")


# ---------------------------------------------------------------------------
# header
# ---------------------------------------------------------------------------


def test_valid_payload_passes(payload):
    out = validate_system_payload(payload, source="spec.yaml")
    assert out["name"] == "miniHPC"
    assert out["schema"] == CATALOG_SCHEMA_VERSION


def test_missing_schema_version_says_what_to_add(payload):
    del payload["schema"]
    _reject(payload, r"add 'schema: 1'")


def test_future_schema_version_is_rejected(payload):
    payload["schema"] = CATALOG_SCHEMA_VERSION + 1
    _reject(payload, r"this build reads 1")


def test_boolean_schema_version_is_rejected(payload):
    payload["schema"] = True
    _reject(payload, r"expected an integer")


def test_wrong_kind_is_rejected(payload):
    payload["kind"] = "campaign-spec"
    _reject(payload, r"expected a 'system-spec' file")


def test_non_mapping_payload_is_rejected():
    with pytest.raises(SchemaError, match="expected a mapping"):
        validate_system_payload(["not", "a", "spec"], source="spec.yaml")


# ---------------------------------------------------------------------------
# unknown keys
# ---------------------------------------------------------------------------


def test_unknown_top_level_key_lists_known_keys(payload):
    payload["gpus"] = {}
    _reject(payload, r"unknown key\(s\) 'gpus'.*known:.*gpu.*measurement")


def test_unknown_nested_key_names_the_path(payload):
    payload["gpu"]["clocks"]["boost_mhz"] = 1500
    _reject(payload, r"gpu\.clocks: unknown key\(s\) 'boost_mhz'")


def test_unknown_overlay_knob_is_rejected(payload):
    payload["gpu"]["governor"] = {"quantums_ms": 20}
    _reject(payload, r"gpu\.governor: unknown key\(s\) 'quantums_ms'")


# ---------------------------------------------------------------------------
# units and ranges
# ---------------------------------------------------------------------------


def test_clock_in_hz_is_caught_by_plausibility_window(payload):
    payload["gpu"]["clocks"]["max_mhz"] = 1.41e9  # Hz, not MHz
    _reject(payload, r"outside the plausible range.*check the unit")


def test_boolean_where_number_expected_is_rejected(payload):
    payload["gpu"]["power"]["idle_w"] = True
    _reject(payload, r"gpu\.power\.idle_w: expected a number, got True")


def test_missing_required_key_names_unit(payload):
    del payload["gpu"]["power"]["idle_w"]
    _reject(payload, r"missing required key 'idle_w' \[a power draw")


def test_idle_power_above_max_power_is_rejected(payload):
    payload["gpu"]["power"]["idle_w"] = 500.0
    payload["gpu"]["power"]["max_w"] = 250.0
    _reject(payload, r"idle_w 500 must be below max_w 250")


def test_clock_window_must_be_whole_bins(payload):
    payload["gpu"]["clocks"]["step_mhz"] = 17.0  # 210..1410 not divisible
    _reject(payload, r"not a[\s\S]*whole number of 17 MHz bins")


def test_default_clock_outside_window_is_rejected(payload):
    payload["gpu"]["clocks"]["default_mhz"] = 2000.0
    _reject(payload, r"gpu\.clocks\.default_mhz.*outside")


def test_unknown_vendor_lists_choices(payload):
    payload["gpu"]["vendor"] = "cerebras"
    _reject(payload, r"'cerebras' is not one of amd, intel, nvidia")


def test_arch_efficiency_must_be_unit_interval(payload):
    payload["gpu"]["arch_efficiency"] = {"MomentumEnergy": 1.5}
    _reject(payload, r"gpu\.arch_efficiency\.MomentumEnergy")


def test_cpu_min_clock_above_nominal_is_rejected(payload):
    payload["cpu"]["nominal_mhz"] = 2000.0
    payload["cpu"]["min_mhz"] = 2400.0
    _reject(payload, r"min_mhz 2400 exceeds nominal_mhz 2000")


def test_unknown_pmt_backend_is_rejected(payload):
    payload["measurement"]["pmt_backend"] = "powercap"
    _reject(payload, r"not one of cray, levelzero, nvml, rocm")


def test_user_freq_control_must_be_boolean(payload):
    payload["measurement"]["allow_user_freq_control"] = "yes"
    _reject(payload, r"expected true/false, got 'yes'")


# ---------------------------------------------------------------------------
# error ergonomics
# ---------------------------------------------------------------------------


def test_schema_error_is_a_value_error_with_location(payload):
    payload["gpu"]["power"]["exponent"] = 9.0
    with pytest.raises(ValueError) as excinfo:
        validate_system_payload(payload, source="specs/box.yaml")
    err = excinfo.value
    assert isinstance(err, SchemaError)
    assert err.source == "specs/box.yaml"
    assert err.path == "gpu.power.exponent"
    assert str(err).startswith("specs/box.yaml: gpu.power.exponent:")
