"""Calibration round trip: sweep a known device, recover its spec.

The acceptance bar from the catalog design: ``P_idle``, ``P_dyn`` and
``alpha`` within 2 % of ground truth, per-kernel roofline fractions
within 5 % — via *both* ingest paths (self-contained telemetry trace,
and PMT dump + schedule sidecar).
"""

import json
import os

import pytest

from repro.catalog import build_system, load_system
from repro.catalog.fit import (
    CalibrationError,
    fit_from_dump,
    fit_from_trace,
    fit_to_spec_payload,
    load_schedule,
    run_calibration_sweep,
    verify_fit,
)
from repro.systems import by_name

POWER_TOL = 0.02
ROOFLINE_TOL = 0.05


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """One shared miniHPC sweep (the artifacts are read-only)."""
    out = str(tmp_path_factory.mktemp("sweep"))
    system = by_name("miniHPC")
    return system, run_calibration_sweep(system, out)


def _assert_within_tolerance(fit, spec):
    errors = verify_fit(fit, spec)
    assert errors["idle_power_w"] <= POWER_TOL
    assert errors["dynamic_power_w"] <= POWER_TOL
    assert errors["power_exponent"] <= POWER_TOL
    assert errors["fp_throughput"] <= POWER_TOL
    assert errors["mem_bandwidth"] <= POWER_TOL
    assert errors["kernels"], "no per-kernel roofline fits"
    for kernel_errors in errors["kernels"].values():
        assert kernel_errors["efficiency"] <= ROOFLINE_TOL
        assert kernel_errors["compute_fraction_max"] <= ROOFLINE_TOL


def test_trace_path_recovers_spec(sweep):
    system, result = sweep
    fit = fit_from_trace(result.trace_path)
    _assert_within_tolerance(fit, system.gpu_spec)


def test_dump_path_recovers_spec(sweep):
    system, result = sweep
    fit = fit_from_dump(result.dump_path, result.schedule_path)
    _assert_within_tolerance(fit, system.gpu_spec)


def test_both_paths_agree(sweep):
    _, result = sweep
    via_trace = fit_from_trace(result.trace_path)
    via_dump = fit_from_dump(result.dump_path, result.schedule_path)
    assert via_trace.idle_power_w == pytest.approx(via_dump.idle_power_w)
    assert via_trace.dynamic_power_w == pytest.approx(
        via_dump.dynamic_power_w
    )
    assert via_trace.power_exponent == pytest.approx(via_dump.power_exponent)


def test_sweep_artifacts_are_versioned(sweep):
    _, result = sweep
    with open(result.trace_path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
    assert header["schema"] == 1
    with open(result.schedule_path, encoding="utf-8") as fh:
        schedule = json.load(fh)
    assert schedule["schema"] == 1
    assert schedule["kind"] == "calibration-schedule"
    with open(result.dump_path, encoding="ascii") as fh:
        assert fh.readline().startswith("# {")


def test_throttled_windows_are_flagged_not_fitted(sweep):
    _, result = sweep
    meta, windows = load_schedule(result.schedule_path)
    assert all(not w.throttled for w in windows)  # cool sweep by design
    assert meta["system"] == "miniHPC"


def test_arch_efficiency_recovered_on_lumi(tmp_path):
    system = by_name("LUMI-G")
    result = run_calibration_sweep(system, str(tmp_path))
    fit = fit_from_trace(result.trace_path)
    payload = fit_to_spec_payload(fit, system)
    eff = payload["gpu"]["arch_efficiency"]
    truth = system.gpu_spec.arch_efficiency
    for kernel, value in truth.items():
        assert eff[kernel] == pytest.approx(value, rel=ROOFLINE_TOL)


def test_fitted_spec_file_builds_equivalent_system(sweep, tmp_path):
    from repro.catalog import write_spec_file

    system, result = sweep
    fit = fit_from_trace(result.trace_path)
    payload = fit_to_spec_payload(fit, system, name="minihpc-refit")
    rebuilt = build_system(payload, source="<fit>")
    truth = system.gpu_spec
    spec = rebuilt.gpu_spec
    assert spec.idle_power_w == pytest.approx(truth.idle_power_w,
                                              rel=POWER_TOL)
    assert spec.max_power_w == pytest.approx(truth.max_power_w,
                                             rel=POWER_TOL)
    assert spec.power_exponent == pytest.approx(truth.power_exponent,
                                                rel=POWER_TOL)
    path = str(tmp_path / "refit.yaml")
    write_spec_file(path, payload)
    assert load_system(path).name == "minihpc-refit"


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


def test_sweep_rejects_misaligned_window():
    with pytest.raises(ValueError, match="multiple"):
        run_calibration_sweep(by_name("miniHPC"), "/tmp/unused",
                              period_s=0.03, window_s=0.2)


def test_sweep_rejects_too_few_clocks(tmp_path):
    with pytest.raises(ValueError, match="3 distinct probe clocks"):
        run_calibration_sweep(by_name("miniHPC"), str(tmp_path),
                              clocks_mhz=[1410.0, 1005.0])


def test_fit_rejects_non_calibration_trace(tmp_path):
    path = str(tmp_path / "plain.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema": 1, "kind": "trace"}) + "\n")
    with pytest.raises(CalibrationError, match="calibration-meta"):
        fit_from_trace(path)


def test_fit_rejects_empty_dump(sweep, tmp_path):
    _, result = sweep
    empty = str(tmp_path / "empty.dat")
    with open(result.dump_path, encoding="ascii") as src, \
            open(empty, "w", encoding="ascii") as dst:
        dst.write(src.readline())  # header only
    with pytest.raises(CalibrationError, match="no samples"):
        fit_from_dump(empty, result.schedule_path)


def test_fit_needs_enough_probe_phases(sweep, tmp_path):
    _, result = sweep
    meta, windows = load_schedule(result.schedule_path)
    gutted = {
        "schema": 1,
        "kind": "calibration-schedule",
        "meta": meta,
        "probes": [w.to_dict() for w in windows if w.phase == "idle"][:1],
    }
    path = str(tmp_path / "gutted.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(gutted, fh)
    with pytest.raises(CalibrationError, match="idle"):
        fit_from_dump(result.dump_path, path)
