"""Report diffing (A/B comparison) and its CLI subcommand."""

import pytest

from repro.cli import main
from repro.core import (
    ManDynPolicy,
    baseline_policy,
    diff_reports,
)
from repro.sph import run_instrumented
from repro.systems import Cluster, by_name

N = 450**3


def _run(policy):
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        return run_instrumented(
            cluster, "SubsonicTurbulence", N, 2, policy=policy
        )
    finally:
        cluster.detach_management_library()


@pytest.fixture(scope="module")
def ab_reports():
    a = _run(baseline_policy(1410.0)).report
    b = _run(
        ManDynPolicy(
            {"MomentumEnergy": 1410.0, "IADVelocityDivCurl": 1410.0},
            default_mhz=1005.0,
        )
    ).report
    return a, b


def test_diff_whole_run_ratios(ab_reports):
    a, b = ab_reports
    diff = diff_reports(a, b)
    assert 1.0 < diff.time_ratio < 1.05
    assert diff.gpu_energy_ratio < 0.95
    assert diff.edp_ratio == pytest.approx(
        diff.time_ratio * diff.gpu_energy_ratio
    )
    assert set(diff.device_ratios) == {"GPU", "CPU", "Memory", "Other"}


def test_diff_identity(ab_reports):
    a, _ = ab_reports
    diff = diff_reports(a, a)
    assert diff.time_ratio == pytest.approx(1.0)
    assert diff.gpu_energy_ratio == pytest.approx(1.0)
    for d in diff.functions:
        assert d.edp_ratio == pytest.approx(1.0)


def test_diff_per_function_structure(ab_reports):
    a, b = ab_reports
    diff = diff_reports(a, b)
    by_fn = {d.function: d for d in diff.functions}
    # ManDyn keeps the compute-bound pair at 1410: unchanged.
    assert by_fn["MomentumEnergy"].time_ratio == pytest.approx(1.0, abs=0.02)
    # Light kernels were down-clocked: slower but cheaper.
    assert by_fn["XMass"].time_ratio > 1.0
    assert by_fn["XMass"].gpu_energy_ratio < 0.85
    # Sorted by EDP ratio, best savings first.
    edps = [d.edp_ratio for d in diff.functions]
    assert edps == sorted(edps)


def test_cli_diff(tmp_path, capsys):
    a_path = str(tmp_path / "a.json")
    b_path = str(tmp_path / "b.json")
    assert main(["run", "--steps", "1", "--particles", "1e7",
                 "--report", a_path]) == 0
    assert main(["run", "--steps", "1", "--particles", "1e7",
                 "--policy", "mandyn", "--report", b_path]) == 0
    capsys.readouterr()
    assert main(["diff", a_path, b_path]) == 0
    out = capsys.readouterr().out
    assert "GPU energy  : x0." in out
    assert "per-function ratios" in out
