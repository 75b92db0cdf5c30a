"""Pareto analysis and the online-tuning (AutoDyn) extension."""

import pytest

from repro.core import (
    Metrics,
    OnlineTuningPolicy,
    baseline_policy,
    knee_point,
    pareto_analysis,
    pareto_front,
)
from repro.sph import run_instrumented
from repro.systems import Cluster, by_name

# ---------------------------------------------------------------------------
# Pareto helpers
# ---------------------------------------------------------------------------


def _series():
    return {
        "baseline": Metrics(time_s=1.00, energy_j=1.00),
        "static1005": Metrics(time_s=1.19, energy_j=0.80),
        "mandyn": Metrics(time_s=1.03, energy_j=0.90),
        "dvfs": Metrics(time_s=1.01, energy_j=1.01),  # dominated
        "bad": Metrics(time_s=1.30, energy_j=1.10),  # dominated twice
    }


def test_pareto_front_members():
    front = pareto_front(_series())
    assert "baseline" in front
    assert "mandyn" in front
    assert "static1005" in front
    assert "dvfs" not in front
    assert "bad" not in front
    # Sorted by time: the fastest Pareto point first.
    assert front[0] == "baseline"


def test_dominated_points_name_their_dominators():
    points = {p.label: p for p in pareto_analysis(_series())}
    assert "baseline" in points["dvfs"].dominated_by
    assert points["mandyn"].optimal
    assert len(points["bad"].dominated_by) >= 2


def test_knee_point_is_best_edp_on_front():
    series = _series()
    knee = knee_point(series)
    # mandyn EDP = 0.927; static EDP = 0.952; baseline = 1.0.
    assert knee == "mandyn"


def test_pareto_empty_rejected():
    with pytest.raises(ValueError):
        pareto_analysis({})


def test_single_point_is_optimal():
    points = pareto_analysis({"only": Metrics(1.0, 1.0)})
    assert points[0].optimal


# ---------------------------------------------------------------------------
# Online tuning
# ---------------------------------------------------------------------------

N = 450**3
CANDIDATES = (1410.0, 1200.0, 1005.0)


def _run_auto(steps, rounds=2):
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        policy = OnlineTuningPolicy(
            cluster.gpus, candidates_mhz=CANDIDATES,
            rounds_per_candidate=rounds,
        )
        result = run_instrumented(
            cluster, "SubsonicTurbulence", N, steps, policy=policy
        )
        return result, policy
    finally:
        cluster.detach_management_library()


def test_autodyn_converges_to_offline_tuning_map():
    steps = 2 * len(CANDIDATES) + 2
    _, policy = _run_auto(steps)
    assert policy.fully_converged
    assert policy.converged_map["MomentumEnergy"] == 1410.0
    assert policy.converged_map["IADVelocityDivCurl"] == 1410.0
    for light in ("XMass", "NormalizationGradh", "DomainDecompAndSync"):
        assert policy.converged_map[light] == 1005.0, light


def test_autodyn_saves_energy_after_convergence():
    steps = 20
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        base = run_instrumented(
            cluster, "SubsonicTurbulence", N, steps,
            policy=baseline_policy(1410),
        )
    finally:
        cluster.detach_management_library()
    auto, policy = _run_auto(steps)
    assert policy.fully_converged
    e = auto.gpu_energy_j / base.gpu_energy_j
    t = auto.elapsed_s / base.elapsed_s
    assert e < 0.95  # real saving despite exploration overhead
    assert t < 1.08
    assert t * e < 0.99


def test_autodyn_exploration_budget():
    policy = OnlineTuningPolicy(
        [], candidates_mhz=CANDIDATES, rounds_per_candidate=3
    )
    assert policy.exploration_steps() == 9


def test_autodyn_validation():
    with pytest.raises(ValueError):
        OnlineTuningPolicy([], candidates_mhz=())
    with pytest.raises(ValueError):
        OnlineTuningPolicy([], rounds_per_candidate=0)


def test_autodyn_initial_mode_is_max_candidate():
    policy = OnlineTuningPolicy([], candidates_mhz=(1005.0, 1410.0, 1200.0))
    assert policy.initial_mode() == 1410.0
