"""Per-step timeline records in the energy profiler."""

import pytest

from repro.core import baseline_policy
from repro.sph import Simulation
from repro.systems import Cluster, by_name


def test_timeline_one_record_per_step(mini_cluster):
    sim = Simulation(mini_cluster, "SubsonicTurbulence", 10e6)
    sim.run(4)
    assert len(sim.profiler.timeline) == 4
    for record in sim.profiler.timeline:
        assert "MomentumEnergy" in record
        t, j = record["MomentumEnergy"]
        assert t > 0 and j > 0


def test_timeline_sums_to_totals(mini_cluster):
    sim = Simulation(mini_cluster, "SubsonicTurbulence", 10e6)
    result = sim.run(3)
    total_gpu = sum(
        j for record in sim.profiler.timeline for (_, j) in record.values()
    )
    functions = result.report.aggregate_functions()
    expected = sum(rec.device_j["GPU"] for rec in functions.values())
    assert total_gpu == pytest.approx(expected, rel=1e-9)


def test_timeline_is_steady_for_model_workload(mini_cluster):
    """The model workload is stationary: per-step energy is constant."""
    sim = Simulation(
        mini_cluster, "SubsonicTurbulence", 10e6,
        policy=baseline_policy(1410),
    )
    sim.run(5)
    per_step = [
        sum(j for (_, j) in record.values())
        for record in sim.profiler.timeline
    ]
    assert max(per_step) - min(per_step) < 1e-6 * max(per_step)


def test_timeline_varies_under_online_tuning():
    """AutoDyn exploration makes early steps measurably different."""
    from repro.core import OnlineTuningPolicy

    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        policy = OnlineTuningPolicy(
            cluster.gpus, candidates_mhz=(1410.0, 1005.0),
            rounds_per_candidate=1,
        )
        sim = Simulation(
            cluster, "SubsonicTurbulence", 450**3, policy=policy
        )
        sim.run(4)
        per_step = [
            sum(j for (_, j) in record.values())
            for record in sim.profiler.timeline
        ]
        # Exploration steps (different clocks) differ; converged steps
        # settle.
        assert max(per_step) - min(per_step) > 1e-3 * max(per_step)
        assert per_step[-1] == pytest.approx(per_step[-2], rel=1e-6)
    finally:
        cluster.detach_management_library()
