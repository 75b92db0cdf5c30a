"""Two-run kernel characterization and analytic frequency recommendation."""

import pytest

from repro.core import (
    KernelCharacter,
    ManDynPolicy,
    StaticFrequencyPolicy,
    baseline_policy,
    characterize_functions,
    recommend_frequencies,
)
from repro.sph import run_instrumented
from repro.systems import Cluster, by_name
from repro.tuner import tune_all_sph_functions

N = 450**3
CANDIDATES = [1410.0, 1305.0, 1200.0, 1110.0, 1005.0]


def _run(policy, steps=3):
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        return run_instrumented(
            cluster, "SubsonicTurbulence", N, steps, policy=policy
        )
    finally:
        cluster.detach_management_library()


@pytest.fixture(scope="module")
def characters():
    ref = _run(baseline_policy(1410.0))
    low = _run(StaticFrequencyPolicy(1110.0))
    return characterize_functions(ref.report, low.report, 1410.0, 1110.0)


def test_kappa_separates_kernel_classes(characters):
    assert characters["MomentumEnergy"].kappa > 0.7
    assert characters["IADVelocityDivCurl"].kappa > 0.55
    for light in ("XMass", "NormalizationGradh", "DomainDecompAndSync",
                  "Timestep"):
        assert characters[light].kappa < 0.25, light


def test_estimates_within_physical_bounds(characters):
    for ch in characters.values():
        assert 0.0 <= ch.kappa <= 1.0
        assert 0.0 <= ch.idle_fraction <= 1.0


def test_predictions_match_third_run(characters):
    """The fitted model must predict an *unseen* clock's measurements."""
    from repro.core import per_function_metrics

    probe = _run(StaticFrequencyPolicy(1005.0))
    measured = per_function_metrics(probe.report)
    for fn, ch in characters.items():
        t_pred = ch.predict_time(1005.0)
        e_pred = ch.predict_energy(1005.0)
        assert t_pred == pytest.approx(measured[fn].time_s, rel=0.05), fn
        assert e_pred == pytest.approx(measured[fn].energy_j, rel=0.08), fn


def test_recommendations_match_kernel_tuner(characters):
    recommended = recommend_frequencies(characters, CANDIDATES)
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        tuned = tune_all_sph_functions(
            cluster.gpus[0], N, CANDIDATES, iterations=1
        )
    finally:
        cluster.detach_management_library()
    # Two production runs reproduce the full tuner sweep's decisions
    # (within one clock bin on the near-tied compute kernels).
    for fn in tuned:
        assert abs(recommended[fn] - tuned[fn]) <= 105.0, fn


def test_recommended_mandyn_policy_works(characters):
    recommended = recommend_frequencies(characters, CANDIDATES)
    base = _run(baseline_policy(1410.0), steps=4)
    mandyn = _run(
        ManDynPolicy.from_tuning(recommended, default_mhz=1410.0), steps=4
    )
    assert mandyn.gpu_energy_j < 0.95 * base.gpu_energy_j
    assert mandyn.elapsed_s < 1.05 * base.elapsed_s


def test_character_input_validation(characters):
    ch = characters["MomentumEnergy"]
    with pytest.raises(ValueError):
        ch.predict_time(0.0)
    with pytest.raises(ValueError):
        ch.best_clock([])
    ref = _run(baseline_policy(1410.0), steps=1)
    with pytest.raises(ValueError):
        characterize_functions(ref.report, ref.report, 1110.0, 1410.0)


def test_kernel_character_predicts_reference_exactly():
    ch = KernelCharacter(
        function="F", kappa=0.5, idle_fraction=0.2, alpha=1.7,
        ref_freq_mhz=1410.0, ref_time_s=2.0, ref_energy_j=600.0,
    )
    assert ch.predict_time(1410.0) == pytest.approx(2.0)
    assert ch.predict_energy(1410.0) == pytest.approx(600.0)
    assert ch.predict_edp(1410.0) == pytest.approx(1200.0)
