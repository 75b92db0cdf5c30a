"""Cross-subsystem: AutoDyn online tuning under transient NVML faults.

The online tuner (`OnlineTuningPolicy`, the §V "AutoDyn" extension)
drives per-function clock changes through the same
`FrequencyController` the resilience layer protects. Under the
`flaky-clocks` scenario — 20 % of `nvmlDeviceSetApplicationsClocks`
calls time out transiently — the controller's retry/backoff must absorb
every injected timeout so the tuner still observes every candidate
clock and converges to the same pinned per-function map as a
fault-free run.
"""

import pytest

from repro.core import OnlineTuningPolicy, ResilienceConfig
from repro.faults import FaultInjector, build_plan
from repro.sph import run_instrumented
from repro.systems import Cluster, by_name

N = 450**3
CANDIDATES = (1410.0, 1200.0, 1005.0)
ROUNDS = 2


def _run_autodyn(faults_seed=None):
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        policy = OnlineTuningPolicy(
            cluster.gpus, candidates_mhz=CANDIDATES,
            rounds_per_candidate=ROUNDS,
        )
        kwargs = {}
        if faults_seed is not None:
            plan = build_plan("flaky-clocks", seed=faults_seed, n_ranks=1)
            kwargs["faults"] = FaultInjector(plan)
            kwargs["resilience"] = ResilienceConfig()
        steps = ROUNDS * len(CANDIDATES) + 4
        result = run_instrumented(
            cluster, "SubsonicTurbulence", N, steps, policy=policy, **kwargs
        )
        return result, policy, kwargs.get("faults")
    finally:
        cluster.detach_management_library()


@pytest.mark.parametrize("seed", [7, 20240])
def test_autodyn_converges_despite_transient_nvml_timeouts(seed):
    result, policy, injector = _run_autodyn(faults_seed=seed)

    # Faults really fired and the resilience layer absorbed them.
    assert result.faults_injected > 0
    assert result.retries > 0
    assert not result.degraded_ranks  # transient-only scenario
    assert not result.preempted

    # The tuner still converged to a pinned per-function clock map.
    assert policy.fully_converged
    pinned = policy.converged_map
    assert pinned["MomentumEnergy"] == 1410.0
    assert pinned["IADVelocityDivCurl"] == 1410.0
    for light in ("XMass", "NormalizationGradh", "DomainDecompAndSync"):
        assert pinned[light] == 1005.0, light
    assert set(pinned.values()) <= set(CANDIDATES)


def test_autodyn_map_matches_fault_free_run():
    _, faulty_policy, _ = _run_autodyn(faults_seed=7)
    _, clean_policy, _ = _run_autodyn(faults_seed=None)
    assert faulty_policy.converged_map == clean_policy.converged_map
