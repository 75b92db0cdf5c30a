"""Integration: the paper's qualitative results emerge from the models.

Each test corresponds to a figure/claim in DESIGN.md §4's shape-target
list. The benchmarks print the full tables; these tests pin the shapes
so regressions in the calibration are caught in CI.
"""

import numpy as np
import pytest

from repro.core import (
    DvfsPolicy,
    ManDynPolicy,
    StaticFrequencyPolicy,
    baseline_policy,
    function_share_percent,
    per_function_metrics,
)
from repro.slurm import JobSpec, SlurmController
from repro.sph import run_instrumented
from repro.systems import Cluster, by_name
from repro.tuner import tune_all_sph_functions

N_450 = 450**3  # 91.1M particles, the paper's miniHPC problem size
STEPS = 4


def _run(system, n_ranks, workload, n_per_rank, policy=None, steps=STEPS):
    cluster = Cluster(system, n_ranks)
    try:
        return run_instrumented(
            cluster, workload, n_per_rank, steps, policy=policy
        )
    finally:
        cluster.detach_management_library()


@pytest.fixture(scope="module")
def policy_runs():
    """Baseline / static-1005 / ManDyn / DVFS runs on miniHPC."""
    runs = {}
    runs["baseline"] = _run(
        by_name("miniHPC"), 1, "SubsonicTurbulence", N_450, baseline_policy(1410)
    )
    runs["static1005"] = _run(
        by_name("miniHPC"), 1, "SubsonicTurbulence", N_450, StaticFrequencyPolicy(1005)
    )
    runs["mandyn"] = _run(
        by_name("miniHPC"), 1, "SubsonicTurbulence", N_450,
        ManDynPolicy(
            {"MomentumEnergy": 1410.0, "IADVelocityDivCurl": 1410.0},
            default_mhz=1005.0,
        ),
    )
    runs["dvfs"] = _run(
        by_name("miniHPC"), 1, "SubsonicTurbulence", N_450, DvfsPolicy()
    )
    return runs


# ---------------------------------------------------------------------------
# Fig. 7: static vs DVFS vs ManDyn
# ---------------------------------------------------------------------------


def test_fig7_static_downscaling_tradeoff(policy_runs):
    base = policy_runs["baseline"]
    static = policy_runs["static1005"]
    t = static.elapsed_s / base.elapsed_s
    e = static.gpu_energy_j / base.gpu_energy_j
    # Paper: noticeable slowdown, significant energy cut, EDP slightly
    # below 1.0 (~0.975 at 1005 MHz).
    assert 1.12 < t < 1.30
    assert 0.72 < e < 0.88
    assert 0.93 < t * e < 1.0


def test_fig7_mandyn_headline_numbers(policy_runs):
    base = policy_runs["baseline"]
    mandyn = policy_runs["mandyn"]
    t = mandyn.elapsed_s / base.elapsed_s
    e = mandyn.gpu_energy_j / base.gpu_energy_j
    # Paper: performance loss <= 2.95 %, energy down up to 7.82 %,
    # EDP down ~4-5 %.
    assert 1.0 < t < 1.0295 + 0.01
    assert 0.90 <= e <= 0.95
    assert t * e < 0.97


def test_fig7_mandyn_beats_static_time(policy_runs):
    static = policy_runs["static1005"]
    mandyn = policy_runs["mandyn"]
    gain = 1.0 - mandyn.elapsed_s / static.elapsed_s
    # Paper: "a 16% decrease in time-to-solution" vs static 1005.
    assert 0.08 < gain < 0.22
    # While keeping energy in the same band (ManDyn trades a little
    # energy back for the 1410 MHz compute kernels).
    assert mandyn.gpu_energy_j < 1.2 * static.gpu_energy_j


def test_fig7_dvfs_no_faster_but_more_energy(policy_runs):
    base = policy_runs["baseline"]
    dvfs = policy_runs["dvfs"]
    t = dvfs.elapsed_s / base.elapsed_s
    e = dvfs.gpu_energy_j / base.gpu_energy_j
    # Paper: DVFS time ~ baseline; energy above baseline.
    assert 0.99 < t < 1.05
    assert e > 1.0


# ---------------------------------------------------------------------------
# Fig. 8: per-function static scaling
# ---------------------------------------------------------------------------


def test_fig8_per_function_ratios(policy_runs):
    base = per_function_metrics(policy_runs["baseline"].report)
    static = per_function_metrics(policy_runs["static1005"].report)

    def ratios(fn):
        return (
            static[fn].time_s / base[fn].time_s,
            static[fn].energy_j / base[fn].energy_j,
        )

    t_mom, e_mom = ratios("MomentumEnergy")
    assert t_mom > 1.20  # paper: "more than 20%"
    assert 0.82 < e_mom < 0.92  # paper: energy reduction ~13 %
    t_iad, e_iad = ratios("IADVelocityDivCurl")
    assert t_iad > 1.20
    assert 0.76 < e_iad < 0.90  # paper: ~19 %
    # All light functions gain at least 10 % EDP (paper claim).
    for fn in ("XMass", "NormalizationGradh", "DomainDecompAndSync",
               "FindNeighbors", "UpdateQuantities"):
        t, e = ratios(fn)
        assert t * e < 0.90, fn


# ---------------------------------------------------------------------------
# Fig. 2: tuner sweet spots
# ---------------------------------------------------------------------------


def test_fig2_tuned_frequencies_by_kernel_class():
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        freqs = [1410 - 15 * k for k in range(0, 28, 3)]
        best = tune_all_sph_functions(
            cluster.gpus[0], N_450, freqs, iterations=1
        )
        assert best["MomentumEnergy"] == 1410.0
        # IAD sits at or just below the max clock (paper Fig. 9: "above
        # 1350 MHz for IADVelocityDivCurl").
        assert best["IADVelocityDivCurl"] >= 1350.0
        for light in ("XMass", "NormalizationGradh", "EquationOfState",
                      "DomainDecompAndSync", "Timestep"):
            assert best[light] <= 1110.0, light
    finally:
        cluster.detach_management_library()


# ---------------------------------------------------------------------------
# Fig. 6: EDP vs problem size
# ---------------------------------------------------------------------------


def test_fig6_underutilized_gpu_has_interior_edp_optimum():
    sizes = {"450^3": 450**3, "200^3": 200**3}
    freqs = [1410, 1305, 1200, 1110, 1005]
    edp = {}
    for label, n in sizes.items():
        series = {}
        for f in freqs:
            run = _run(
                by_name("miniHPC"), 1, "SubsonicTurbulence", n,
                StaticFrequencyPolicy(f), steps=2,
            )
            series[f] = run.edp
        base = series[1410]
        edp[label] = {f: v / base for f, v in series.items()}
    # Large problem: down-scaling reduces EDP, bottoming out near 1005.
    large = edp["450^3"]
    assert large[1005] < large[1200] < large[1410]
    assert large[1005] <= large[1110] + 0.005
    # Small problem: the EDP drop is much deeper (paper: "EDP drops
    # significantly when the GPUs are not fully utilized"), and a
    # moderate clock like 1110 MHz already captures almost all of it.
    small = edp["200^3"]
    assert min(small.values()) < min(large.values()) - 0.03
    assert small[1110] < small[1410]
    assert small[1110] <= min(small.values()) + 0.03


# ---------------------------------------------------------------------------
# Figs. 4-5: device and function energy breakdowns
# ---------------------------------------------------------------------------


def test_fig4_gpu_dominates_energy():
    cluster = Cluster(by_name("CSCS-A100"), 4)
    try:
        run_instrumented(cluster, "SubsonicTurbulence", 150e6, 2)
        breakdown = cluster.device_energy_breakdown_j()
        total = sum(breakdown.values())
        gpu_pct = breakdown["GPU"] / total * 100.0
        # Paper: 76.4 % on CSCS-A100.
        assert 65.0 < gpu_pct < 85.0
        # "Other" is the second-largest slice.
        rest = {k: v for k, v in breakdown.items() if k != "GPU"}
        assert max(rest, key=rest.get) == "Other"
    finally:
        cluster.detach_management_library()


def test_fig5_momentum_energy_share_larger_on_amd():
    res_cscs = _run(by_name("CSCS-A100"), 4, "SubsonicTurbulence", 150e6, steps=2)
    res_lumi = _run(by_name("LUMI-G"), 8, "SubsonicTurbulence", 150e6, steps=2)
    share_cscs = function_share_percent(res_cscs.report, "GPU")[
        "MomentumEnergy"
    ]
    share_lumi = function_share_percent(res_lumi.report, "GPU")[
        "MomentumEnergy"
    ]
    # Paper: 25.29 % on CSCS-A100 vs 45.80 % on LUMI-G.
    assert share_lumi > share_cscs + 10.0
    assert share_lumi > 40.0


def test_fig5_evrard_adds_gravity_slice():
    res = _run(by_name("CSCS-A100"), 4, "EvrardCollapse", 80e6, steps=2)
    shares = function_share_percent(res.report, "GPU")
    assert shares.get("Gravity", 0.0) > 5.0


# ---------------------------------------------------------------------------
# Fig. 3: PMT vs Slurm
# ---------------------------------------------------------------------------


def test_fig3_pmt_below_slurm_by_setup_energy():
    cluster = Cluster(by_name("CSCS-A100"), 8)
    try:
        controller = SlurmController()
        controller.accounting.enable_energy_accounting()

        results = {}

        def app(cl, job):
            res = run_instrumented(cl, "SubsonicTurbulence", 150e6, 2)
            results["run"] = res
            return res

        job = controller.submit(
            JobSpec(name="turb", n_nodes=2, n_tasks=8), cluster, app
        )
        pmt_j = results["run"].report.total_j()
        slurm_j = job.consumed_energy_j
        # PMT (time-loop window) reads less than Slurm (job window)...
        assert pmt_j < slurm_j
        # ...but within a few percent: setup energy is small because the
        # GPUs idle through it (paper section IV-A).
        assert pmt_j > 0.80 * slurm_j
    finally:
        cluster.detach_management_library()


# ---------------------------------------------------------------------------
# Fig. 9: DVFS frequency trace
# ---------------------------------------------------------------------------


def test_fig9_dvfs_trace_structure():
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        from repro.sph import Simulation

        sim = Simulation(
            cluster, "SubsonicTurbulence", N_450, policy=DvfsPolicy()
        )
        sim.initialize()
        gpu = cluster.gpus[0]
        gpu.start_frequency_trace()

        # Trace per-function clock levels over one step.
        seen = {}
        orig_before = sim.hooks.fire_before

        def probe_before(fn, rank):
            orig_before(fn, rank)

        sim.profiler.open_window()
        for fn in sim.functions:
            sim._run_function(fn)
            seen[fn.name] = gpu.current_clock_hz / 1e6
        sim.profiler.close_window()
        trace = gpu.stop_frequency_trace()

        assert seen["MomentumEnergy"] == 1410.0  # boosts to max
        assert seen["IADVelocityDivCurl"] > 1350.0
        assert 1100.0 <= seen["DomainDecompAndSync"] <= 1300.0
        # End-of-step communication dips the clock below 1000 MHz.
        assert seen["Timestep"] < 1000.0 or seen["UpdateQuantities"] < 1410.0
        freqs = [f / 1e6 for _, f in trace]
        assert max(freqs) == 1410.0
        assert min(freqs) < 1000.0
    finally:
        cluster.detach_management_library()
