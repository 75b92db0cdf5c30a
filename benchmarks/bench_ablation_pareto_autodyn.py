"""Ablation / extension — Pareto front and online tuning (AutoDyn).

§IV-D frames the methodology as "identifying Pareto-optimal solutions
that provide acceptable performance and lower energy consumption".
This bench maps the whole (time, energy) trade-off space — static
clocks, DVFS, offline-tuned ManDyn, and the AutoDyn extension that
tunes per-function clocks *online* during the first steps of the run —
and verifies that:

* the static-frequency points trace the expected trade-off curve,
* DVFS is Pareto-dominated (the paper's Fig. 7 observation),
* ManDyn sits on the Pareto front and is the EDP knee,
* AutoDyn converges to the offline-tuned map and lands near ManDyn
  without any offline tuning pass.
"""

from __future__ import annotations

from repro.core import (
    DvfsPolicy,
    ManDynPolicy,
    Metrics,
    OnlineTuningPolicy,
    StaticFrequencyPolicy,
    baseline_policy,
    knee_point,
    pareto_analysis,
)
from repro.reporting import render_table
from repro.systems import Cluster, by_name
from repro.sph import run_instrumented

N = 450**3
STEPS = 20
MANDYN = {"MomentumEnergy": 1410.0, "IADVelocityDivCurl": 1410.0}
CANDIDATES = (1410.0, 1200.0, 1005.0)


def _run(policy_factory):
    cluster = Cluster(by_name("miniHPC"), 1)
    try:
        policy = policy_factory(cluster)
        result = run_instrumented(
            cluster, "SubsonicTurbulence", N, STEPS, policy=policy
        )
        return result, policy
    finally:
        cluster.detach_management_library()


def bench_ablation_pareto_autodyn(benchmark):
    def experiment():
        runs = {}
        runs["baseline 1410"], _ = _run(lambda c: baseline_policy(1410.0))
        for f in (1305, 1200, 1110, 1005):
            runs[f"static {f}"], _ = _run(
                lambda c, f=f: StaticFrequencyPolicy(float(f))
            )
        runs["DVFS"], _ = _run(lambda c: DvfsPolicy())
        runs["ManDyn"], _ = _run(
            lambda c: ManDynPolicy(MANDYN, default_mhz=1005.0)
        )
        runs["AutoDyn"], auto_policy = _run(
            lambda c: OnlineTuningPolicy(
                c.gpus, candidates_mhz=CANDIDATES, rounds_per_candidate=2
            )
        )
        series = {
            label: Metrics(time_s=r.elapsed_s, energy_j=r.gpu_energy_j)
            for label, r in runs.items()
        }
        return series, auto_policy.converged_map

    series, auto_map = benchmark(experiment)

    points = pareto_analysis(series)
    base = series["baseline 1410"]
    rows = [
        [
            p.label,
            f"{p.metrics.time_s / base.time_s:.4f}",
            f"{p.metrics.energy_j / base.energy_j:.4f}",
            "front" if p.optimal else f"dominated by {p.dominated_by[0]}",
        ]
        for p in points
    ]
    print()
    print(
        render_table(
            ["configuration", "time", "GPU energy", "Pareto status"],
            rows,
            title="Pareto analysis of the time/energy trade-off (section IV-D)",
        )
    )
    print(f"EDP knee of the front: {knee_point(series)}")
    print(f"AutoDyn converged map: {auto_map}")

    by_label = {p.label: p for p in points}
    # DVFS is dominated (slower AND hungrier than the baseline).
    assert not by_label["DVFS"].optimal
    # Baseline (fastest) and static 1005 (frugal) anchor the front.
    assert by_label["baseline 1410"].optimal
    assert by_label["static 1005"].optimal
    # ManDyn is on the front and is the best-EDP knee.
    assert by_label["ManDyn"].optimal
    assert knee_point(series) == "ManDyn"
    # AutoDyn found the same per-function map as offline tuning...
    assert auto_map["MomentumEnergy"] == 1410.0
    assert auto_map["XMass"] == 1005.0
    # ...and lands within a point or two of ManDyn on both axes.
    md, ad = series["ManDyn"], series["AutoDyn"]
    assert abs(ad.time_s / md.time_s - 1.0) < 0.03
    assert abs(ad.energy_j / md.energy_j - 1.0) < 0.03
