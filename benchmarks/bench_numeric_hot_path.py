"""Step-loop throughput benchmark for the numeric SPH hot path.

Measures end-to-end instrumented step-loop throughput
(particles x steps per second) on the Sedov blast workload at the two
reference sizes (22^3 ~= 10k and 31^3 ~= 30k particles) and writes the
``BENCH_numeric.json`` artifact at the repo root. The artifact records
the measured throughput next to the pre-PR baseline (the last commit
before the shared StepGeometry / bincount scatter / Verlet-skin
overhaul, measured on the same machine with the same protocol) so the
speedup of the numeric overhaul stays an auditable number.

Modes::

    python benchmarks/bench_numeric_hot_path.py            # full, writes artifact
                                                           # (keeps its smoke entry)
    python benchmarks/bench_numeric_hot_path.py --smoke    # CI regression gate

``--smoke`` runs a small 12^3 case and compares against the
``smoke.throughput_pps`` recorded in the checked-in artifact: the run
fails (exit 1) if throughput drops below ``SMOKE_TOLERANCE`` times the
baseline (i.e. a >30% regression). CI machines are slower and noisier
than the machine that produced the artifact, so the smoke baseline is
deliberately the *CI-observed* number — refresh it by committing the
``--smoke --update`` output from a CI-representative machine.

The file matches the ``bench_*.py`` pytest pattern but defines no test
functions; the pytest-benchmark suite in this directory regenerates
paper figures, while this bench tracks raw numeric throughput.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

ARTIFACT = REPO_ROOT / "BENCH_numeric.json"

#: Throughput (particles * steps / s) of the step loop at the commit
#: preceding the numeric hot-path overhaul, measured with this exact
#: protocol (Sedov, seed 11, 5 steps) on the machine that produced the
#: checked-in artifact. Keyed by particle count.
PRE_PR_BASELINE_PPS = {10648: 4137.0, 29791: 2380.0}

#: Full-mode protocol: (nside, steps) cases and the Verlet skin.
FULL_CASES = [(22, 5), (31, 5)]
SKIN = 0.1
SEED = 11

#: Smoke-mode protocol (CI): small case, fail on >30% regression.
SMOKE_NSIDE = 12
SMOKE_STEPS = 3
SMOKE_TOLERANCE = 0.7


def run_case(nside: int, steps: int, skin: float) -> dict:
    """Run ``steps`` instrumented Sedov steps; return throughput stats."""
    from repro.sph import NumericProblem, Simulation
    from repro.sph.init import SedovConfig, make_sedov, make_sedov_eos
    from repro.systems import Cluster, by_name

    cfg = SedovConfig(nside=nside, blast_energy=1.0, seed=SEED)
    particles = make_sedov(cfg)
    cluster = Cluster(by_name("miniHPC"), n_ranks=1)
    try:
        problem = NumericProblem(
            particles=particles,
            n_ranks=1,
            eos=make_sedov_eos(cfg),
            box_size=cfg.box_size,
            skin=skin,
        )
        sim = Simulation(
            cluster,
            "SedovBlast",
            n_particles_per_rank=particles.n,
            numeric=problem,
        )
        sim.initialize()
        start = time.perf_counter()
        for _ in range(steps):
            sim._run_step()
        elapsed = time.perf_counter() - start
        return {
            "n_particles": particles.n,
            "nside": nside,
            "steps": steps,
            "skin": skin,
            "elapsed_s": round(elapsed, 3),
            "throughput_pps": round(particles.n * steps / elapsed, 1),
            "neighbor_rebuilds": problem.neighbor_rebuilds,
            "neighbor_reuses": problem.neighbor_reuses,
            "neighbor_rows_searched": problem.neighbor_rows_searched,
        }
    finally:
        cluster.detach_management_library()


def run_full(skin: float) -> dict:
    """Run the full protocol and assemble the artifact payload."""
    results = []
    for nside, steps in FULL_CASES:
        case = run_case(nside, steps, skin)
        baseline = PRE_PR_BASELINE_PPS.get(case["n_particles"])
        if baseline is not None:
            case["pre_pr_baseline_pps"] = baseline
            case["speedup_vs_pre_pr"] = round(
                case["throughput_pps"] / baseline, 2
            )
        results.append(case)
        print(
            f"n={case['n_particles']:>6} steps={steps} skin={skin}: "
            f"{case['throughput_pps']:>9.1f} p*s/s"
            + (
                f"  ({case['speedup_vs_pre_pr']:.2f}x vs pre-PR "
                f"{baseline:.0f})"
                if baseline is not None
                else ""
            )
        )
    return {
        "benchmark": "numeric_hot_path",
        "workload": "SedovBlast",
        "protocol": {
            "seed": SEED,
            "skin": skin,
            "metric": "particles * steps / wall_second (instrumented loop)",
            "pre_pr_ref": (
                "commit before the StepGeometry/bincount/Verlet-skin "
                "overhaul, same machine, same protocol"
            ),
        },
        "results": results,
    }


def run_smoke(update: bool) -> int:
    """CI regression gate: compare against the checked-in baseline."""
    case = run_case(SMOKE_NSIDE, SMOKE_STEPS, SKIN)
    print(
        f"smoke: n={case['n_particles']} steps={SMOKE_STEPS} "
        f"-> {case['throughput_pps']:.1f} p*s/s"
    )
    if not ARTIFACT.exists():
        print(f"error: {ARTIFACT.name} missing; run the full bench first")
        return 1
    payload = json.loads(ARTIFACT.read_text())
    if update:
        payload["smoke"] = case
        ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"updated smoke baseline in {ARTIFACT.name}")
        return 0
    baseline = payload.get("smoke", {}).get("throughput_pps")
    if baseline is None:
        print(f"error: no smoke baseline in {ARTIFACT.name}")
        return 1
    floor = SMOKE_TOLERANCE * baseline
    verdict = "ok" if case["throughput_pps"] >= floor else "REGRESSION"
    print(
        f"baseline {baseline:.1f} p*s/s, floor {floor:.1f} "
        f"({SMOKE_TOLERANCE:.0%}): {verdict}"
    )
    return 0 if verdict == "ok" else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast case; fail on >30%% regression vs artifact",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="with --smoke: rewrite the smoke baseline instead of gating",
    )
    parser.add_argument(
        "--skin",
        type=float,
        default=SKIN,
        help="Verlet skin in units of h (default %(default)s)",
    )
    args = parser.parse_args()

    if args.smoke:
        return run_smoke(args.update)

    payload = run_full(args.skin)
    # The smoke baseline is the CI-observed number (see the module
    # docstring): keep it, and only seed it when the artifact has none.
    if ARTIFACT.exists():
        payload["smoke"] = json.loads(ARTIFACT.read_text()).get("smoke")
    if payload.get("smoke") is None:
        payload["smoke"] = run_case(SMOKE_NSIDE, SMOKE_STEPS, args.skin)
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {ARTIFACT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
