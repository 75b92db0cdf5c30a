"""Campaign executor throughput: serial vs parallel workers.

Runs the same paced 8-unit grid twice — once with one worker (the
inline serial path) and once with two worker processes — into fresh
run stores, and writes the ``BENCH_campaign.json`` artifact at the
repo root with both wall-clock times and the speedup.

Each unit is paced to ``MIN_UNIT_WALL_S`` of wall time via the spec's
``min_unit_wall_s`` knob, emulating campaign workers that block on real
hardware (a frequency sweep spends its time waiting on the GPU, not on
the orchestrator's CPU). Pacing is what makes the speedup measurement
meaningful on single-core CI runners: the serial path pays every
unit's wall time in sequence, the pool overlaps them, exactly like a
real multi-node campaign.

Modes::

    python benchmarks/bench_campaign_throughput.py          # writes artifact
    python benchmarks/bench_campaign_throughput.py --check  # gate: >= MIN_SPEEDUP

``--check`` writes the git-ignored ``BENCH_campaign.smoke.json``
instead of the tracked artifact (a gate run never rewrites the
recorded numbers), then exits 1 unless the 2-worker run is at least
``MIN_SPEEDUP`` times faster than serial.

The file matches the ``bench_*.py`` pytest pattern but defines no test
functions; it tracks orchestration throughput, not paper figures.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaign import CampaignSpec, ExecutorConfig, run_campaign  # noqa: E402

ARTIFACT = REPO_ROOT / "BENCH_campaign.json"
SMOKE_ARTIFACT = REPO_ROOT / "BENCH_campaign.smoke.json"

#: Pacing per unit (wall seconds); the grid has 8 units, so the serial
#: floor is 8x this and the 2-worker floor is 4x.
MIN_UNIT_WALL_S = 0.4

#: Acceptance gate: 2 workers must beat serial by at least this factor
#: on the paced grid (ISSUE criterion: >= 1.5x on a >= 8-unit grid).
MIN_SPEEDUP = 1.5


def make_spec() -> CampaignSpec:
    """An 8-unit grid: baseline + clock sweep + DVFS + ManDyn + sizes."""
    return CampaignSpec(
        name="bench-campaign-throughput",
        systems=("miniHPC",),
        workloads=("SedovBlast",),
        particles=(30_000.0, 60_000.0),
        steps=2,
        seeds=(0,),
        policies=(
            {"kind": "baseline"},
            {"kind": "static"},
            {"kind": "dvfs"},
            {"kind": "mandyn"},
        ),
        clocks_mhz=(1305.0, 1005.0),
        min_unit_wall_s=MIN_UNIT_WALL_S,
    )


def run_once(spec: CampaignSpec, workers: int) -> dict:
    with tempfile.TemporaryDirectory() as root:
        t0 = time.perf_counter()
        status, _store = run_campaign(
            spec, root, config=ExecutorConfig(workers=workers)
        )
        wall = time.perf_counter() - t0
    if not status.complete or status.failed:
        raise RuntimeError(f"campaign did not complete: {status.describe()}")
    return {
        "workers": workers,
        "units": status.total,
        "executed": status.executed,
        "wall_s": round(wall, 4),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit 1 unless 2-worker speedup >= {MIN_SPEEDUP}x",
    )
    args = parser.parse_args()

    spec = make_spec()
    serial = run_once(spec, workers=1)
    parallel = run_once(spec, workers=2)
    speedup = serial["wall_s"] / parallel["wall_s"]

    payload = {
        "schema": 1,
        "kind": "bench-campaign",
        "grid": {
            "units": serial["units"],
            "min_unit_wall_s": MIN_UNIT_WALL_S,
        },
        "serial": serial,
        "parallel": parallel,
        "speedup": round(speedup, 3),
        "min_speedup": MIN_SPEEDUP,
    }
    artifact = SMOKE_ARTIFACT if args.check else ARTIFACT
    artifact.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"{serial['units']} paced units: serial {serial['wall_s']:.2f}s, "
        f"2 workers {parallel['wall_s']:.2f}s -> speedup {speedup:.2f}x "
        f"(artifact: {artifact.name})"
    )
    if args.check and speedup < MIN_SPEEDUP:
        print(f"error: speedup {speedup:.2f}x < required {MIN_SPEEDUP}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
