"""model-campaign: a 120-unit model-scale grid drained by two lanes.

One operation drains the grid 3 workloads x {baseline, static at 1305
and 1005 MHz, dvfs, mandyn} x {miniHPC, LUMI-G} x {1e6, 4e6} particles
x 2 seeds at 20 steps into a fresh run store with
``ExecutorConfig(workers=2)``. The seed argument picks the two unit
seeds. Both systems accept application clocks (CSCS-A100 refuses them
by design, so its static units would fail).

After each drain the benchmark times ``STATUS_QUERIES`` status queries
of the finished store, each what ``repro campaign status --json`` does
(a fresh ``RunStore`` plus ``build_status_doc``). They run after the
drain, not beside it: a watcher thread sharing the interpreter lock
with the executor made the drain time itself swing by a third.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from . import common

NAME = "model-campaign"
LANES = 2
PARALLELISM = LANES
REPEATED_OPS = True
TRACE_OPS = 2
#: ``repro campaign status`` queries timed after each drain.
STATUS_QUERIES = 200
#: Every CHECK_STRIDE-th unit is recomputed inline after timing.
CHECK_STRIDE = 10
SIZES = {
    "full": {
        "workloads": ("SedovBlast", "SubsonicTurbulence", "EvrardCollapse"),
        "systems": ("miniHPC", "LUMI-G"),
        "particles": (1.0e6, 4.0e6),
        "steps": 20,
        "policies": ("baseline", "static", "dvfs", "mandyn"),
    },
    "tiny": {
        "workloads": ("SedovBlast",),
        "systems": ("miniHPC",),
        "particles": (1.0e6,),
        "steps": 2,
        "policies": ("baseline", "static"),
    },
}


@dataclass
class Inputs:
    spec: Any
    units: List[Any]
    workdir: Path
    drains: int = 0


@dataclass
class Drain:
    wall_s: float
    units: int
    executed: int
    failed: int
    particle_steps: float
    root: Path


@dataclass
class Outcome:
    drains: List[Drain] = field(default_factory=list)
    polls_ms: List[float] = field(default_factory=list)


def make_spec(seed: int, size: str):
    from repro.campaign import CampaignSpec

    grid = SIZES[size]
    return CampaignSpec(
        name=f"perfbench-model-{seed}",
        systems=grid["systems"],
        workloads=grid["workloads"],
        particles=grid["particles"],
        steps=grid["steps"],
        seeds=(seed, seed + 1),
        policies=tuple({"kind": kind} for kind in grid["policies"]),
        clocks_mhz=(1305.0, 1005.0),
    )


def setup(seed: int, size: str, workdir: Path) -> Inputs:
    """Spec validation (resolves both systems), grid and a fresh store."""
    from repro.campaign import RunStore

    spec = make_spec(seed, size)
    inputs = Inputs(spec, spec.expand(), Path(workdir))
    RunStore(str(_root(inputs, 0)), campaign=spec.name)
    return inputs


def _root(inputs: Inputs, index: int) -> Path:
    return inputs.workdir / f"store-{index}"


def drain(inputs: Inputs, polls_ms: List[float]) -> Drain:
    """One timed drain into a fresh store, then timed status queries."""
    from repro.campaign import (
        ExecutorConfig,
        RunStore,
        build_status_doc,
        run_campaign,
    )

    root = _root(inputs, inputs.drains)
    if inputs.drains > 0:
        shutil.rmtree(_root(inputs, inputs.drains - 1), ignore_errors=True)
    inputs.drains += 1
    t0 = time.perf_counter()
    status, _store = run_campaign(
        inputs.spec, str(root), config=ExecutorConfig(workers=LANES)
    )
    wall = time.perf_counter() - t0
    for _ in range(STATUS_QUERIES):
        t1 = time.perf_counter()
        build_status_doc(RunStore(str(root)), inputs.spec)
        polls_ms.append((time.perf_counter() - t1) * 1e3)
    return Drain(
        wall_s=wall,
        units=status.total,
        executed=status.executed,
        failed=status.failed,
        particle_steps=sum(u.particles * u.steps for u in inputs.units),
        root=root,
    )


def warmup(inputs: Inputs) -> None:
    """One untimed drain: lazy imports and catalog caches fill here."""
    drain(inputs, [])


def run_window(inputs: Inputs, seconds: float, min_ops: int = 1,
               on_op=None) -> Outcome:
    out = Outcome()
    start = time.perf_counter()
    while len(out.drains) < min_ops or time.perf_counter() - start < seconds:
        out.drains.append(drain(inputs, out.polls_ms))
        if on_op is not None:
            on_op()
    return out


def run_ops(inputs: Inputs, ops: int, on_op=None) -> Outcome:
    return run_window(inputs, 0.0, min_ops=ops, on_op=on_op)


def trace_ops(seconds: float, size: str) -> int:
    return TRACE_OPS


def check(inputs: Inputs, outcome: Outcome) -> List[str]:
    """Every tenth artifact of the last drain vs an inline recomputation."""
    from repro.campaign import RunStore, execute_unit

    problems: List[str] = []
    for i, d in enumerate(outcome.drains):
        if d.executed != len(inputs.units) or d.failed:
            problems.append(f"drain {i}: {d.executed} of {len(inputs.units)} "
                            f"units executed, {d.failed} failed")
    store = RunStore(str(outcome.drains[-1].root))
    for unit in inputs.units[::CHECK_STRIDE]:
        stored = store.load_result(unit.key)["result"]
        direct = json.loads(common.canonical(execute_unit(unit.config())))
        if common.canonical(stored) != common.canonical(direct):
            problems.append(f"unit {unit.label}: stored artifact differs "
                            "from an inline execute_unit")
    return problems


def end_to_end(outcome: Outcome) -> Dict[str, float]:
    walls = [d.wall_s for d in outcome.drains]
    typical = statistics.median(walls)
    first = outcome.drains[0]
    return {
        "particle_steps_per_s": first.particle_steps / typical,
        "units_per_s": first.executed / typical,
        "campaign_p50_s": common.percentile(walls, 50),
        "campaign_p90_s": common.percentile(walls, 90),
        "poll_p50_ms": common.percentile(outcome.polls_ms, 50),
        "poll_p99_ms": common.percentile(outcome.polls_ms, 99),
    }


def operations(outcome: Outcome) -> Dict[str, int]:
    return {
        "attempted": sum(d.units for d in outcome.drains),
        "failed": sum(d.failed for d in outcome.drains),
    }


def primary_wall(outcome: Outcome) -> float:
    return sum(d.wall_s for d in outcome.drains) / len(outcome.drains)


def cleanup(inputs: Inputs) -> None:
    shutil.rmtree(inputs.workdir, ignore_errors=True)
