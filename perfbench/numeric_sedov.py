"""numeric-sedov: real SPH numerics on a Sedov blast.

One operation is one ``Simulation.run`` of a 16^3 = 4096-particle
Sedov blast on two miniHPC ranks (Verlet skin 0.1, 10 steps, a
checkpoint every 4 steps). The seed argument seeds the initial
conditions (``SedovConfig.seed``); the program sees only the particles.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import common

NAME = "numeric-sedov"
#: Both ranks run in this process (local comm backend).
PARALLELISM = 1
#: Every operation repeats the same work (count guard per operation).
REPEATED_OPS = True
TRACE_OPS = 2
SYSTEM = "miniHPC"
RANKS = 2
SKIN = 0.1
SIZES = {
    "full": {"nside": 16, "steps": 10, "checkpoint_every": 4},
    "tiny": {"nside": 6, "steps": 3, "checkpoint_every": 2},
}
PINNED = Path(__file__).with_name("pinned.json")
#: Seed whose GPU energy and final state ``pinned.json`` holds.
REFERENCE_SEED = 11

#: Round-off bound on net momentum, relative to the summed |m v|.
MOMENTUM_RTOL = 1e-13
#: Per-function energy must sum to the report total to this precision.
ENERGY_RTOL = 1e-12


@dataclass
class Inputs:
    system: Any
    seed: int
    size: str
    workdir: Path
    sim: Any = None
    problem: Any = None
    cluster: Any = None
    #: The warmup's run of ``REFERENCE_SEED`` at the tiny size.
    reference: Optional["RunRecord"] = None


@dataclass
class RunRecord:
    wall_s: float
    steps: int
    particles: int
    step_walls: List[float]
    gpu_energy_j: float
    function_gpu_j: float
    total_j: float
    function_total_j: float
    momentum: List[float]
    momentum_scale: float
    digest: str


@dataclass
class Outcome:
    size: str
    runs: List[RunRecord] = field(default_factory=list)


def build(inputs: Inputs) -> None:
    """Fresh ICs, numeric problem, cluster and simulation for one run."""
    from repro.sph import NumericProblem, Simulation
    from repro.sph.init import SedovConfig, make_sedov, make_sedov_eos
    from repro.systems import Cluster

    cfg = SedovConfig(nside=SIZES[inputs.size]["nside"], blast_energy=1.0,
                      seed=inputs.seed)
    particles = make_sedov(cfg)
    cluster = Cluster(inputs.system, n_ranks=RANKS)
    problem = NumericProblem(
        particles=particles,
        n_ranks=RANKS,
        eos=make_sedov_eos(cfg),
        box_size=cfg.box_size,
        skin=SKIN,
    )
    inputs.sim = Simulation(cluster, "SedovBlast",
                            n_particles_per_rank=particles.n / RANKS,
                            numeric=problem)
    inputs.problem = problem
    inputs.cluster = cluster


def setup(seed: int, size: str, workdir: Path) -> Inputs:
    """Import, catalog resolution and the first run's inputs."""
    from repro.systems import by_name

    inputs = Inputs(by_name(SYSTEM), seed, size, Path(workdir))
    build(inputs)
    return inputs


def state_digest(particles) -> str:
    digest = hashlib.sha256()
    for name in ("x", "y", "z", "vx", "vy", "vz", "m", "h", "u"):
        digest.update(getattr(particles, name).tobytes())
    return digest.hexdigest()


def run_once(inputs: Inputs) -> RunRecord:
    """Time one ``Simulation.run`` on inputs built before the call."""
    import numpy as np

    if inputs.sim is None:
        build(inputs)
    sim, problem, cluster = inputs.sim, inputs.problem, inputs.cluster
    inputs.sim = None
    spec = SIZES[inputs.size]
    ckpt = inputs.workdir / "sedov.ckpt.json"
    marks: List[float] = []
    t0 = time.perf_counter()
    try:
        result = sim.run(
            spec["steps"],
            checkpoint_every=spec["checkpoint_every"],
            checkpoint_path=str(ckpt),
            on_step=lambda _n: marks.append(time.perf_counter()),
        )
        wall = time.perf_counter() - t0
    finally:
        cluster.detach_management_library()
    p = problem.particles
    agg = result.report.aggregate_functions().values()
    return RunRecord(
        wall_s=wall,
        steps=result.steps,
        particles=p.n,
        step_walls=[b - a for a, b in zip([t0] + marks, marks)],
        gpu_energy_j=result.gpu_energy_j,
        function_gpu_j=sum(r.gpu_j for r in agg),
        total_j=result.report.total_j(),
        function_total_j=sum(r.total_j for r in agg),
        momentum=[float(np.sum(p.m * v)) for v in (p.vx, p.vy, p.vz)],
        momentum_scale=float(np.sum(p.m * np.sqrt(p.vx**2 + p.vy**2
                                                  + p.vz**2))),
        digest=state_digest(p),
    )


def warmup(inputs: Inputs) -> None:
    """One untimed tiny run of the pinned reference seed.

    First-call costs (lazy imports) land here, and :func:`check`
    compares this run with ``pinned.json`` whatever seed is measured.
    """
    tiny = Inputs(inputs.system, REFERENCE_SEED, "tiny", inputs.workdir)
    inputs.reference = run_once(tiny)


def run_window(inputs: Inputs, seconds: float, min_ops: int = 1,
               on_op=None) -> Outcome:
    """Back-to-back runs until ``seconds`` have passed."""
    out = Outcome(inputs.size)
    start = time.perf_counter()
    while len(out.runs) < min_ops or time.perf_counter() - start < seconds:
        out.runs.append(run_once(inputs))
        if on_op is not None:
            on_op()
    return out


def run_ops(inputs: Inputs, ops: int, on_op=None) -> Outcome:
    return run_window(inputs, 0.0, min_ops=ops, on_op=on_op)


def trace_ops(seconds: float, size: str) -> int:
    return TRACE_OPS


def _run_problems(label: str, run: RunRecord, steps: int,
                  want: Optional[Dict[str, Any]]) -> List[str]:
    """Problems of one run; ``want`` holds its pinned values, if any."""
    problems: List[str] = []
    if run.steps != steps:
        problems.append(f"{label}: {run.steps} steps, not {steps}")
    net = max(abs(c) for c in run.momentum)
    if not net <= MOMENTUM_RTOL * run.momentum_scale:
        problems.append(f"{label}: net momentum {net:.3e} exceeds "
                        f"round-off of {run.momentum_scale:.3e}")
    for what, parts, total in (
        ("GPU", run.function_gpu_j, run.gpu_energy_j),
        ("total", run.function_total_j, run.total_j),
    ):
        if not math.isclose(parts, total, rel_tol=ENERGY_RTOL):
            problems.append(f"{label}: per-function {what} energy "
                            f"{parts!r} J != report {total!r} J")
    if want is not None:
        if run.gpu_energy_j != want["gpu_energy_j"]:
            problems.append(f"{label}: GPU energy {run.gpu_energy_j!r} J "
                            f"!= pinned {want['gpu_energy_j']!r} J")
        if run.digest != want["state_sha256"]:
            problems.append(f"{label}: final state digest differs from "
                            "the pinned one")
    return problems


def check(inputs: Inputs, outcome: Outcome) -> List[str]:
    """Problems found in the outputs; an empty list means correct.

    Every measured run is checked for momentum conservation and energy
    sums (and against ``pinned.json`` when its seed is pinned); the
    warmup's reference run is checked against the pinned values
    whatever seed is measured.
    """
    pinned = json.loads(PINNED.read_text())
    problems: List[str] = []
    want = pinned.get(inputs.size, {}).get(str(inputs.seed))
    for i, run in enumerate(outcome.runs):
        problems += _run_problems(f"run {i}", run,
                                  SIZES[inputs.size]["steps"], want)
    if inputs.reference is None:
        problems.append("the pinned reference run (warmup) did not run")
    else:
        problems += _run_problems(
            f"reference run (seed {REFERENCE_SEED}, tiny)", inputs.reference,
            SIZES["tiny"]["steps"], pinned["tiny"][str(REFERENCE_SEED)])
    return problems


def end_to_end(outcome: Outcome) -> Dict[str, float]:
    runs = outcome.runs
    walls = [r.wall_s for r in runs]
    steps = [w * 1e3 for r in runs for w in r.step_walls]
    typical = statistics.median(walls)
    return {
        "particle_steps_per_s": runs[0].particles * runs[0].steps / typical,
        "units_per_s": 1.0 / typical,
        "campaign_p50_s": common.percentile(walls, 50),
        "campaign_p90_s": common.percentile(walls, 90),
        "poll_p50_ms": common.percentile(steps, 50),
        "poll_p99_ms": common.percentile(steps, 99),
    }


def operations(outcome: Outcome) -> Dict[str, int]:
    """Steps attempted, and steps a run ended without (preemption)."""
    steps = SIZES[outcome.size]["steps"]
    attempted = steps * len(outcome.runs)
    return {"attempted": attempted,
            "failed": attempted - sum(r.steps for r in outcome.runs)}


def primary_wall(outcome: Outcome) -> float:
    """Mean wall of one operation (tracing overhead compares this)."""
    return sum(r.wall_s for r in outcome.runs) / len(outcome.runs)


def cleanup(inputs: Inputs) -> None:
    if inputs.sim is not None:
        inputs.cluster.detach_management_library()
        inputs.sim = None
    for path in inputs.workdir.glob("sedov.ckpt.json*"):
        os.unlink(path)
