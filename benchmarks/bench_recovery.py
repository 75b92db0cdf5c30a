"""Crash-recovery benchmark: kill at 50%, resume, measure the waste.

Exercises the end-to-end crash-tolerance path of :mod:`repro.checkpoint`
on a *numeric* Sedov run (real arrays, real neighbor lists — the state
that actually costs something to snapshot) and writes the
``BENCH_recovery.json`` artifact at the repo root:

1. **Reference** — an uninterrupted ``S``-step run, timed.
2. **Checkpointed** — the same run with ``checkpoint_every=K``, timed;
   the per-snapshot write cost is also measured directly (median of
   repeated ``save_checkpoint`` calls) so the overhead gate does not
   amplify wall-clock noise on shared CI runners.
3. **Kill + resume** — the checkpointed run is killed hard at the 50%
   step (an exception that bypasses the boundary-checkpoint rescue,
   i.e. SIGKILL semantics: whatever the last *periodic* snapshot holds
   is all that survives); a fresh process-equivalent ``Simulation``
   restores from that snapshot and finishes.

Gates (``--check``)::

    re-executed steps   < 15% of the total   (paper-motivated budget)
    checkpoint overhead <  2% of the run     (n_ckpts * write_s / wall)
    resumed result      bit-exact vs the uninterrupted reference

Modes::

    python benchmarks/bench_recovery.py           # writes artifact
    python benchmarks/bench_recovery.py --check   # gates, exit 1 on fail
    python benchmarks/bench_recovery.py --smoke --check   # CI-sized

A ``--smoke`` run writes ``BENCH_recovery.smoke.json`` (git-ignored)
instead, so it never replaces the committed full-size artifact.

The file matches the ``bench_*.py`` pytest pattern but defines no test
functions; it tracks recovery economics, not paper figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.checkpoint import read_checkpoint  # noqa: E402
from repro.sph import NumericProblem, Simulation  # noqa: E402
from repro.sph.init import SedovConfig, make_sedov, make_sedov_eos  # noqa: E402
from repro.systems import Cluster, by_name  # noqa: E402

ARTIFACT = REPO_ROOT / "BENCH_recovery.json"
SMOKE_ARTIFACT = REPO_ROOT / "BENCH_recovery.smoke.json"

#: Re-executed work budget after a mid-run kill (fraction of total).
MAX_REEXECUTED_FRAC = 0.15

#: Periodic-snapshot cost budget (fraction of the uninterrupted wall).
MAX_OVERHEAD_FRAC = 0.02


class _Killed(RuntimeError):
    """Stand-in for SIGKILL: not JobPreempted, so no rescue snapshot."""


def _make_sim(nside: int, seed: int) -> Simulation:
    cfg = SedovConfig(nside=nside, seed=seed)
    parts = make_sedov(cfg)
    numeric = NumericProblem(
        particles=parts,
        n_ranks=2,
        eos=make_sedov_eos(cfg),
        box_size=cfg.box_size,
        skin=0.2,
    )
    cluster = Cluster(by_name("miniHPC"), 2)
    return Simulation(
        cluster, "SedovBlast", parts.n, numeric=numeric
    )


def _state_digest(sim: Simulation) -> str:
    """Order-stable digest of the physics state (bit-exactness probe)."""
    parts = sim.numeric.particles
    import hashlib

    h = hashlib.sha256()
    for name in ("x", "y", "z", "vx", "vy", "vz", "u", "h"):
        h.update(np.ascontiguousarray(getattr(parts, name)).tobytes())
    return h.hexdigest()


def run_benchmark(steps: int, every: int, nside: int, seed: int) -> dict:
    kill_at = steps // 2
    # A kill on a snapshot boundary re-executes zero steps — legal, but
    # it would make the re-execution gate vacuous. Keep it off-boundary.
    assert kill_at % every != 0, "choose steps/every with an off-boundary kill"

    # 1. Uninterrupted reference.
    sim_ref = _make_sim(nside, seed)
    t0 = time.perf_counter()
    res_ref = sim_ref.run(steps)
    wall_ref = time.perf_counter() - t0
    digest_ref = _state_digest(sim_ref)

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = str(Path(tmp) / "bench.ckpt.json")

        # 2. Checkpointed, uninterrupted (wall + direct snapshot cost).
        sim_ck = _make_sim(nside, seed)
        t0 = time.perf_counter()
        res_ck = sim_ck.run(steps, checkpoint_every=every,
                            checkpoint_path=ckpt)
        wall_ck = time.perf_counter() - t0
        writes = []
        for _ in range(5):
            t0 = time.perf_counter()
            sim_ck.save_checkpoint(ckpt, n_steps=steps, steps_done=steps)
            writes.append(time.perf_counter() - t0)
        write_s = statistics.median(writes)
        overhead_frac = res_ck.checkpoints_written * write_s / wall_ref

        # 3. Kill hard at 50%, then resume in a fresh Simulation.
        sim_a = _make_sim(nside, seed)
        ckpt2 = str(Path(tmp) / "bench-kill.ckpt.json")

        def _kill(step: int) -> None:
            if step == kill_at:
                raise _Killed(f"killed at step {step}")

        try:
            sim_a.run(steps, checkpoint_every=every,
                      checkpoint_path=ckpt2, on_step=_kill)
            raise AssertionError("kill step never fired")
        except _Killed:
            pass
        snapshot_step = int(read_checkpoint(ckpt2)["steps_done"])

        sim_b = _make_sim(nside, seed)
        t0 = time.perf_counter()
        res_b = sim_b.run(steps, checkpoint_every=every,
                          checkpoint_path=ckpt2, restore_from=ckpt2)
        wall_resume = time.perf_counter() - t0
        digest_resumed = _state_digest(sim_b)

    reexecuted = kill_at - snapshot_step
    reexecuted_frac = reexecuted / steps
    bit_exact = (
        digest_resumed == digest_ref
        and res_b.gpu_energy_j == res_ref.gpu_energy_j
    )
    return {
        "schema": 1,
        "kind": "bench-recovery",
        "scenario": {
            "workload": "SedovBlast", "system": "miniHPC", "ranks": 2,
            "nside": nside, "seed": seed, "steps": steps,
            "checkpoint_every": every, "kill_at_step": kill_at,
        },
        "wall_uninterrupted_s": wall_ref,
        "wall_checkpointed_s": wall_ck,
        "wall_resume_s": wall_resume,
        "checkpoint_write_s": write_s,
        "checkpoints_written": res_ck.checkpoints_written,
        "snapshot_step": snapshot_step,
        "resumed_from_step": res_b.resumed_from_step,
        "steps_reexecuted": reexecuted,
        "reexecuted_frac": reexecuted_frac,
        "checkpoint_overhead_frac": overhead_frac,
        "bit_exact": bit_exact,
        "gates": {
            "max_reexecuted_frac": MAX_REEXECUTED_FRAC,
            "max_overhead_frac": MAX_OVERHEAD_FRAC,
        },
        "pass": (
            reexecuted_frac < MAX_REEXECUTED_FRAC
            and overhead_frac < MAX_OVERHEAD_FRAC
            and bit_exact
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every gate passes")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized problem (seconds, not minutes)")
    args = parser.parse_args(argv)

    # Cadence matters for the overhead gate: a snapshot costs ~0.2-0.3
    # steps of wall time at these sizes, so production-style sparse
    # checkpoints (every ~15 steps) keep the tax well under 2% while
    # the mid-interval kill still re-executes only a few steps.
    if args.smoke:
        steps, every, nside = 48, 20, 10
    else:
        steps, every, nside = 96, 22, 10

    doc = run_benchmark(steps=steps, every=every, nside=nside, seed=7)
    artifact = SMOKE_ARTIFACT if args.smoke else ARTIFACT
    artifact.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    print(f"uninterrupted wall     : {doc['wall_uninterrupted_s']:.3f} s")
    print(f"checkpointed wall      : {doc['wall_checkpointed_s']:.3f} s")
    print(f"snapshot write (median): {doc['checkpoint_write_s'] * 1e3:.1f} ms"
          f" x {doc['checkpoints_written']}")
    print(f"checkpoint overhead    : {doc['checkpoint_overhead_frac']:.2%}"
          f"  (gate < {MAX_OVERHEAD_FRAC:.0%})")
    print(f"killed at step {doc['scenario']['kill_at_step']}, snapshot at "
          f"{doc['snapshot_step']}, re-executed {doc['steps_reexecuted']} "
          f"of {doc['scenario']['steps']} steps "
          f"({doc['reexecuted_frac']:.1%}, gate < "
          f"{MAX_REEXECUTED_FRAC:.0%})")
    print(f"resumed result bit-exact vs reference: {doc['bit_exact']}")
    print(f"artifact: {artifact}")
    if args.check and not doc["pass"]:
        print("RECOVERY GATE: FAIL", file=sys.stderr)
        return 1
    if args.check:
        print("RECOVERY GATE: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
