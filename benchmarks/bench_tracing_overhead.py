"""Tracing overhead gate for the distributed-tracing layer.

Measures the wall-clock cost ``repro.telemetry`` tracing adds to an
instrumented *numeric* step loop — the only loop whose steps do real
work, so the only place a relative overhead gate is meaningful. A
traced run differs from an untraced one in exactly two ways, both
directly measurable: every span/instant event is stamped with
``trace_id``/``span_id`` args at emission time, and the merged trace
is built in memory and written once at run end. The gate is therefore
the sum of two decomposed costs — the per-event stamping cost (timed
standalone over many thousand events, high precision) times the
number of events a traced run emits (deterministic), plus the one-shot
merged-trace flush time — divided by the bare loop's wall time.
A naive traced-vs-untraced wall-time difference is also recorded, but
only informationally: on a shared machine its run-to-run noise (+-5%)
swamps the sub-1% true overhead, which is exactly why the gate is
computed from the decomposition. The gated overhead must stay below
``MAX_OVERHEAD_PCT`` — tracing that perturbs the measured run would
defeat its purpose (see docs/observability.md §8).

The numeric loop hides the tracer behind the numerics, so the bench
also times tracing where it costs most: the service-shaped model-path
unit (miniHPC, SedovBlast, mandyn, 2e5 particles, 20 steps, 1 rank;
what a ``service-mixed`` campaign runs), traced and untraced through
``run_unit_safe`` in alternating pairs. It records both medians and
the median per-pair traced/untraced ratio. That ratio is measured and
recorded, not gated (docs/performance.md §8).

Modes::

    python benchmarks/bench_tracing_overhead.py            # full run
    python benchmarks/bench_tracing_overhead.py --check    # CI gate, smaller run

Both modes exit 1 if the measured overhead breaches the gate and write
their numbers (including the per-event absolute cost, measured
separately) at the repo root so they stay auditable: the full run the
tracked ``BENCH_tracing.json``, ``--check`` the git-ignored
``BENCH_tracing.smoke.json``, so a gate run never rewrites the
recorded artifact.

The file matches the ``bench_*.py`` naming pattern but defines no
pytest functions; it is a standalone gate like
``bench_monitor_overhead.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

ARTIFACT = REPO_ROOT / "BENCH_tracing.json"
SMOKE_ARTIFACT = REPO_ROOT / "BENCH_tracing.smoke.json"

#: Acceptance gate: traced step loop may be at most this much slower.
MAX_OVERHEAD_PCT = 2.0

#: Sanity floor so a refactor cannot silently make the gate vacuous.
MIN_EVENTS_PER_STEP = 4

#: Full-mode protocol (nside, steps, repeats).
FULL_CASE = (16, 3, 5)
#: --check protocol: CI-sized, small grid.
CHECK_CASE = (16, 2, 5)

SEED = 11
SKIN = 0.1

#: The service-shaped model-path unit (one ``service-mixed`` unit).
UNIT_CONFIG = {
    "system": "miniHPC",
    "workload": "SedovBlast",
    "particles": 2.0e5,
    "steps": 20,
    "ranks": 1,
    "policy": {"kind": "mandyn"},
    "seed": 0,
}
#: Alternating traced/untraced pairs of the unit: full run, --check.
FULL_UNIT_PAIRS = 40
CHECK_UNIT_PAIRS = 10


def build_sim(nside: int, telemetry=None):
    """One numeric Sedov Simulation on miniHPC (caller detaches)."""
    from repro.sph import NumericProblem, Simulation
    from repro.sph.init import SedovConfig, make_sedov, make_sedov_eos
    from repro.systems import Cluster, by_name

    cfg = SedovConfig(nside=nside, blast_energy=1.0, seed=SEED)
    particles = make_sedov(cfg)
    cluster = Cluster(by_name("miniHPC"), n_ranks=1)
    problem = NumericProblem(
        particles=particles,
        n_ranks=1,
        eos=make_sedov_eos(cfg),
        box_size=cfg.box_size,
        skin=SKIN,
    )
    sim = Simulation(
        cluster,
        "SedovBlast",
        n_particles_per_rank=particles.n,
        numeric=problem,
        telemetry=telemetry,
    )
    return sim, cluster


def time_loop(nside: int, steps: int, traced: bool, trace_dir: str):
    """Wall seconds of ``steps`` numeric steps with a telemetry
    collector attached; the collector carries a trace context (and
    writes its merged trace afterwards) when ``traced``. Returns
    (elapsed_s, flush_s, events)."""
    from repro.telemetry import TraceCollector, mint_context

    collector = TraceCollector(max_events=1_000_000)
    if traced:
        collector.configure_tracing(
            mint_context(seed="bench-tracing"), trace_dir=trace_dir
        )
    sim, cluster = build_sim(nside, telemetry=collector)
    try:
        sim.initialize()
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(steps):
                sim._run_step()
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        flush_s = 0.0
        if traced:
            start = time.perf_counter()
            collector.flush_shards()
            flush_s = time.perf_counter() - start
        return elapsed, flush_s, len(collector.events)
    finally:
        cluster.detach_management_library()


def per_event_stamp_cost_us(n_events: int = 20_000) -> float:
    """Absolute stamping cost of one traced event, measured standalone
    as (traced emission - untraced emission) over many instants."""
    from repro.telemetry import TraceCollector, mint_context

    def emit_all(collector) -> float:
        start = time.perf_counter()
        for i in range(n_events):
            collector.emit_instant("bench", 0, ts=float(i))
        return time.perf_counter() - start

    bare = TraceCollector(max_events=2 * n_events)
    bare_s = emit_all(bare)
    traced = TraceCollector(max_events=2 * n_events)
    traced.configure_tracing(mint_context(seed="bench-stamp"))
    traced_s = emit_all(traced)
    return max(0.0, 1e6 * (traced_s - bare_s) / n_events)


def measure(nside: int, steps: int, repeats: int) -> dict:
    """Gate = (events x per-event stamp cost + flush time) / bare wall
    time (see module docstring for why the naive difference is only
    informational)."""
    bare, traced, flushes, events = [], [], [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(repeats):
            bare.append(time_loop(nside, steps, False, tmp)[0])
            elapsed, flush_s, events = time_loop(
                nside, steps, True, f"{tmp}/rep{rep}"
            )
            traced.append(elapsed)
            flushes.append(flush_s)
    assert events >= steps * MIN_EVENTS_PER_STEP, "gate would be vacuous"
    best_bare = min(bare)
    best_traced = min(traced)
    best_flush = min(flushes)
    stamp_us = per_event_stamp_cost_us()
    overhead_pct = (
        100.0 * (events * stamp_us * 1e-6 + best_flush) / best_bare
    )
    return {
        "nside": nside,
        "steps": steps,
        "repeats": repeats,
        "events": events,
        "per_event_stamp_us": round(stamp_us, 2),
        "flush_s": round(best_flush, 4),
        "bare_s": round(best_bare, 4),
        "traced_s": round(best_traced, 4),
        "end_to_end_diff_pct": round(
            100.0 * (best_traced - best_bare) / best_bare, 2
        ),
        "overhead_pct": round(overhead_pct, 2),
    }


def measure_unit(pairs: int) -> dict:
    """Traced and untraced wall time of the model-path unit, timed in
    alternating pairs (the order flips every pair) after one warm-up
    of each. Reports the medians and the median per-pair ratio."""
    from statistics import median

    from repro.campaign.worker import run_unit_safe
    from repro.telemetry import mint_context

    def run(traced: bool, tag: str, tmp: str) -> float:
        kwargs = {}
        if traced:
            kwargs = {
                "trace": mint_context(seed=f"bench-unit-{tag}").to_dict(),
                "trace_dir": f"{tmp}/{tag}",
            }
        start = time.perf_counter()
        outcome = run_unit_safe(UNIT_CONFIG, **kwargs)
        elapsed = time.perf_counter() - start
        if not outcome["ok"]:
            raise RuntimeError(f"unit failed: {outcome['error']}")
        return elapsed

    traced, untraced = [], []
    with tempfile.TemporaryDirectory() as tmp:
        run(False, "warm", tmp)
        run(True, "warm", tmp)
        for i in range(pairs):
            for is_traced in (False, True) if i % 2 == 0 else (True, False):
                elapsed = run(is_traced, str(i), tmp)
                (traced if is_traced else untraced).append(elapsed)
    return {
        "config": UNIT_CONFIG,
        "pairs": pairs,
        "traced_ms": round(1e3 * median(traced), 2),
        "untraced_ms": round(1e3 * median(untraced), 2),
        "ratio": round(
            median(t / u for t, u in zip(traced, untraced)), 3
        ),
    }


def gate(case: dict) -> int:
    ok = case["overhead_pct"] < MAX_OVERHEAD_PCT
    print(
        f"n={case['nside']}^3 steps={case['steps']} "
        f"({case['events']} events): "
        f"{case['events']} x {case['per_event_stamp_us']:.2f}us "
        f"+ flush {case['flush_s']:.4f}s over bare {case['bare_s']:.4f}s"
        f" -> {case['overhead_pct']:+.2f}% "
        f"(gate < {MAX_OVERHEAD_PCT:.0f}%): {'ok' if ok else 'TOO SLOW'}"
    )
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI-sized run; writes the git-ignored smoke artifact",
    )
    args = parser.parse_args()

    case = measure(*(CHECK_CASE if args.check else FULL_CASE))
    rc = gate(case)
    unit = measure_unit(CHECK_UNIT_PAIRS if args.check else FULL_UNIT_PAIRS)
    print(
        f"model-path unit ({unit['pairs']} pairs): traced "
        f"{unit['traced_ms']:.2f} ms, untraced {unit['untraced_ms']:.2f} ms,"
        f" ratio {unit['ratio']:.3f} (recorded, not gated)"
    )
    payload = {
        "benchmark": "tracing_overhead",
        "workload": "SedovBlast (numeric)",
        "protocol": {
            "metric": (
                "traced events x standalone per-event stamp cost plus "
                "one-shot merged-trace flush, relative to best-of-N bare "
                "wall "
                "time of the numeric step loop (end-to-end diff "
                "recorded informationally)"
            ),
            "gate_pct": MAX_OVERHEAD_PCT,
            "model_path_unit": (
                "median run_unit_safe wall of the unit traced and "
                "untraced over alternating pairs, and the median "
                "per-pair traced/untraced ratio (recorded, not gated)"
            ),
            "seed": SEED,
            "skin": SKIN,
        },
        "result": case,
        "model_path_unit": unit,
        "ok": rc == 0,
    }
    artifact = SMOKE_ARTIFACT if args.check else ARTIFACT
    artifact.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {artifact}")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
