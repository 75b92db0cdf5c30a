"""Host-wall benchmark: one workload, end-to-end or traced per layer.

    python3 perfbench/run.py --workload numeric-sedov --seed 11 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper
installed. ``--trace 1`` runs a fixed number of operations untraced,
then the same operations with every layer wrapper installed, and
reports per-layer counts, busy and self times, span coverage of the
traced wall time and the tracing overhead (traced minus untraced wall
over untraced). Every timing is host wall time (``perf_counter``).

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the host and the count-guard
flags. A failed correctness check sets ``correct`` to false; a count
that changed between operations or runs of one seed is flagged there
and on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "particle_steps_per_s": "1/s",
    "units_per_s": "1/s",
    "campaign_p50_s": "s",
    "campaign_p90_s": "s",
    "poll_p50_ms": "ms",
    "poll_p99_ms": "ms",
}

#: Per-layer metric -> (unit, source). Sources: ``n:<span>`` calls,
#: ``s:<span>`` summed span seconds, ``c:<count>`` measured count.
PER_LAYER = {
    "catalog.resolve_n": ("count", "n:catalog.resolve"),
    "catalog.resolve_s": ("s", "s:catalog.resolve"),
    "sph.find_neighbors_s": ("s", "s:sph.find_neighbors"),
    "sph.momentum_energy_s": ("s", "s:sph.momentum_energy"),
    "sph.iad_velocity_div_curl_s": ("s", "s:sph.iad_velocity_div_curl"),
    "sph.normalization_gradh_s": ("s", "s:sph.normalization_gradh"),
    "sph.xmass_s": ("s", "s:sph.xmass"),
    "sph.local_timesteps_s": ("s", "s:sph.local_timesteps"),
    "sph.neighbor_rebuilds": ("count", "c:sph.neighbor_rebuilds"),
    "sph.neighbor_reuse_frac": ("ratio", None),
    "sph.run_n": ("count", "n:sph.run"),
    "sph.run_s": ("s", "s:sph.run"),
    "hardware.execute_n": ("count", "n:hardware.execute"),
    "hardware.execute_s": ("s", "s:hardware.execute"),
    "core.controller_s": ("s", "s:core.controller"),
    "core.profiler_s": ("s", "s:core.profiler"),
    "core.clock_set_calls": ("count", "c:core.clock_set_calls"),
    "mpi.collective_n": ("count", "n:mpi.collective"),
    "mpi.collective_s": ("s", "s:mpi.collective"),
    "checkpoint.write_n": ("count", "n:checkpoint.write"),
    "checkpoint.write_s": ("s", "s:checkpoint.write"),
    "checkpoint.bytes": ("bytes", "c:checkpoint.bytes"),
    "campaign.unit_n": ("count", "n:campaign.unit"),
    "campaign.unit_s": ("s", "s:campaign.unit"),
    "campaign.store_write_s": ("s", "s:campaign.store_write"),
    "campaign.beat_s": ("s", "s:campaign.beat"),
    "campaign.fsync_n": ("count", "n:campaign.fsync"),
    "campaign.fsync_s": ("s", "s:campaign.fsync"),
    "telemetry.merge_s": ("s", "s:telemetry.merge"),
    "telemetry.merged_events": ("count", "c:telemetry.merged_events"),
    "service.request_n": ("count", "n:service.request"),
    "service.request_s": ("s", "s:service.request"),
    "service.queue_wait_s": ("s", "c:service.queue_wait_s"),
    "service.wal_append_n": ("count", "n:service.wal_append"),
    "service.cache_hit_frac": ("ratio", None),
    "service.units_executed": ("count", "c:service.units_executed"),
    "service.submit_lag_s": ("s", None),
    "service.backlog_end": ("count", None),
    "service.duplicate_units": ("count", None),
    "trace.coverage_frac": ("ratio", None),
    "trace.overhead_frac": ("ratio", None),
    "trace.spans": ("count", None),
}

#: Counts that do not depend on timing: equal across operations of one
#: traced run, and across traced runs of one seed and one program.
GUARDED = (
    "hardware.execute_n",
    "core.clock_set_calls",
    "sph.neighbor_rebuilds",
    "checkpoint.bytes",
    "campaign.unit_n",
)


def layer_metric_names() -> List[str]:
    from perfbench.tracing import LAYERS

    names = list(PER_LAYER)
    for layer in LAYERS:
        names += [f"{layer}.busy_s", f"{layer}.self_s"]
    return names


def layer_unit(name: str) -> str:
    if name in PER_LAYER:
        return PER_LAYER[name][0]
    return "s"


def source_digest() -> str:
    """Digest of the program under test (keys the cross-run count guard)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".yaml", ".json"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def measured(tracer, names) -> Dict[str, float]:
    """Values of the ``PER_LAYER`` metrics in ``names`` that have a source."""
    from perfbench.tracing import span_totals

    totals = span_totals(tracer.spans)
    values = {}
    for name in names:
        source = PER_LAYER[name][1]
        if source is None:
            continue
        kind, key = source.split(":", 1)
        if kind == "n":
            values[name] = totals.get(key, (0, 0.0))[0]
        elif kind == "s":
            values[name] = totals.get(key, (0, 0.0))[1]
        else:
            values[name] = tracer.counts.get(key, 0.0)
    return values


def check_counts(per_op: List[Dict[str, float]], guard_file: Path,
                 total: Dict[str, float], key: Dict[str, Any]) -> List[str]:
    """Count-guard flags: per-operation and cross-run mismatches."""
    flags = []
    for i, counts in enumerate(per_op[1:], start=1):
        if counts != per_op[0]:
            flags.append(f"count guard: operation {i} counted {counts}, "
                            f"operation 0 counted {per_op[0]}")
    record = {"key": key, "counts": total}
    if guard_file.exists():
        previous = json.loads(guard_file.read_text())
        if previous["key"] == key and previous["counts"] != total:
            flags.append(f"count guard: this run counted {total}, an "
                            f"earlier run of the same seed and program "
                            f"counted {previous['counts']}")
    guard_file.write_text(json.dumps(record, sort_keys=True))
    return flags


def run_untraced(workload, args, workdir: Path) -> Dict[str, Any]:
    from perfbench import common

    inputs = workload.setup(args.seed, args.size, workdir / "work")
    try:
        workload.warmup(inputs)
        outcome = workload.run_window(inputs, args.seconds)
        # Before the set-up probes: their interpreters are children too.
        peak_rss = common.peak_rss_mb()
        problems = workload.check(inputs, outcome)
        ops = workload.operations(outcome)
    finally:
        workload.cleanup(inputs)
    setup_times = [
        common.probe_setup(args.workload, args.seed, args.size,
                           workdir / "probe", trace=False)["setup_s"]
        for _ in range(common.SETUP_PROBES)
    ]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss,
        **workload.end_to_end(outcome),
    }
    return {"metrics": {k: (metrics[k], END_TO_END[k]) for k in END_TO_END},
            "problems": problems, **ops}


def run_traced(workload, args, workdir: Path) -> Dict[str, Any]:
    from perfbench import common
    from perfbench.tracing import Tracer, install_repro_wrappers, layer_breakdown

    probe = common.probe_setup(args.workload, args.seed, args.size,
                               workdir / "probe", trace=True)
    inputs = workload.setup(args.seed, args.size, workdir / "work")
    ops = workload.trace_ops(args.seconds, args.size)
    try:
        workload.warmup(inputs)
        untraced = workload.run_ops(inputs, ops)
        tracer = Tracer(uuid.uuid4().hex, str(workdir / "spool"))
        per_op: List[Dict[str, float]] = []
        last: Dict[str, float] = {}

        def on_op() -> None:
            tracer.collect()
            now = measured(tracer, GUARDED)
            per_op.append({k: now[k] - last.get(k, 0) for k in now})
            last.update(now)

        install_repro_wrappers(tracer)
        start = time.perf_counter()
        try:
            traced = workload.run_ops(inputs, ops, on_op=on_op)
        finally:
            end = time.perf_counter()
            tracer.uninstall()
        tracer.collect()
        problems = workload.check(inputs, traced)
        flags = check_counts(
            per_op if workload.REPEATED_OPS else [],
            workdir.parent / f"counts-{args.workload}-{args.seed}-"
                             f"{args.size}.json",
            measured(tracer, GUARDED),
            {"source": source_digest(), "ops": ops},
        )
        op_counts = workload.operations(traced)
    finally:
        workload.cleanup(inputs)

    values = measured(tracer, PER_LAYER)
    values["catalog.resolve_n"] += probe["catalog.resolve_n"]
    values["catalog.resolve_s"] += probe["catalog.resolve_s"]
    calls = tracer.counts.get("sph.neighbor_calls", 0)
    values["sph.neighbor_reuse_frac"] = (
        1.0 - values["sph.neighbor_rebuilds"] / calls if calls else 0.0)
    units_total = tracer.counts.get("service.units_total", 0)
    values["service.cache_hit_frac"] = (
        tracer.counts.get("service.units_cache_hit", 0) / units_total
        if units_total else 0.0)
    if hasattr(workload, "layer_extras"):
        values.update(workload.layer_extras(traced))
    values.update(layer_breakdown(tracer.spans, (start, end)))
    base = workload.primary_wall(untraced)
    values["trace.overhead_frac"] = (workload.primary_wall(traced) - base) / base
    values["trace.spans"] = len(tracer.spans)
    names = layer_metric_names()
    return {"metrics": {k: (values.get(k, 0.0), layer_unit(k)) for k in names},
            "problems": problems, "count_flags": flags, **op_counts}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size (tiny is for the smoke tests)")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import WORKLOADS, common

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    if workload.PARALLELISM > nproc:
        print(f"error: {args.workload} runs {workload.PARALLELISM} lanes or "
              f"job threads but this host has {nproc} cores", file=sys.stderr)
        return 2

    workdir = common.RUNS_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    host = common.host_record([workdir])
    try:
        run = run_traced if args.trace else run_untraced
        result = run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    flags = result.get("count_flags", [])
    for flag in flags:
        print(f"COUNT GUARD: {flag}", file=sys.stderr)
    record = {
        "correct": not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "host": host,
                      "count_guard": flags}))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
