"""Calibration-pipeline benchmark: fit accuracy and cost per system.

Runs the full ``repro calibrate`` loop — probe sweep, then both ingest
paths (telemetry trace, PMT dump + schedule) — against every shipped
catalog system and writes the ``BENCH_calibration.json`` artifact at
the repo root: worst-case parameter errors versus the ground-truth
spec, probe counts, and wall-clock cost of sweep and fit.

Gates (``--check``)::

    P_idle / P_dyn / alpha / peak / bandwidth   within 2% on every system
    per-kernel efficiency + compute fraction    within 5% on every system
    both ingest paths agree on P_idle           within 0.1%

Modes::

    python benchmarks/bench_calibration.py            # writes artifact
    python benchmarks/bench_calibration.py --check    # gates, exit 1 on fail
    python benchmarks/bench_calibration.py --smoke --check   # miniHPC only

The file matches the ``bench_*.py`` pytest pattern but defines no test
functions; it tracks the calibration pipeline, not paper figures.
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

from repro.catalog import available_entries  # noqa: E402
from repro.catalog.fit import (  # noqa: E402
    fit_from_dump,
    fit_from_trace,
    run_calibration_sweep,
    verify_fit,
)
from repro.systems import by_name  # noqa: E402

ARTIFACT = REPO_ROOT / "BENCH_calibration.json"

POWER_TOL = 0.02
ROOFLINE_TOL = 0.05
AGREEMENT_TOL = 0.001


def _flatten_errors(errors):
    power = max(
        errors["idle_power_w"], errors["dynamic_power_w"],
        errors["power_exponent"], errors["fp_throughput"],
        errors.get("mem_bandwidth", 0.0),
    )
    roofline = 0.0
    for kernel_errors in errors.get("kernels", {}).values():
        roofline = max(roofline, *kernel_errors.values())
    return power, roofline


def measure(names):
    systems = {}
    for name in names:
        system = by_name(name)
        spec = system.gpu_spec
        with tempfile.TemporaryDirectory(prefix="bench-cal-") as tmp:
            t0 = time.perf_counter()
            result = run_calibration_sweep(system, tmp)
            sweep_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            via_trace = fit_from_trace(result.trace_path)
            fit_s = time.perf_counter() - t0
            via_dump = fit_from_dump(result.dump_path, result.schedule_path)
        power_err, roofline_err = _flatten_errors(
            verify_fit(via_trace, spec)
        )
        dump_power_err, dump_roofline_err = _flatten_errors(
            verify_fit(via_dump, spec)
        )
        agreement = abs(
            via_trace.idle_power_w - via_dump.idle_power_w
        ) / spec.idle_power_w
        systems[name] = {
            "n_probes": result.n_probes,
            "n_clocks": len(result.clocks_mhz),
            "simulated_s": round(result.elapsed_s, 3),
            "sweep_wall_s": round(sweep_s, 4),
            "fit_wall_s": round(fit_s, 4),
            "max_power_err": max(power_err, dump_power_err),
            "max_roofline_err": max(roofline_err, dump_roofline_err),
            "path_agreement_err": agreement,
        }
    return {
        "schema": 1,
        "kind": "bench-calibration",
        "tolerances": {
            "power": POWER_TOL,
            "roofline": ROOFLINE_TOL,
            "path_agreement": AGREEMENT_TOL,
        },
        "systems": systems,
    }


def check(doc) -> int:
    failures = []
    for name, row in doc["systems"].items():
        if row["max_power_err"] > POWER_TOL:
            failures.append(
                f"{name}: power error {row['max_power_err']:.3%} "
                f"> {POWER_TOL:.0%}"
            )
        if row["max_roofline_err"] > ROOFLINE_TOL:
            failures.append(
                f"{name}: roofline error {row['max_roofline_err']:.3%} "
                f"> {ROOFLINE_TOL:.0%}"
            )
        if row["path_agreement_err"] > AGREEMENT_TOL:
            failures.append(
                f"{name}: trace and dump paths disagree by "
                f"{row['path_agreement_err']:.3%}"
            )
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="gate on the accuracy tolerances")
    parser.add_argument("--smoke", action="store_true",
                        help="calibrate miniHPC only (CI-sized)")
    args = parser.parse_args(argv)

    names = ["miniHPC"] if args.smoke else sorted(available_entries())
    doc = measure(names)
    ARTIFACT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, row in doc["systems"].items():
        print(
            f"{name:16s} probes={row['n_probes']:3d} "
            f"sweep={row['sweep_wall_s']:.3f}s fit={row['fit_wall_s']:.3f}s "
            f"power_err={row['max_power_err']:.2e} "
            f"roofline_err={row['max_roofline_err']:.2e}"
        )
    print(f"artifact: {ARTIFACT}")
    if args.check:
        rc = check(doc)
        if rc == 0:
            print(
                f"calibration gates passed on {len(doc['systems'])} "
                f"system(s) (power {POWER_TOL:.0%}, roofline "
                f"{ROOFLINE_TOL:.0%})"
            )
        return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
