"""Time one workload set-up in a fresh interpreter.

NumPy and SciPy are imported before the clock starts: their import
time is third-party and varies far more than the program's own set-up.
The clock then runs from importing ``repro`` through catalog resolution
to inputs ready for the first measured operation. Prints one JSON line.

    python3 perfbench/setup_probe.py --workload numeric-sedov --seed 11 \
        --workdir .perfbench_runs/probe [--trace]

With ``--trace`` the layer wrappers are installed first and the line
also carries the catalog spans of the set-up.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  third-party, outside the timed set-up
import scipy  # noqa: F401
import scipy.spatial  # noqa: F401

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from perfbench.tracing import Tracer, install_repro_wrappers

        tracer = Tracer("setup", str(workdir / "spool"))
        install_repro_wrappers(tracer)
    start = time.perf_counter()
    inputs = workload.setup(args.seed, args.size, workdir)
    setup_s = time.perf_counter() - start
    workload.cleanup(inputs)
    report = {"setup_s": setup_s}
    if tracer is not None:
        report["catalog.resolve_n"] = sum(
            1 for s in tracer.spans if s.name == "catalog.resolve")
        report["catalog.resolve_s"] = sum(
            s.end - s.start for s in tracer.spans if s.name == "catalog.resolve")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
