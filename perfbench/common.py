"""Helpers shared by the workloads: percentiles, host record, set-up probes."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Sequence

#: Root of the checkout the benchmark runs in (holds ``src/repro``).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for stores, checkpoints and spools (git-ignored).
RUNS_DIR = ROOT / ".perfbench_runs"

#: Fresh interpreters per run whose set-up time is measured.
SETUP_PROBES = 5
#: Seconds one set-up probe may take before the run fails.
PROBE_TIMEOUT_S = 60


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (a value that was actually measured)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def canonical(payload: Any) -> str:
    """Byte-stable JSON text: equal payloads give equal strings."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest waited-for child, MB.

    The only children a workload has are its campaign lanes, so this
    is the larger of the benchmark process and any lane, provided it is
    read before the set-up probes run.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def filesystem_of(path: Path) -> Dict[str, str]:
    """Mount point and type of the filesystem holding ``path``."""
    path = path.resolve()
    best = ("/", "unknown")
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount, fstype = fields[1], fields[2]
                inside = path == Path(mount) or Path(mount) in path.parents
                if inside and len(mount) >= len(best[0]):
                    best = (mount, fstype)
    except OSError:
        pass
    return {"mount": best[0], "type": best[1]}


def host_record(store_dirs: Sequence[Path]) -> Dict[str, Any]:
    """What the figures depend on besides the code."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
        "filesystems": {str(p): filesystem_of(p) for p in store_dirs},
    }


def probe_setup(workload: str, seed: int, size: str, workdir: Path,
                trace: bool) -> Dict[str, Any]:
    """Run one set-up in a fresh interpreter; returns its JSON report."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
           "--workload", workload, "--seed", str(seed), "--size", size,
           "--workdir", str(workdir)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, cwd=str(ROOT))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])
