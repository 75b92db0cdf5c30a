"""repro — reproduction of "Increasing Energy Efficiency of Astrophysics
Simulations Through GPU Frequency Scaling" (Simsek, Piccinali, Ciorba,
SC 2024).

The package implements, in pure Python over a simulated CPU+GPU
substrate (see DESIGN.md):

* ``repro.hardware``  — simulated GPUs/CPUs/nodes with calibrated
  frequency-response performance and power models, and a DVFS governor;
* ``repro.nvml`` / ``repro.rocm`` — vendor management-library APIs;
* ``repro.pmt``       — the Power Measurement Toolkit interface;
* ``repro.craypm``    — HPE/Cray pm_counters emulation;
* ``repro.slurm``     — job management with energy accounting;
* ``repro.mpi``       — a deterministic rank simulator;
* ``repro.sph``       — an SPH-EXA-like simulation framework
  (Morton-key domain decomposition, real SPH numerics, workload
  models);
* ``repro.core``      — the paper's contribution: instrumentation for
  per-function energy measurement and dynamic GPU frequency scaling;
* ``repro.telemetry`` — structured tracing + metrics: typed trace
  events, a ring-buffer collector hooked into the step loop, Chrome
  ``trace_event``/JSONL export and trace-vs-report reconciliation;
* ``repro.tuner``     — KernelTuner-style frequency tuning;
* ``repro.systems``   — system records resolved from the hardware
  catalog (``repro.catalog``) and cluster assembly.

Quickstart::

    from repro.systems import Cluster, by_name
    from repro.sph import run_instrumented
    from repro.core import ManDynPolicy

    cluster = Cluster(by_name("miniHPC"), n_ranks=1)
    policy = ManDynPolicy({"MomentumEnergy": 1410.0}, default_mhz=1005.0)
    result = run_instrumented(
        cluster, "SubsonicTurbulence", 450**3, n_steps=10, policy=policy
    )
    print(result.elapsed_s, result.gpu_energy_j)
"""

__version__ = "1.0.0"

__all__ = [
    "core",
    "craypm",
    "hardware",
    "langbench",
    "mpi",
    "nvml",
    "pmt",
    "reporting",
    "rocm",
    "slurm",
    "sph",
    "systems",
    "telemetry",
    "tuner",
    "units",
]
