"""The SPH-EXA-like simulation framework (DESIGN.md §2-§3)."""

from .eos import IdealGasEOS, IsothermalEOS
from .geometry import PairTable, StepGeometry, scatter_sum
from .kernels_math import (
    CubicSplineKernel,
    SmoothingKernel,
    WendlandC6Kernel,
    default_kernel,
)
from .neighbors import (
    NeighborList,
    find_neighbors,
    find_neighbors_bruteforce,
)
from .numeric import NumericProblem
from .particles import DERIVED_FIELDS, PRIMARY_FIELDS, ParticleSet
from .propagator import (
    StepFunction,
    hydro_gravity_propagator,
    hydro_propagator,
    propagator_for,
)
from .simulation import (
    Simulation,
    SimulationResult,
    run_instrumented,
)
from .workload import (
    FULL_UTILIZATION_PARTICLES,
    GRAVITY_COST,
    REFERENCE_NEIGHBORS,
    SPH_FUNCTION_COSTS,
    WORKLOAD_ALIASES,
    WORKLOAD_NAMES,
    KernelCost,
    WorkloadModel,
    function_names,
    max_particles_per_gpu,
    resolve_workload,
)

__all__ = [
    "IdealGasEOS",
    "IsothermalEOS",
    "PairTable",
    "StepGeometry",
    "scatter_sum",
    "CubicSplineKernel",
    "SmoothingKernel",
    "WendlandC6Kernel",
    "default_kernel",
    "NeighborList",
    "find_neighbors",
    "find_neighbors_bruteforce",
    "NumericProblem",
    "DERIVED_FIELDS",
    "PRIMARY_FIELDS",
    "ParticleSet",
    "StepFunction",
    "hydro_gravity_propagator",
    "hydro_propagator",
    "propagator_for",
    "Simulation",
    "SimulationResult",
    "run_instrumented",
    "FULL_UTILIZATION_PARTICLES",
    "GRAVITY_COST",
    "REFERENCE_NEIGHBORS",
    "SPH_FUNCTION_COSTS",
    "KernelCost",
    "WorkloadModel",
    "function_names",
    "WORKLOAD_ALIASES",
    "WORKLOAD_NAMES",
    "resolve_workload",
    "max_particles_per_gpu",
]
