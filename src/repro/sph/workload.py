"""Workload model: SPH-EXA step functions -> GPU kernel work.

Maps each named function of the time-stepping loop to the floating
point operations and memory traffic one rank submits to its GPU per
step, as a function of local particle count and mean neighbor count.
The coefficients are calibrated (DESIGN.md §5) so that, on the A100
model at 450³ particles, per-function time shares, frequency
sensitivities (kappa) and power intensities land where the paper's
Figs. 2/5/8 put them — e.g. MomentumEnergy is the dominant,
compute-bound, full-power kernel, while XMass and NormalizationGradh
are memory-bound and tolerate deep down-clocking.

The *under-utilization* model reproduces Fig. 6's small-problem
behaviour: below ``FULL_UTILIZATION_PARTICLES`` kernels become
partially memory-latency bound (their time stops scaling with the core
clock) and the device draws less power, so down-clocking barely hurts
time while still cutting power — the EDP curve of the 200³ case dips
far below the fully-utilized curve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from ..hardware.kernel import KernelLaunch

#: Neighbor count the per-particle coefficients are calibrated at.
REFERENCE_NEIGHBORS = 100.0

#: Canonical Table-I workload names.
WORKLOAD_NAMES = ("SubsonicTurbulence", "EvrardCollapse", "SedovBlast")

#: Accepted spellings (CLI flags, campaign specs) -> canonical names.
WORKLOAD_ALIASES = {
    "turbulence": "SubsonicTurbulence",
    "turb": "SubsonicTurbulence",
    "subsonicturbulence": "SubsonicTurbulence",
    "evrard": "EvrardCollapse",
    "evrardcollapse": "EvrardCollapse",
    "sedov": "SedovBlast",
    "sedovblast": "SedovBlast",
}


def resolve_workload(name: str) -> str:
    """Canonical workload name for ``name`` (alias or canonical form).

    Raises ``ValueError`` for unknown workloads, listing what exists.
    """
    try:
        return WORKLOAD_ALIASES[name.lower()]
    except KeyError:
        known = ", ".join(WORKLOAD_NAMES)
        raise ValueError(
            f"unknown workload {name!r} (known: {known})"
        ) from None

#: Particles per GPU at which an A100-class device is fully utilized.
FULL_UTILIZATION_PARTICLES = 40.0e6

#: Fraction of compute work whose time stops scaling with the core
#: clock (memory-latency bound) as utilization drops to zero.
OVERHEAD_SHIFT = 0.50

#: Power-intensity floor at zero utilization (fraction of nominal).
MIN_INTENSITY_FRACTION = 0.35

#: Reference device balance used to convert work into nominal seconds
#: for the overhead shift (A100-class: FLOP/s and bytes/s).
_REF_FLOPS = 9.7e12
_REF_BW = 2.0e12


@dataclass(frozen=True)
class KernelCost:
    """Per-step GPU cost model of one step function.

    ``flops_per_particle`` / ``bytes_per_particle`` are at the
    reference neighbor count; ``neighbor_scaled`` work grows linearly
    with the actual mean neighbor count.
    """

    function: str
    flops_per_particle: float
    bytes_per_particle: float
    intensity: float
    neighbor_scaled: bool = True
    launches: int = 1
    launch_overhead_s: float = 5.0e-6


#: The calibrated cost table (DESIGN.md §5). Order == execution order.
SPH_FUNCTION_COSTS: Tuple[KernelCost, ...] = (
    KernelCost(
        "DomainDecompAndSync",
        flops_per_particle=3.9e3,
        bytes_per_particle=7.0e3,
        intensity=0.45,
        neighbor_scaled=False,
        launches=40,
        launch_overhead_s=1.5e-4,
    ),
    KernelCost(
        "FindNeighbors",
        flops_per_particle=9.8e3,
        bytes_per_particle=8.2e3,
        intensity=0.65,
    ),
    KernelCost(
        "XMass",
        flops_per_particle=4.9e3,
        bytes_per_particle=5.5e3,
        intensity=0.60,
    ),
    KernelCost(
        "NormalizationGradh",
        flops_per_particle=4.9e3,
        bytes_per_particle=5.5e3,
        intensity=0.60,
    ),
    KernelCost(
        "EquationOfState",
        flops_per_particle=8.2e2,
        bytes_per_particle=1.1e3,
        intensity=0.42,
        neighbor_scaled=False,
    ),
    KernelCost(
        "IADVelocityDivCurl",
        flops_per_particle=8.2e4,
        bytes_per_particle=6.5e3,
        intensity=0.92,
    ),
    KernelCost(
        "MomentumEnergy",
        flops_per_particle=1.60e5,
        bytes_per_particle=5.5e3,
        intensity=1.00,
    ),
    KernelCost(
        "Timestep",
        flops_per_particle=1.6e3,
        bytes_per_particle=2.2e3,
        intensity=0.45,
        neighbor_scaled=False,
    ),
    KernelCost(
        "UpdateQuantities",
        flops_per_particle=3.0e3,
        bytes_per_particle=4.0e3,
        intensity=0.50,
        neighbor_scaled=False,
    ),
)

#: Gravity (Evrard workload only), inserted before MomentumEnergy.
GRAVITY_COST = KernelCost(
    "Gravity",
    flops_per_particle=9.5e4,
    bytes_per_particle=6.0e3,
    intensity=0.95,
    neighbor_scaled=False,
)

#: Device bytes one particle occupies (field arrays + tree + halos).
BYTES_PER_PARTICLE_RESIDENT = 400.0


def max_particles_per_gpu(memory_bytes: float) -> int:
    """Memory cap on particles per GPU (why miniHPC tops out at 450³)."""
    return int(memory_bytes / BYTES_PER_PARTICLE_RESIDENT)


def function_names(with_gravity: bool = False) -> List[str]:
    """Execution-ordered step function names."""
    names = [c.function for c in SPH_FUNCTION_COSTS]
    if with_gravity:
        names.insert(names.index("MomentumEnergy"), "Gravity")
    return names


class WorkloadModel:
    """Generates per-step kernel launches for one rank.

    Parameters
    ----------
    n_particles:
        Local (per-rank) particle count.
    mean_neighbors:
        Average neighbors per particle (updates per step in numeric
        mode; constant at the reference value in model mode).
    with_gravity:
        Include the Gravity function (Evrard workload).
    """

    def __init__(
        self,
        n_particles: float,
        mean_neighbors: float = REFERENCE_NEIGHBORS,
        with_gravity: bool = False,
    ) -> None:
        if n_particles <= 0:
            raise ValueError("n_particles must be positive")
        if mean_neighbors <= 0:
            raise ValueError("mean_neighbors must be positive")
        self.n_particles = float(n_particles)
        self.mean_neighbors = float(mean_neighbors)
        self.with_gravity = with_gravity
        costs = list(SPH_FUNCTION_COSTS)
        if with_gravity:
            idx = [c.function for c in costs].index("MomentumEnergy")
            costs.insert(idx, GRAVITY_COST)
        self._costs: Dict[str, KernelCost] = {c.function: c for c in costs}
        self._order = [c.function for c in costs]
        self._launches: Dict[str, Tuple[KernelLaunch, ...]] = {}

    @property
    def order(self) -> List[str]:
        """Execution-ordered function names."""
        return list(self._order)

    def cost(self, function: str) -> KernelCost:
        try:
            return self._costs[function]
        except KeyError:
            raise KeyError(f"unknown step function {function!r}") from None

    @property
    def utilization(self) -> float:
        """Device utilization fraction implied by the local problem size."""
        return min(self.n_particles / FULL_UTILIZATION_PARTICLES, 1.0)

    def launches_for(self, function: str) -> Tuple[KernelLaunch, ...]:
        """The kernel launches one rank submits for ``function``.

        Computed once per model and function: the model's inputs are
        fixed (``with_*`` return new models) and launches are frozen.
        """
        launches = self._launches.get(function)
        if launches is None:
            launches = self._launches[function] = self._build_launches(
                function
            )
        return launches

    def _build_launches(self, function: str) -> Tuple[KernelLaunch, ...]:
        cost = self.cost(function)
        scale = (
            self.mean_neighbors / REFERENCE_NEIGHBORS
            if cost.neighbor_scaled
            else 1.0
        )
        flops = cost.flops_per_particle * self.n_particles * scale
        nbytes = cost.bytes_per_particle * self.n_particles * scale

        u = self.utilization
        if u < 1.0:
            # Under-utilization: with too few thread blocks to fill the
            # device, kernels become memory-latency bound — a fraction
            # of the compute work's time stops scaling with the core
            # clock (it waits on memory latency instead). Down-clocking
            # then costs little time while still cutting power, which
            # deepens the EDP win for small problems (Fig. 6, 200^3).
            shift = OVERHEAD_SHIFT * (1.0 - u)
            moved_flops = flops * shift
            flops -= moved_flops
            nbytes += moved_flops / _REF_FLOPS * _REF_BW

        intensity = cost.intensity * (
            MIN_INTENSITY_FRACTION + (1.0 - MIN_INTENSITY_FRACTION) * u
        )
        per_launch = 1.0 / cost.launches
        launch = KernelLaunch(
            name=function,
            flops=flops * per_launch,
            bytes_moved=nbytes * per_launch,
            power_intensity=min(intensity, 1.0),
            launch_overhead=cost.launch_overhead_s,
        )
        return (launch,) * cost.launches

    def with_neighbors(self, mean_neighbors: float) -> "WorkloadModel":
        """Copy with an updated neighbor count (numeric-mode feedback)."""
        return WorkloadModel(
            self.n_particles, mean_neighbors, self.with_gravity
        )

    def with_particles(self, n_particles: float) -> "WorkloadModel":
        """Copy with an updated local particle count."""
        return WorkloadModel(
            n_particles, self.mean_neighbors, self.with_gravity
        )
