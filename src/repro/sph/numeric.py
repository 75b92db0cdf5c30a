"""Numeric backend: real SPH physics behind the instrumented loop.

At laptop scale (10^3-10^5 particles) the simulation runs the *actual*
numerics — neighbor search, XMass/density/IAD/momentum sums, gravity,
time integration — on global NumPy arrays, while the per-rank GPU cost
model is fed with the true local particle and neighbor counts from the
SFC domain decomposition. Paper-scale runs (10^8+ particles per GPU)
use the pure workload model instead; the instrumentation layer cannot
tell the difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .cornerstone import (
    Box,
    discover_halos,
    morton_encode,
    decompose,
    plan_exchange,
)
from .eos import IdealGasEOS
from .geometry import StepGeometry
from .kernels_math import SmoothingKernel, default_kernel
from .neighbors import NeighborList, find_neighbors
from .particles import ParticleSet
from .physics import (
    ArtificialViscosity,
    GravityConfig,
    TimestepControl,
    compute_density_gradh,
    compute_gravity,
    compute_iad_divv_curlv,
    compute_momentum_energy,
    compute_xmass,
    local_timestep,
    update_quantities,
)
from .physics.positions import IntegrationConfig

#: Wire bytes per exchanged particle (9 primary float64 fields).
EXCHANGE_BYTES_PER_PARTICLE = 9 * 8

#: Wire bytes per halo particle (position, h, m, rho, p, v, u...).
HALO_BYTES_PER_PARTICLE = 11 * 8

#: Smallest positive Verlet skin (units of h). A pair kept by the
#: support mask has its mirror in the wide list because the wide search
#: radius exceeds the support by ``skin * h``; that margin must stay far
#: above the round-off between cKDTree's distances and NumPy's.
MIN_SKIN = 1e-9

#: Smallest edge of the motion-budget grid cells as a fraction of the
#: widest Verlet search radius ``L = (support + skin) * max h^ref``
#: (see :func:`neighborhood_max`). Narrower cells bound each row's
#: neighborhood motion more tightly and cost more cells; on the seed-11
#: numeric-sedov run, cells of width ``L`` flagged about twice as many
#: rows for re-search as cells of ``L / 4``.
CELL_FRACTION = 0.25


def neighborhood_max(
    positions: np.ndarray,
    values: np.ndarray,
    length: float,
    box_size: Optional[float] = None,
) -> np.ndarray:
    """Per particle, an upper bound on ``values`` over every particle
    within ``length`` of it (minimum image when periodic).

    Particles are binned into a grid over the periodic box, or over
    the current bounding box when open, with as many cells per axis as
    fit at a width of at least ``CELL_FRACTION * length``. The bound is
    the maximum of ``values`` over the cube of cells within ``reach =
    ceil(length / width)`` cells of the particle's own, wrapping around
    the box when periodic: a particle within ``length`` along an axis
    sits at most ``reach`` cells away on it. An axis with at most
    ``2 * reach`` cells takes its whole-axis maximum. The cells per axis
    are capped at ``2 * ceil(n ** (1/3))`` so a far-flung open particle
    cannot blow the grid up; wider cells only loosen the bound.
    """
    n = len(values)
    if box_size is not None:
        lo = np.zeros(3)
        extent = np.full(3, float(box_size))
    else:
        lo = positions.min(axis=0)
        extent = positions.max(axis=0) - lo
    cap = 2 * math.ceil(n ** (1.0 / 3.0))
    shape = np.clip(
        np.floor(extent / (CELL_FRACTION * length)), 1, cap
    ).astype(np.int64)
    width = np.where(extent > 0.0, extent / shape, 1.0)
    cell = np.minimum(
        np.floor((positions - lo) / width).astype(np.int64), shape - 1
    )
    grid = np.zeros(tuple(shape))
    np.maximum.at(grid.reshape(-1), np.ravel_multi_index(cell.T, shape), values)
    for axis in range(3):
        # The 1e-6 cell of slack absorbs round-off in the binning.
        reach = math.ceil(length / width[axis] + 1e-6)
        if shape[axis] <= 2 * reach:
            grid = np.broadcast_to(
                grid.max(axis=axis, keepdims=True), grid.shape
            )
            continue
        g = np.moveaxis(grid, axis, 0)
        padded = np.pad(
            g, ((reach, reach), (0, 0), (0, 0)),
            mode="constant" if box_size is None else "wrap",
        )
        out = padded[: len(g)].copy()
        for k in range(1, 2 * reach + 1):
            np.maximum(out, padded[k : k + len(g)], out=out)
        grid = np.moveaxis(out, 0, axis)
    return grid[cell[:, 0], cell[:, 1], cell[:, 2]]


@dataclass
class NumericProblem:
    """Global-array physics state shared by all simulated ranks.

    ``skin`` enables Verlet-skin neighbor reuse: each row ``i`` of the
    neighbor list is searched at radius ``(support_radius + skin) * h_i``
    and kept across steps until the motion around it (or the growth of
    ``h_i``) could let an unseen pair enter its true kernel support;
    only such rows are searched again (see :meth:`find_neighbors`).
    Each step the shared :class:`StepGeometry` masks the wide list back
    to ``r <= support_radius * h_i``, so the physics sees exactly the
    pairs a fresh search would produce. ``skin`` is dimensionless
    (units of ``h``); ``0.0`` — the default — searches every row every
    step, ``0.1`` is a sane choice for production runs. NaN,
    infinite, negative and positive values below :data:`MIN_SKIN` raise
    ``ValueError``.
    """

    particles: ParticleSet
    n_ranks: int
    kernel: SmoothingKernel = field(default_factory=default_kernel)
    eos: IdealGasEOS = field(default_factory=IdealGasEOS)
    box_size: Optional[float] = None
    gravity: Optional[GravityConfig] = None
    av: ArtificialViscosity = field(default_factory=ArtificialViscosity)
    timestep: TimestepControl = field(default_factory=TimestepControl)
    integration: IntegrationConfig = field(default_factory=IntegrationConfig)
    driver: Optional[object] = None  # TurbulenceDriver-compatible
    #: Verlet-skin width in units of h (0 = fresh search every step).
    skin: float = 0.0

    # -- per-step state -------------------------------------------------------
    nlist: Optional[NeighborList] = None
    #: Shared pair geometry for this step's kernels (set by find_neighbors).
    geometry: Optional[StepGeometry] = None
    rank_of_particle: Optional[np.ndarray] = None
    dt: float = 0.0
    previous_dt: Optional[float] = None
    step_index: int = 0
    #: Bytes to exchange between rank pairs this step (n_ranks^2).
    exchange_bytes: Optional[np.ndarray] = None
    #: find_neighbors calls that searched some rows / searched none,
    #: and rows searched in all (perf diagnostics).
    neighbor_rebuilds: int = 0
    neighbor_reuses: int = 0
    neighbor_rows_searched: int = 0
    _gravity_acc: Optional[np.ndarray] = None
    _previous_ranks: Optional[np.ndarray] = None
    _wide_nlist: Optional[NeighborList] = None
    #: Per wide-list row: motion budget spent since its last search,
    #: and h at that search (Verlet skin only).
    _row_budget: Optional[np.ndarray] = None
    _search_h: Optional[np.ndarray] = None
    #: (n, 3) positions at the previous find_neighbors call.
    _previous_positions: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        skin = float(self.skin)
        if not (math.isfinite(skin) and skin >= 0.0):
            raise ValueError(
                f"skin must be a finite width >= 0 in units of h, "
                f"got {self.skin!r}"
            )
        if 0.0 < skin < MIN_SKIN:
            raise ValueError(
                f"skin {skin!r} is below the floor {MIN_SKIN}: the "
                f"Verlet-skin step derives mirror pairs from distances "
                f"and needs the skin margin to dwarf distance round-off; "
                f"use 0 to search every step"
            )
        self.skin = skin

    # ------------------------------------------------------------------
    # Step functions (called by the Simulation in loop order)
    # ------------------------------------------------------------------

    def domain_decomp_and_sync(self) -> None:
        """SFC decomposition, migration plan, halo discovery."""
        p = self.particles
        if self.box_size is not None:
            box = Box.cube(0.0, self.box_size)
        else:
            box = Box.bounding(p.x, p.y, p.z)
        keys = morton_encode(p.x, p.y, p.z, box)
        order = np.argsort(keys, kind="stable")
        assignment = decompose(keys[order], self.n_ranks)
        new_ranks = assignment.rank_of_keys(keys)

        migration_bytes = np.zeros((self.n_ranks, self.n_ranks))
        if self._previous_ranks is not None:
            plan = plan_exchange(
                self._previous_ranks, new_ranks, self.n_ranks
            )
            migration_bytes = plan.bytes_per_pair(EXCHANGE_BYTES_PER_PARTICLE)
        self._previous_ranks = new_ranks
        self.rank_of_particle = new_ranks

        if self.n_ranks > 1:
            halos = discover_halos(
                p.positions(),
                p.h,
                new_ranks,
                self.n_ranks,
                support_radius=self.kernel.support_radius,
                box_size=self.box_size,
            )
            halo_bytes = (
                halos.send_counts.astype(np.float64) * HALO_BYTES_PER_PARTICLE
            )
        else:
            halo_bytes = np.zeros((1, 1))
        self.exchange_bytes = migration_bytes + halo_bytes

    def find_neighbors(self) -> None:
        """Refresh the neighbor list and the shared step geometry.

        With a positive ``skin`` (``s``) and kernel support ``R``, row
        ``i`` of the wide list holds every particle within
        ``(R + s) * h_i^ref`` of ``i`` at its last search, ``h_i^ref``
        being ``h_i`` then. Every call adds to the row's budget ``B_i``
        its particle's displacement since the previous call plus the
        largest displacement near it (:func:`neighborhood_max` within
        ``L = (R + s) * max h^ref``). A particle ``j`` missing from the
        row was farther than ``(R + s) * h_i^ref`` at the search; on
        every later step at which it was within that distance it was
        within ``L``, so its motion there is covered by the near term,
        and now ``r_ij > (R + s) * h_i^ref - B_i``. The row therefore
        still covers the true support while

            B_i + R * max(0, h_i - h_i^ref) <= s * h_i^ref;

        only rows that fail this test are searched again, at
        ``(R + s) * h_i``, and spliced into the list. The first call
        (and any call with every row stale) searches all rows. Every
        step the geometry masks the list back to ``r <= R * h_i``.
        """
        p = self.particles
        support = self.kernel.support_radius
        if self.skin > 0.0:
            positions = p.positions()
            rows = self._stale_rows(positions)
            if rows is None or rows.size:
                fresh = find_neighbors(
                    p,
                    support_radius=support + self.skin,
                    box_size=self.box_size,
                    rows=rows,
                )
                if rows is None:
                    self._wide_nlist = fresh
                    self._row_budget = np.zeros(p.n)
                    self._search_h = np.copy(p.h)
                else:
                    self._wide_nlist = self._wide_nlist.replace_rows(
                        rows, fresh
                    )
                    self._row_budget[rows] = 0.0
                    self._search_h[rows] = p.h[rows]
                self.neighbor_rebuilds += 1
                self.neighbor_rows_searched += fresh.n
            else:
                self.neighbor_reuses += 1
            self._previous_positions = positions
            geom = StepGeometry.build(
                p,
                self._wide_nlist,
                box_size=self.box_size,
                support_radius=support,
            )
        else:
            self._wide_nlist = find_neighbors(
                p, support_radius=support, box_size=self.box_size
            )
            self.neighbor_rebuilds += 1
            self.neighbor_rows_searched += p.n
            geom = StepGeometry.build(
                p, self._wide_nlist, box_size=self.box_size
            )
        self.geometry = geom
        self.nlist = geom.nlist

    def _stale_rows(self, positions: np.ndarray) -> Optional[np.ndarray]:
        """Charge this call's motion to every row's budget and return
        the rows whose budget is spent (``None``: every row, or no
        list yet)."""
        if self._wide_nlist is None:
            return None
        p = self.particles
        d = positions - self._previous_positions
        if self.box_size is not None:
            d -= self.box_size * np.round(d / self.box_size)
        step = np.sqrt(np.sum(d * d, axis=1))
        wide = self.kernel.support_radius + self.skin
        near = neighborhood_max(
            positions,
            step,
            wide * float(np.max(self._search_h)),
            self.box_size,
        )
        self._row_budget += step + near
        growth = self.kernel.support_radius * np.maximum(
            p.h - self._search_h, 0.0
        )
        stale = self._row_budget + growth > self.skin * self._search_h
        rows = np.flatnonzero(stale)
        return None if rows.size == p.n else rows

    def xmass(self) -> None:
        self._require_nlist()
        compute_xmass(
            self.particles,
            self.nlist,
            self.kernel,
            self.box_size,
            geometry=self.geometry,
        )

    def normalization_gradh(self) -> None:
        self._require_nlist()
        compute_density_gradh(
            self.particles,
            self.nlist,
            self.kernel,
            self.box_size,
            geometry=self.geometry,
        )

    def equation_of_state(self) -> None:
        self.eos.apply(self.particles)

    def iad_velocity_div_curl(self) -> None:
        self._require_nlist()
        compute_iad_divv_curlv(
            self.particles,
            self.nlist,
            self.kernel,
            self.box_size,
            geometry=self.geometry,
        )

    def gravity_step(self) -> None:
        if self.gravity is None:
            raise RuntimeError("gravity is not enabled for this problem")
        self._gravity_acc = compute_gravity(self.particles, self.gravity)

    def momentum_energy(self) -> None:
        self._require_nlist()
        ext = None
        if self._gravity_acc is not None:
            ext = self._gravity_acc
        if self.driver is not None:
            drive = self.driver.acceleration(self.particles)
            ext = drive if ext is None else ext + drive
        compute_momentum_energy(
            self.particles,
            self.nlist,
            self.kernel,
            av=self.av,
            box_size=self.box_size,
            external_ax=None if ext is None else ext[:, 0],
            external_ay=None if ext is None else ext[:, 1],
            external_az=None if ext is None else ext[:, 2],
            geometry=self.geometry,
        )

    def local_timesteps(self) -> List[float]:
        """Per-rank local dt values (before the global min-reduction)."""
        self._require_nlist()
        dt_global = local_timestep(
            self.particles,
            self.nlist,
            control=self.timestep,
            previous_dt=self.previous_dt,
            box_size=self.box_size,
            geometry=self.geometry,
        )
        # The signal-velocity sweep is the step's last pair kernel, so
        # the geometry's caches go here. The geometry itself stays
        # until the next build replaces it: dropping it before the
        # build lets glibc trim the freed heap top and fault it back
        # in (docs/performance.md §6).
        self.geometry.release_caches()
        # All ranks see (nearly) the same particles here because the
        # numerics are global; per-rank jitter is not modelled.
        return [dt_global] * self.n_ranks

    def set_global_dt(self, dt: float) -> None:
        self.dt = dt

    def update_quantities(self) -> None:
        if self.dt <= 0:
            raise RuntimeError("global dt has not been reduced yet")
        update_quantities(
            self.particles,
            self.dt,
            nlist=self.nlist,
            config=self.integration,
            box_size=self.box_size,
        )
        self.previous_dt = self.dt
        self.step_index += 1
        self._gravity_acc = None

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Complete inter-step physics state (raw arrays allowed).

        The wide Verlet-skin neighbor list is serialized *in full*
        rather than replaced by a rebuild marker: a fresh tree search
        after restore could order neighbors differently, changing
        floating-point summation order and breaking bit-exactness at
        ``skin > 0``. Per-step scratch (``nlist``/``geometry``/
        ``_gravity_acc``) is rebuilt by the next ``find_neighbors``
        call, so it is not stored.
        """
        wide = self._wide_nlist
        return {
            "particles": self.particles.state_dict(),
            "rank_of_particle": self.rank_of_particle,
            "dt": self.dt,
            "previous_dt": self.previous_dt,
            "step_index": self.step_index,
            "exchange_bytes": self.exchange_bytes,
            "neighbor_rebuilds": self.neighbor_rebuilds,
            "neighbor_reuses": self.neighbor_reuses,
            "neighbor_rows_searched": self.neighbor_rows_searched,
            "previous_ranks": self._previous_ranks,
            "wide_neighbors": None if wide is None else wide.neighbors,
            "wide_offsets": None if wide is None else wide.offsets,
            "row_budget": self._row_budget,
            "search_h": self._search_h,
            "previous_positions": self._previous_positions,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`state_dict`.

        Older checkpoints also carry a ``wide_mirror_absent`` mask; the
        step geometry now derives it from distances, so it is ignored.
        Checkpoints from before the per-row Verlet budgets hold one
        global rebuild reference (``rebuild_x/y/z/h``) instead; their
        wide list is dropped and the next step searches every row.
        """
        self.particles = ParticleSet.from_state(state["particles"])
        self.rank_of_particle = state["rank_of_particle"]
        self.dt = float(state["dt"])
        previous_dt = state["previous_dt"]
        self.previous_dt = (
            None if previous_dt is None else float(previous_dt)
        )
        self.step_index = int(state["step_index"])
        self.exchange_bytes = state["exchange_bytes"]
        self.neighbor_rebuilds = int(state["neighbor_rebuilds"])
        self.neighbor_reuses = int(state["neighbor_reuses"])
        self.neighbor_rows_searched = int(
            state.get("neighbor_rows_searched", 0)
        )
        self._previous_ranks = state["previous_ranks"]
        if state["wide_neighbors"] is None or "row_budget" not in state:
            self._wide_nlist = None
        else:
            self._wide_nlist = NeighborList(
                neighbors=state["wide_neighbors"],
                offsets=state["wide_offsets"],
            )
        self._row_budget = state.get("row_budget")
        self._search_h = state.get("search_h")
        self._previous_positions = state.get("previous_positions")
        self.nlist = None
        self.geometry = None
        self._gravity_acc = None

    # ------------------------------------------------------------------
    # Feedback to the workload model
    # ------------------------------------------------------------------

    def local_particle_counts(self) -> np.ndarray:
        """Particles per rank under the current decomposition."""
        if self.rank_of_particle is None:
            n = self.particles.n
            base = np.full(self.n_ranks, n // self.n_ranks, dtype=np.int64)
            base[: n % self.n_ranks] += 1
            return base
        return np.bincount(
            self.rank_of_particle, minlength=self.n_ranks
        ).astype(np.int64)

    def mean_neighbor_counts(self) -> np.ndarray:
        """Mean neighbors per particle, per rank."""
        if self.nlist is None or self.rank_of_particle is None:
            return np.full(self.n_ranks, 0.0)
        counts = self.nlist.counts().astype(np.float64)
        sums = np.bincount(
            self.rank_of_particle, weights=counts, minlength=self.n_ranks
        )
        nums = np.bincount(self.rank_of_particle, minlength=self.n_ranks)
        return sums / np.maximum(nums, 1)

    def _require_nlist(self) -> None:
        if self.nlist is None:
            raise RuntimeError("FindNeighbors has not run this step")
