"""Per-step pair geometry cache (StepGeometry).

Every pair-interaction kernel of the step loop — XMass,
NormalizationGradh, IADVelocityDivCurl, MomentumEnergy and the
signal-velocity sweep of Timestep — consumes the same per-pair
quantities: the directed index expansion ``(i_idx, j_idx)`` of the CSR
neighbor list, the minimum-image displacements ``(dx, dy, dz)`` and the
distances ``r``. Historically each kernel recomputed them from scratch
(four ``np.repeat`` expansions and ``sqrt`` sweeps per step, plus two
``symmetric_pairs`` closure scans); :class:`StepGeometry` computes them
**once** per step, right after FindNeighbors, and hands read-only views
to every kernel.

The cache also supports Verlet-skin neighbor reuse: built from a *wide*
list searched at ``(support_radius + skin) * h``, it masks the pairs
back down to the true ``r <= support_radius * h_i`` support each step,
so the expensive tree search can be amortized over several steps while
the physics sees exactly the pairs a fresh search would have produced.

Scatter reductions over the pair arrays go through
:func:`scatter_sum` (``np.bincount``) rather than ``np.add.at``:
``ufunc.at`` is unbuffered and typically 5-20x slower than the
histogram path for float64 weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels_math import SmoothingKernel
from .neighbors import NeighborList, mirror_missing
from .particles import ParticleSet


def scatter_sum(idx: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Sum ``weights`` into ``n`` bins keyed by ``idx``.

    Drop-in replacement for ``np.add.at(out, idx, weights)`` on a fresh
    zero array, built on ``np.bincount`` (buffered, vectorized).
    """
    return np.bincount(idx, weights=weights, minlength=n)


@dataclass(frozen=True)
class PairTable:
    """Directed pair arrays with precomputed displacement geometry."""

    i_idx: np.ndarray
    j_idx: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    dz: np.ndarray
    r: np.ndarray

    @property
    def m(self) -> int:
        """Number of directed pairs."""
        return len(self.i_idx)


class StepGeometry:
    """Shared per-step pair geometry for all pair-interaction kernels.

    Attributes
    ----------
    particles:
        The particle set the geometry was computed from.
    nlist:
        True-support CSR neighbor list (masked when built from a wide
        Verlet list, the input list unchanged otherwise). This is what
        smoothing-length adaptation and workload feedback must use.
    pairs:
        Gather-side :class:`PairTable`, CSR-aligned with ``nlist``.
    box_size:
        Periodic box edge, or ``None`` for open boundaries.
    """

    def __init__(
        self,
        particles: ParticleSet,
        nlist: NeighborList,
        pairs: PairTable,
        box_size: Optional[float] = None,
        sym_missing: Optional[np.ndarray] = None,
    ) -> None:
        self.particles = particles
        self.nlist = nlist
        self.pairs = pairs
        self.box_size = box_size
        self._sym_missing = sym_missing
        self._sym: Optional[PairTable] = None
        self._und: Optional[PairTable] = None
        self._sym_order: Optional[np.ndarray] = None
        self._sym_has: Optional[np.ndarray] = None
        self._sym_starts: Optional[np.ndarray] = None
        self._w: Optional[np.ndarray] = None
        self._w_kernel: Optional[SmoothingKernel] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        particles: ParticleSet,
        nlist: NeighborList,
        box_size: Optional[float] = None,
        support_radius: Optional[float] = None,
    ) -> "StepGeometry":
        """Compute the pair geometry from a CSR neighbor list.

        With ``support_radius`` given, ``nlist`` is treated as a *wide*
        (Verlet-skin) list and the pairs are masked back to the true
        ``r <= support_radius * h_i`` support; the returned geometry
        carries a correspondingly masked ``nlist``. Without it the list
        is taken at face value (the classic one-search-per-step path).
        """
        n = nlist.n
        i_idx = np.repeat(np.arange(n, dtype=np.int64), nlist.counts())
        j_idx = np.asarray(nlist.neighbors, dtype=np.int64)
        dx = particles.x[i_idx] - particles.x[j_idx]
        dy = particles.y[i_idx] - particles.y[j_idx]
        dz = particles.z[i_idx] - particles.z[j_idx]
        if box_size is not None:
            dx -= box_size * np.round(dx / box_size)
            dy -= box_size * np.round(dy / box_size)
            dz -= box_size * np.round(dz / box_size)
        r2 = dx * dx + dy * dy + dz * dz

        sym_missing = None
        if support_radius is not None:
            # Mask wide-list pairs back to the true kernel support
            # (squared comparison: the sqrt only runs on kept pairs).
            # The closed bound mirrors cKDTree.query_ball_point
            # semantics, and W(support * h) = 0 anyway.
            keep = r2 <= (support_radius * particles.h[i_idx]) ** 2
            if not np.all(keep):
                i_idx, j_idx = i_idx[keep], j_idx[keep]
                dx, dy, dz, r2 = dx[keep], dy[keep], dz[keep], r2[keep]
            # The mirror (j, i) of a kept pair survives the mask exactly
            # when r <= support * h_j. r is exactly symmetric (the
            # displacement is an IEEE negation and np.round is
            # symmetric), and every such mirror is in the wide list:
            # its (support + skin) * h_j search radius leaves a margin
            # far above the round-off between cKDTree's distance and
            # this one. So no pair-set scan is needed.
            sym_missing = r2 > (support_radius * particles.h[j_idx]) ** 2
            counts = np.bincount(i_idx, minlength=n).astype(np.int64)
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            nlist = NeighborList(neighbors=j_idx, offsets=offsets)
        r = np.maximum(np.sqrt(r2), 1e-300)

        pairs = PairTable(i_idx=i_idx, j_idx=j_idx, dx=dx, dy=dy, dz=dz, r=r)
        return cls(
            particles, nlist, pairs, box_size=box_size,
            sym_missing=sym_missing,
        )

    # -- convenience views --------------------------------------------------

    @property
    def n(self) -> int:
        return self.nlist.n

    @property
    def i_idx(self) -> np.ndarray:
        return self.pairs.i_idx

    @property
    def j_idx(self) -> np.ndarray:
        return self.pairs.j_idx

    @property
    def dx(self) -> np.ndarray:
        return self.pairs.dx

    @property
    def dy(self) -> np.ndarray:
        return self.pairs.dy

    @property
    def dz(self) -> np.ndarray:
        return self.pairs.dz

    @property
    def r(self) -> np.ndarray:
        return self.pairs.r

    def kernel_value(self, kernel: SmoothingKernel) -> np.ndarray:
        """Gather-side ``W(r, h_i)`` over :attr:`pairs` (cached).

        XMass and IADVelocityDivCurl both weight their sums with this
        array; the geometry is a per-step snapshot (``h`` does not
        change between them), so it is evaluated once per step.
        """
        if self._w_kernel is not kernel:
            self._w = kernel.value(self.r, self.particles.h[self.i_idx])
            self._w_kernel = kernel
        return self._w

    # -- symmetric closure --------------------------------------------------

    def symmetric(self) -> PairTable:
        """Pair table closed under reversal (cached).

        With adaptive smoothing lengths the gather lists are
        asymmetric; momentum-conserving sums need every pair in both
        directions. On a masked Verlet-skin list the missing mirrors
        are read off the distances at build time; otherwise a lexsort +
        binary-search mirror test (see
        :func:`repro.sph.neighbors.mirror_missing`) finds them. Either
        way the closure is built at most once per neighbor-geometry
        build — MomentumEnergy and the Timestep signal-velocity sweep
        share the result.
        """
        if self._sym is None:
            p = self.pairs
            if self._sym_missing is not None:
                missing = self._sym_missing
            else:
                missing = mirror_missing(p.i_idx, p.j_idx)
            if np.any(missing):
                self._sym = PairTable(
                    i_idx=np.concatenate([p.i_idx, p.j_idx[missing]]),
                    j_idx=np.concatenate([p.j_idx, p.i_idx[missing]]),
                    dx=np.concatenate([p.dx, -p.dx[missing]]),
                    dy=np.concatenate([p.dy, -p.dy[missing]]),
                    dz=np.concatenate([p.dz, -p.dz[missing]]),
                    r=np.concatenate([p.r, p.r[missing]]),
                )
            else:
                self._sym = p
        return self._sym

    def undirected(self) -> PairTable:
        """Each interacting pair exactly once, with ``i < j`` (cached).

        The symmetric closure contains every undirected pair in both
        directions, so masking to ``i < j`` enumerates each interaction
        once. Pair-symmetric kernels (MomentumEnergy's force
        coefficient is invariant under i <-> j) can evaluate on this
        half-sized table and scatter to both endpoints, halving the
        gather and arithmetic volume of the heaviest kernel.
        """
        if self._und is None:
            sym = self.symmetric()
            keep = sym.i_idx < sym.j_idx
            self._und = PairTable(
                i_idx=sym.i_idx[keep],
                j_idx=sym.j_idx[keep],
                dx=sym.dx[keep],
                dy=sym.dy[keep],
                dz=sym.dz[keep],
                r=sym.r[keep],
            )
        return self._und

    def sym_scatter_max(
        self, values: np.ndarray, init: np.ndarray
    ) -> np.ndarray:
        """Per-particle maximum of per-pair ``values`` over the
        symmetric closure, floored at ``init`` (segment-sorted
        ``np.maximum.reduceat`` — replaces ``np.maximum.at``)."""
        if self._sym_order is None:
            sym = self.symmetric()
            order = np.argsort(sym.i_idx, kind="stable")
            sorted_i = sym.i_idx[order]
            grid = np.arange(self.n, dtype=np.int64)
            starts = np.searchsorted(sorted_i, grid, side="left")
            ends = np.searchsorted(sorted_i, grid, side="right")
            self._sym_order = order
            self._sym_has = ends > starts
            self._sym_starts = starts[self._sym_has]
        out = np.array(init, dtype=np.float64, copy=True)
        if self._sym_starts.size:
            seg_max = np.maximum.reduceat(
                values[self._sym_order], self._sym_starts
            )
            out[self._sym_has] = np.maximum(out[self._sym_has], seg_max)
        return out
