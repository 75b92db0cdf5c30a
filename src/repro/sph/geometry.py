"""Per-step pair geometry cache (StepGeometry).

Every pair-interaction kernel of the step loop — XMass,
NormalizationGradh, IADVelocityDivCurl, MomentumEnergy and the
signal-velocity sweep of Timestep — consumes the same per-pair
quantities: the directed index expansion ``(i_idx, j_idx)`` of the CSR
neighbor list, the minimum-image displacements ``(dx, dy, dz)`` and the
distances ``r``. Historically each kernel recomputed them from scratch
(four ``np.repeat`` expansions and ``sqrt`` sweeps per step, plus two
mirror-closure scans); :class:`StepGeometry` computes them
**once** per step, right after FindNeighbors, and hands read-only views
to every kernel.

The cache also supports Verlet-skin neighbor reuse: built from a *wide*
list whose rows were searched at ``(support_radius + skin) * h``, it
masks the pairs back down to the true ``r <= support_radius * h_i``
support each step, so each row's tree search can be amortized over
several steps while the physics sees exactly the pairs a fresh search
would have produced.

Scatter reductions over the pair arrays go through
:func:`scatter_sum` (``np.bincount``) rather than ``np.add.at``:
``ufunc.at`` is unbuffered and typically 5-20x slower than the
histogram path for float64 weights.

The build and the kernels' element-wise pair work run on blocks of
about :data:`BLOCK_PAIRS` pairs (see :func:`run_blocks`), so each
block's temporaries stay in a core's cache and the blocks spread over
the host's cores. Blocking changes no output bit: an element-wise
ufunc gives the same bits however its input is sliced; a gather-side
sum over a particle-range block (:attr:`StepGeometry.blocks`) fills
``out[a:b]`` with each bin summing its own pairs in the same order;
and every reduction whose bins cross blocks (MomentumEnergy's
scatters, the undirected-table assembly) still runs once over the
whole array in the original element order.

The pair table is the only full-size copy of the pairs: the symmetric
closure is never materialized. MomentumEnergy's half-sized
:meth:`StepGeometry.undirected` table is assembled straight from the
pairs and the missing-mirror flags, the signal-velocity maximum reads
the pairs row by row plus the missing mirrors
(:meth:`StepGeometry.closure_max`), and the per-step caches are
dropped after the step's last pair kernel
(:meth:`StepGeometry.release_caches`).
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

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


#: Pairs per block of the blocked pair kernels: a block's dozen or so
#: float64 temporaries then fit a core's L2 cache (16k, 32k and 64k
#: measured within 5% of each other on the numeric-sedov benchmark).
BLOCK_PAIRS = 32768


def kernel_threads() -> int:
    """Threads the pair kernels use: the CPUs this process may run on
    (its affinity mask where the OS has one), like cKDTree's
    ``workers=-1``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this OS
        return os.cpu_count() or 1


def pair_blocks(m: int) -> List[Tuple[int, int]]:
    """Consecutive pair ranges ``(s, e)`` of :data:`BLOCK_PAIRS` pairs
    covering ``m`` pairs."""
    return [(s, min(s + BLOCK_PAIRS, m)) for s in range(0, m, BLOCK_PAIRS)]


def row_blocks(offsets: np.ndarray) -> List[Tuple[int, int, int, int]]:
    """Particle ranges ``(a, b)`` with their CSR pair ranges ``(s, e)``.

    Blocks cover every particle ``0 <= a < b <= n`` in order and close
    at the first particle boundary past each multiple of
    :data:`BLOCK_PAIRS` pairs, so a particle's pairs never straddle two
    blocks.
    """
    n = len(offsets) - 1
    cuts = np.searchsorted(
        offsets, np.arange(BLOCK_PAIRS, int(offsets[-1]), BLOCK_PAIRS)
    )
    bounds = np.unique(np.concatenate([[0], cuts, [n]])).tolist()
    return [
        (a, b, int(offsets[a]), int(offsets[b]))
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


def run_blocks(fn: Callable[..., None], blocks: Sequence[tuple]) -> None:
    """Call ``fn(*block)`` for every block on up to
    :func:`kernel_threads` threads.

    The calling thread works too; with one CPU or one block it is the
    only worker, on the same queue. Helper threads are started here and
    joined before returning, so none outlives the call (no pool a
    forked campaign lane or comm rank could inherit mid-task). Each
    thread runs in a copy of the caller's context, so NumPy
    ``errstate`` settings carry over. ``fn`` must only write the
    slices its block owns. The first exception raised by any block is
    re-raised here after every thread has stopped.
    """
    threads = min(kernel_threads(), len(blocks))
    pending = iter(blocks)
    lock = threading.Lock()
    errors: List[BaseException] = []

    def work() -> None:
        try:
            while True:
                with lock:
                    block = None if errors else next(pending, None)
                if block is None:
                    return
                fn(*block)
        except BaseException as exc:  # re-raised by the calling thread
            with lock:
                errors.append(exc)

    helpers = [
        threading.Thread(
            target=contextvars.copy_context().run, args=(work,),
            name=f"sph-pairs-{k}", daemon=True,
        )
        for k in range(1, threads)
    ]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[0]


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
        missing: Optional[np.ndarray] = None,
    ) -> None:
        self.particles = particles
        self.nlist = nlist
        self.pairs = pairs
        self.box_size = box_size
        self._missing = missing
        self._und: Optional[PairTable] = None
        self._w: Optional[np.ndarray] = None
        self._w_kernel: Optional[SmoothingKernel] = None
        self._blocks: Optional[List[Tuple[int, int, int, int]]] = None

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
        carries a correspondingly masked ``nlist``. Every row of a wide
        list must then hold its particle's whole true support, in
        increasing index order: the mask keeps a row's order, and the
        missing-mirror flags are read off distances on the assumption
        that every mirror inside the support is present. Without
        ``support_radius`` the list is taken at face value (the classic
        one-search-per-step path).
        """
        n = nlist.n
        wide_offsets = np.asarray(nlist.offsets, dtype=np.int64)
        neighbors = np.asarray(nlist.neighbors, dtype=np.int64)
        m = len(neighbors)
        masked = support_radius is not None
        x, y, z, h = particles.x, particles.y, particles.z, particles.h
        # Block outputs land at their wide-list position; masking
        # leaves a gap behind each block, closed below.
        dx, dy, dz, r = (np.empty(m) for _ in range(4))
        j_idx = np.empty(m, dtype=np.int64) if masked else neighbors
        missing = np.empty(m, dtype=bool) if masked else None
        counts = np.empty(n, dtype=np.int64) if masked else None

        def block(a: int, b: int, s: int, e: int) -> None:
            i = np.repeat(
                np.arange(a, b, dtype=np.int64), np.diff(wide_offsets[a:b + 1])
            )
            j = neighbors[s:e]
            bx = x[i] - x[j]
            by = y[i] - y[j]
            bz = z[i] - z[j]
            if box_size is not None:
                bx -= box_size * np.round(bx / box_size)
                by -= box_size * np.round(by / box_size)
                bz -= box_size * np.round(bz / box_size)
            r2 = bx * bx + by * by + bz * bz
            if masked:
                # Mask wide-list pairs back to the true kernel support
                # (squared comparison: the sqrt only runs on kept
                # pairs). The closed bound mirrors
                # cKDTree.query_ball_point semantics, and
                # W(support * h) = 0 anyway.
                keep = r2 <= (support_radius * h[i]) ** 2
                i, j, bx, by, bz, r2 = (
                    v[keep] for v in (i, j, bx, by, bz, r2)
                )
                e = s + len(j)
                j_idx[s:e] = j
                # The mirror (j, i) of a kept pair survives the mask
                # exactly when r <= support * h_j. r is exactly
                # symmetric (the displacement is an IEEE negation and
                # np.round is symmetric), and every such mirror is in
                # the wide list: row j holds all of j's true support,
                # because its motion budget (NumericProblem.
                # find_neighbors) has it searched again, at
                # (support + skin) * h_j, before an unseen pair can
                # enter, and the skin dwarfs the round-off between
                # cKDTree's distance and this one. So no pair-set scan
                # is needed.
                missing[s:e] = r2 > (support_radius * h[j]) ** 2
                counts[a:b] = np.bincount(i - a, minlength=b - a)
            dx[s:e], dy[s:e], dz[s:e] = bx, by, bz
            np.maximum(np.sqrt(r2, out=r[s:e]), 1e-300, out=r[s:e])

        blocks = row_blocks(wide_offsets)
        run_blocks(block, blocks)
        if masked:
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            # Close the gaps in block order: a block's destination
            # starts at or before its source and ends before the next
            # block's source.
            for a, b, s, _ in blocks:
                o, e = int(offsets[a]), int(offsets[b])
                if o != s:
                    for arr in (j_idx, dx, dy, dz, r, missing):
                        arr[o:e] = arr[s:s + e - o]
            m = int(offsets[-1])
            j_idx, dx, dy, dz, r, missing = (
                arr[:m] for arr in (j_idx, dx, dy, dz, r, missing)
            )
            nlist = NeighborList(neighbors=j_idx, offsets=offsets)
        i_idx = np.repeat(np.arange(n, dtype=np.int64), nlist.counts())

        pairs = PairTable(i_idx=i_idx, j_idx=j_idx, dx=dx, dy=dy, dz=dz, r=r)
        return cls(particles, nlist, pairs, box_size=box_size, missing=missing)

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

    @property
    def blocks(self) -> List[Tuple[int, int, int, int]]:
        """Particle-range blocks ``(a, b, s, e)`` of :attr:`pairs`
        (see :func:`row_blocks`) for :func:`run_blocks`."""
        if self._blocks is None:
            self._blocks = row_blocks(self.nlist.offsets)
        return self._blocks

    def kernel_value(self, kernel: SmoothingKernel) -> np.ndarray:
        """Gather-side ``W(r, h_i)`` over :attr:`pairs` (cached).

        XMass and IADVelocityDivCurl both weight their sums with this
        array; the geometry is a per-step snapshot (``h`` does not
        change between them), so it is evaluated once per step.
        """
        if self._w_kernel is not kernel:
            w = np.empty(self.pairs.m)
            r, h, i_idx = self.r, self.particles.h, self.i_idx

            def block(a: int, b: int, s: int, e: int) -> None:
                w[s:e] = kernel.value(r[s:e], h[i_idx[s:e]])

            run_blocks(block, self.blocks)
            self._w = w
            self._w_kernel = kernel
        return self._w

    def release_caches(self) -> None:
        """Drop the cached :meth:`undirected` table and
        :meth:`kernel_value` once the step's last pair kernel has run.

        The masked pair table stays: the next :meth:`build` replaces
        it. Both caches are rebuilt on demand if used again.
        """
        self._und = None
        self._w = None
        self._w_kernel = None

    # -- symmetric closure --------------------------------------------------

    @property
    def missing_mirrors(self) -> np.ndarray:
        """Per pair of :attr:`pairs`: ``True`` where its mirror
        ``(j, i)`` is absent (cached).

        With adaptive smoothing lengths the gather lists are
        asymmetric; momentum-conserving sums need every pair in both
        directions. On a masked Verlet-skin list the flags are read off
        the distances at build time; otherwise a lexsort +
        binary-search mirror test (see
        :func:`repro.sph.neighbors.mirror_missing`) finds them.
        """
        if self._missing is None:
            self._missing = mirror_missing(self.i_idx, self.j_idx)
        return self._missing

    def undirected(self) -> PairTable:
        """Each interacting pair of the symmetric closure exactly once,
        with ``i < j`` (cached; see :meth:`release_caches`).

        The table holds the pairs of :attr:`pairs` with ``i < j`` in
        pair order, then the reversed missing mirrors of the pairs with
        ``i > j``. Pair-symmetric kernels (MomentumEnergy's force
        coefficient is invariant under i <-> j) evaluate on this
        half-sized table and scatter to both endpoints, halving the
        gather and arithmetic volume of the heaviest kernel. Self-pairs
        are dropped: they have no ``i < j`` direction.
        """
        if self._und is None:
            p = self.pairs
            fwd = p.i_idx < p.j_idx
            back = self.missing_mirrors & (p.j_idx < p.i_idx)
            self._und = PairTable(
                i_idx=np.concatenate([p.i_idx[fwd], p.j_idx[back]]),
                j_idx=np.concatenate([p.j_idx[fwd], p.i_idx[back]]),
                dx=np.concatenate([p.dx[fwd], -p.dx[back]]),
                dy=np.concatenate([p.dy[fwd], -p.dy[back]]),
                dz=np.concatenate([p.dz[fwd], -p.dz[back]]),
                r=np.concatenate([p.r[fwd], p.r[back]]),
            )
        return self._und

    def closure_max(self, values: np.ndarray, init: np.ndarray) -> np.ndarray:
        """Per-particle maximum of per-pair ``values`` over the
        symmetric closure of :attr:`pairs`, floored at ``init``.

        ``values`` must be the same bits on a pair and on its mirror.
        Each particle then takes the maximum over its CSR row (one
        ``np.maximum.reduceat`` over the row offsets, empty rows
        keeping ``init``) and, for each pair whose mirror is missing,
        its value at ``j``. ``max`` does not round, so the result is
        the same as over a materialized closure in any order.
        """
        out = np.array(init, dtype=np.float64, copy=True)
        offsets = self.nlist.offsets
        has = offsets[1:] > offsets[:-1]
        if np.any(has):
            row_max = np.maximum.reduceat(values, offsets[:-1][has])
            out[has] = np.maximum(out[has], row_max)
        missing = self.missing_mirrors
        np.maximum.at(out, self.j_idx[missing], values[missing])
        return out
