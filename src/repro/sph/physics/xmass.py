"""XMass: generalized volume-element kernel sums (SPHYNX/SPH-EXA).

SPH-EXA's ``computeXMass`` evaluates, for every particle, the kernel
sum of the volume-element masses

    kx_i = sum_j xm_j W(r_ij, h_i)   (self term included)

with ``xm_j = m_j`` in the standard choice. The per-particle volume
element is then ``V_i = xm_i / kx_i`` and the density
``rho_i = kx_i * m_i / xm_i`` (see NormalizationGradh). Computationally
this is a full neighbor-sweep kernel — lighter than MomentumEnergy
(one scalar sum, no gradients), which is why it tunes to a low GPU
frequency in Fig. 2.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..geometry import StepGeometry, run_blocks, scatter_sum
from ..kernels_math import SmoothingKernel
from ..neighbors import NeighborList
from ..particles import ParticleSet


def compute_xmass(
    particles: ParticleSet,
    nlist: NeighborList,
    kernel: SmoothingKernel,
    box_size: Optional[float] = None,
    geometry: Optional[StepGeometry] = None,
) -> None:
    """Fill ``xm`` and ``kx`` in place.

    ``geometry`` shares one precomputed :class:`StepGeometry` across
    all pair kernels of the step; without it the pair geometry is
    derived from ``nlist`` on the spot.
    """
    particles.ensure_derived()
    particles.xm = np.copy(particles.m)

    geom = geometry if geometry is not None else StepGeometry.build(
        particles, nlist, box_size
    )
    w = geom.kernel_value(kernel)
    xm, i_idx, j_idx = particles.xm, geom.i_idx, geom.j_idx
    kx = np.empty(particles.n)

    def block(a: int, b: int, s: int, e: int) -> None:
        kx[a:b] = scatter_sum(i_idx[s:e] - a, xm[j_idx[s:e]] * w[s:e], b - a)

    run_blocks(block, geom.blocks)
    # Self contribution W(0, h_i) * xm_i.
    kx += particles.xm * kernel.self_value(particles.h)
    particles.kx = kx
