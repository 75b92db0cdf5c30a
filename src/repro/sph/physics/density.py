"""NormalizationGradh: density normalization and grad-h correction.

From the XMass kernel sums, the density is

    rho_i = kx_i * m_i / xm_i            (= kx_i for xm = m)

and the grad-h (Omega) correction factor of the variational
formulation (Springel & Hernquist 2002) is

    Omega_i = 1 + (h_i / (3 rho_i)) * sum_j m_j dW/dh(r_ij, h_i)

stored in the ``gradh`` field and used to correct the momentum and
energy equations for adaptive smoothing lengths.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..geometry import StepGeometry, run_blocks, scatter_sum
from ..kernels_math import SmoothingKernel
from ..neighbors import NeighborList
from ..particles import ParticleSet


def compute_density_gradh(
    particles: ParticleSet,
    nlist: NeighborList,
    kernel: SmoothingKernel,
    box_size: Optional[float] = None,
    geometry: Optional[StepGeometry] = None,
) -> None:
    """Fill ``rho`` and ``gradh`` in place (requires XMass)."""
    if particles.kx is None or particles.xm is None:
        raise ValueError("XMass must run before NormalizationGradh")
    particles.ensure_derived()
    particles.rho = particles.kx * particles.m / particles.xm

    geom = geometry if geometry is not None else StepGeometry.build(
        particles, nlist, box_size
    )
    i_idx, j_idx, r = geom.i_idx, geom.j_idx, geom.r
    h, m = particles.h, particles.m
    sum_dwdh = np.empty(particles.n)

    def block(a: int, b: int, s: int, e: int) -> None:
        dwdh = kernel.grad_h(r[s:e], h[i_idx[s:e]])
        sum_dwdh[a:b] = scatter_sum(
            i_idx[s:e] - a, m[j_idx[s:e]] * dwdh, b - a
        )

    run_blocks(block, geom.blocks)
    # Self term: dW/dh at r=0 is -3 sigma w(0) / h^4.
    sum_dwdh += particles.m * (
        -3.0 * kernel.self_value(particles.h) / particles.h
    )
    omega = 1.0 + particles.h / (3.0 * np.maximum(particles.rho, 1e-300)) * sum_dwdh
    # Keep the correction within sane bounds for pathological particle
    # distributions (isolated particles, IC transients).
    particles.gradh = np.clip(omega, 0.2, 3.0)
