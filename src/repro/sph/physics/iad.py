"""IADVelocityDivCurl: Integral Approach to Derivatives + div/curl v.

The IAD scheme (Garcia-Senz et al. 2012, used by SPHYNX and SPH-EXA)
replaces kernel-gradient derivatives with a linearly-exact integral
estimate. Per particle, build the symmetric moment matrix

    tau_i = sum_j V_j (r_j - r_i) (x) (r_j - r_i) W(r_ij, h_i)

and invert it; the inverse's six independent components (c11..c33,
symmetric) turn finite differences into derivative estimates:

    (grad f)_i ~= sum_j V_j (f_j - f_i) C_i (r_j - r_i) W_ij

The function computes the C tensors plus the IAD velocity divergence
and curl magnitude (used by the time-step control and AV diagnostics).
The 3x3 inversions are vectorized over all particles via closed-form
adjugates.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..geometry import StepGeometry, scatter_sum
from ..kernels_math import SmoothingKernel
from ..neighbors import NeighborList
from ..particles import ParticleSet


def _invert_sym3(
    t11: np.ndarray,
    t12: np.ndarray,
    t13: np.ndarray,
    t22: np.ndarray,
    t23: np.ndarray,
    t33: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """Closed-form inverse of symmetric 3x3 matrices, vectorized.

    Ill-conditioned matrices (degenerate neighborhoods) fall back to an
    isotropic estimate, matching the defensive handling in production
    SPH codes.
    """
    det = (
        t11 * (t22 * t33 - t23 * t23)
        - t12 * (t12 * t33 - t23 * t13)
        + t13 * (t12 * t23 - t22 * t13)
    )
    trace = t11 + t22 + t33
    # Degenerate neighborhoods: near-singular moment matrix, or so few
    # neighbors the trace itself (and hence trace**3) underflows.
    bad = (np.abs(det) < 1e-12 * np.maximum(trace, 1e-30) ** 3) | (
        trace < 1e-30
    )
    safe_det = np.where(bad, 1.0, det)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        c11 = (t22 * t33 - t23 * t23) / safe_det
        c12 = (t13 * t23 - t12 * t33) / safe_det
        c13 = (t12 * t23 - t13 * t22) / safe_det
        c22 = (t11 * t33 - t13 * t13) / safe_det
        c23 = (t12 * t13 - t11 * t23) / safe_det
        c33 = (t11 * t22 - t12 * t12) / safe_det
    # Any residual non-finite entries count as degenerate too.
    for arr in (c11, c12, c13, c22, c23, c33):
        nonfinite = ~np.isfinite(arr)
        if np.any(nonfinite):
            bad = bad | nonfinite
            arr[nonfinite] = 0.0
    if np.any(bad):
        iso = np.where(trace > 1e-300, 3.0 / np.maximum(trace, 1e-300), 0.0)
        for arr, diag in ((c11, True), (c22, True), (c33, True)):
            arr[bad] = iso[bad]
        for arr in (c12, c13, c23):
            arr[bad] = 0.0
    return c11, c12, c13, c22, c23, c33


def compute_iad_divv_curlv(
    particles: ParticleSet,
    nlist: NeighborList,
    kernel: SmoothingKernel,
    box_size: Optional[float] = None,
    geometry: Optional[StepGeometry] = None,
) -> None:
    """Fill ``c11..c33``, ``divv`` and ``curlv`` in place."""
    if particles.rho is None or particles.kx is None:
        raise ValueError("density must be computed before IAD")
    particles.ensure_derived()

    geom = geometry if geometry is not None else StepGeometry.build(
        particles, nlist, box_size
    )
    i_idx, j_idx = geom.i_idx, geom.j_idx
    # Note the geometry stores d = r_i - r_j; IAD wants r_j - r_i.
    dx, dy, dz = -geom.dx, -geom.dy, -geom.dz
    w = geom.kernel_value(kernel)
    vol_j = (particles.xm / particles.kx)[j_idx]
    ww = vol_j * w

    n = particles.n
    t11 = scatter_sum(i_idx, ww * dx * dx, n)
    t12 = scatter_sum(i_idx, ww * dx * dy, n)
    t13 = scatter_sum(i_idx, ww * dx * dz, n)
    t22 = scatter_sum(i_idx, ww * dy * dy, n)
    t23 = scatter_sum(i_idx, ww * dy * dz, n)
    t33 = scatter_sum(i_idx, ww * dz * dz, n)

    c11, c12, c13, c22, c23, c33 = _invert_sym3(t11, t12, t13, t22, t23, t33)
    particles.c11, particles.c12, particles.c13 = c11, c12, c13
    particles.c22, particles.c23, particles.c33 = c22, c23, c33

    # IAD derivative weights A = C_i (r_j - r_i) W_ij V_j.
    ax_w = (c11[i_idx] * dx + c12[i_idx] * dy + c13[i_idx] * dz) * ww
    ay_w = (c12[i_idx] * dx + c22[i_idx] * dy + c23[i_idx] * dz) * ww
    az_w = (c13[i_idx] * dx + c23[i_idx] * dy + c33[i_idx] * dz) * ww

    dvx = particles.vx[j_idx] - particles.vx[i_idx]
    dvy = particles.vy[j_idx] - particles.vy[i_idx]
    dvz = particles.vz[j_idx] - particles.vz[i_idx]

    particles.divv = scatter_sum(
        i_idx, dvx * ax_w + dvy * ay_w + dvz * az_w, n
    )

    curl_x = scatter_sum(i_idx, dvz * ay_w - dvy * az_w, n)
    curl_y = scatter_sum(i_idx, dvx * az_w - dvz * ax_w, n)
    curl_z = scatter_sum(i_idx, dvy * ax_w - dvx * ay_w, n)
    particles.curlv = np.sqrt(curl_x**2 + curl_y**2 + curl_z**2)
