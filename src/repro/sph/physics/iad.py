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
The 3x3 inversions are vectorized over each block's particles via
closed-form adjugates.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..geometry import StepGeometry, run_blocks, scatter_sum
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
    w = geom.kernel_value(kernel)
    vol = particles.xm / particles.kx
    vx, vy, vz = particles.vx, particles.vy, particles.vz
    n = particles.n
    c = [np.empty(n) for _ in range(6)]
    divv = np.empty(n)
    curlv = np.empty(n)

    def block(a: int, b: int, s: int, e: int) -> None:
        # A block holds all pairs of particles a..b-1, so it can sum
        # and invert their moment matrices on its own.
        i, j = i_idx[s:e], j_idx[s:e]
        k, nb = i - a, b - a
        # Note the geometry stores d = r_i - r_j; IAD wants r_j - r_i.
        dx, dy, dz = -geom.dx[s:e], -geom.dy[s:e], -geom.dz[s:e]
        ww = vol[j] * w[s:e]

        t11 = scatter_sum(k, ww * dx * dx, nb)
        t12 = scatter_sum(k, ww * dx * dy, nb)
        t13 = scatter_sum(k, ww * dx * dz, nb)
        t22 = scatter_sum(k, ww * dy * dy, nb)
        t23 = scatter_sum(k, ww * dy * dz, nb)
        t33 = scatter_sum(k, ww * dz * dz, nb)

        inv = _invert_sym3(t11, t12, t13, t22, t23, t33)
        for out, part in zip(c, inv):
            out[a:b] = part
        c11, c12, c13, c22, c23, c33 = inv

        # IAD derivative weights A = C_i (r_j - r_i) W_ij V_j.
        ax_w = (c11[k] * dx + c12[k] * dy + c13[k] * dz) * ww
        ay_w = (c12[k] * dx + c22[k] * dy + c23[k] * dz) * ww
        az_w = (c13[k] * dx + c23[k] * dy + c33[k] * dz) * ww

        dvx = vx[j] - vx[i]
        dvy = vy[j] - vy[i]
        dvz = vz[j] - vz[i]

        divv[a:b] = scatter_sum(k, dvx * ax_w + dvy * ay_w + dvz * az_w, nb)

        curl_x = scatter_sum(k, dvz * ay_w - dvy * az_w, nb)
        curl_y = scatter_sum(k, dvx * az_w - dvz * ax_w, nb)
        curl_z = scatter_sum(k, dvy * ax_w - dvx * ay_w, nb)
        curlv[a:b] = np.sqrt(curl_x**2 + curl_y**2 + curl_z**2)

    run_blocks(block, geom.blocks)
    particles.c11, particles.c12, particles.c13 = c[0], c[1], c[2]
    particles.c22, particles.c23, particles.c33 = c[3], c[4], c[5]
    particles.divv = divv
    particles.curlv = curlv
