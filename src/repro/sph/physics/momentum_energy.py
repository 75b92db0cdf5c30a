"""MomentumEnergy: SPH momentum and energy equations.

The production formulation of SPH-EXA uses IAD gradients; here we use
the classic, extensively-validated grad-h variational form with kernel
gradients (Springel & Hernquist 2002) plus Monaghan artificial
viscosity with a Balsara-style limiter fed by the IAD div/curl fields:

    dv_i/dt = - sum_j m_j [ p_i / (Omega_i rho_i^2) gradW_ij(h_i)
                          + p_j / (Omega_j rho_j^2) gradW_ij(h_j)
                          + Pi_ij gradW_ij_bar ]

    du_i/dt =  p_i / (Omega_i rho_i^2) sum_j m_j v_ij . gradW_ij(h_i)
             + 0.5 sum_j m_j Pi_ij v_ij . gradW_ij_bar

It is by far the most expensive per-step kernel (several pair sweeps
with gradients and branches), which is why it dominates GPU energy and
tunes to the maximum clock in the paper (Figs. 2, 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..geometry import StepGeometry, pair_blocks, run_blocks, scatter_sum
from ..kernels_math import SmoothingKernel
from ..neighbors import NeighborList
from ..particles import ParticleSet


@dataclass(frozen=True)
class ArtificialViscosity:
    """Monaghan (1992) AV parameters with a Balsara (1995) limiter."""

    alpha: float = 1.0
    beta: float = 2.0
    epsilon: float = 0.01
    use_balsara: bool = True

    def balsara_factor(self, particles: ParticleSet) -> np.ndarray:
        """Per-particle shear limiter f = |divv| / (|divv| + |curlv| + eps)."""
        if not self.use_balsara:
            return np.ones(particles.n)
        divv = np.abs(particles.divv)
        curlv = np.abs(particles.curlv)
        mean_h = np.maximum(particles.h, 1e-300)
        eps = 1e-4 * particles.c / mean_h
        return divv / (divv + curlv + eps)


def compute_momentum_energy(
    particles: ParticleSet,
    nlist: NeighborList,
    kernel: SmoothingKernel,
    av: ArtificialViscosity = ArtificialViscosity(),
    box_size: Optional[float] = None,
    external_ax: Optional[np.ndarray] = None,
    external_ay: Optional[np.ndarray] = None,
    external_az: Optional[np.ndarray] = None,
    geometry: Optional[StepGeometry] = None,
) -> None:
    """Fill ``ax, ay, az, du`` in place.

    ``external_a*`` add body accelerations (gravity, turbulence driving)
    after the hydrodynamic sums.
    """
    for req in ("rho", "p", "c", "gradh"):
        if getattr(particles, req) is None:
            raise ValueError(f"{req} must be computed before MomentumEnergy")
    particles.ensure_derived()

    # Momentum conservation requires action *and* reaction: with
    # adaptive h the gather lists are asymmetric, so the forces sum
    # over the pair set closed under reversal. The force coefficient is
    # invariant under i <-> j, so each undirected pair of the closure
    # (cached on the shared step geometry) is evaluated once and
    # scattered to both endpoints — half the gathers and
    # kernel-gradient work of a directed sweep. Self-pairs (i == j)
    # contribute nothing (dx = 0, v.r = 0) and are not in the table.
    geom = geometry if geometry is not None else StepGeometry.build(
        particles, nlist, box_size
    )
    und = geom.undirected()
    i_idx, j_idx = und.i_idx, und.j_idx
    h, rho, c, m = particles.h, particles.rho, particles.c, particles.m
    vx, vy, vz = particles.vx, particles.vy, particles.vz
    p_over = particles.p / (particles.gradh * particles.rho**2)
    balsara = av.balsara_factor(particles)
    # Per-pair scatter weights (i side, j side): the force factors,
    # multiplied by dx, dy, dz at scatter time, and du.
    t_i, t_j, du_i, du_j = (np.empty(und.m) for _ in range(4))

    def block(s: int, e: int) -> None:
        i, j = i_idx[s:e], j_idx[s:e]
        dx, dy, dz, r = und.dx[s:e], und.dy[s:e], und.dz[s:e], und.r[s:e]
        h_i = h[i]
        h_j = h[j]

        # Kernel gradients at both smoothing lengths; dW/dr < 0,
        # direction d/r with d = r_i - r_j so gradW points from j
        # toward i.
        grad_i = kernel.grad_r(r, h_i) / r
        grad_j = kernel.grad_r(r, h_j) / r
        grad_bar = 0.5 * (grad_i + grad_j)

        rho_i = rho[i]
        rho_j = rho[j]
        pi_term = p_over[i]
        pj_term = p_over[j]

        dvx = vx[i] - vx[j]
        dvy = vy[i] - vy[j]
        dvz = vz[i] - vz[j]
        v_dot_r = dvx * dx + dvy * dy + dvz * dz

        # Artificial viscosity (active on approaching pairs only).
        h_bar = 0.5 * (h_i + h_j)
        rho_bar = 0.5 * (rho_i + rho_j)
        c_bar = 0.5 * (c[i] + c[j])
        mu = h_bar * v_dot_r / (r * r + av.epsilon * h_bar * h_bar)
        mu = np.where(v_dot_r < 0.0, mu, 0.0)
        f_bar = 0.5 * (balsara[i] + balsara[j])
        visc = f_bar * (-av.alpha * c_bar * mu + av.beta * mu * mu) / rho_bar

        m_i = m[i]
        m_j = m[j]
        # Symmetric pair force coefficient: the mirrored pair (j, i)
        # has the same s with displacement -d, so i gets -m_j s d and
        # j gets +m_i s d — exact action/reaction per pair.
        s_ij = pi_term * grad_i + pj_term * grad_j + visc * grad_bar
        t_i[s:e] = -m_j * s_ij
        t_j[s:e] = m_i * s_ij

        # Energy equation: pdV work + viscous heating. v.r is
        # symmetric under the swap, so each endpoint takes its own pdV
        # term plus half the (shared) viscous heating.
        half_heat = 0.5 * visc * grad_bar * v_dot_r
        du_i[s:e] = m_j * (pi_term * grad_i * v_dot_r + half_heat)
        du_j[s:e] = m_i * (pj_term * grad_j * v_dot_r + half_heat)

    run_blocks(block, pair_blocks(und.m))
    # The scatters' bins cross blocks, so each runs once over the
    # whole table in pair order. (-m_j s) dx is the same product as
    # -m_j * s * dx, so forming it here into one reused buffer changes
    # no bit.
    n = particles.n
    f = np.empty(und.m)

    def side_sums(d: np.ndarray) -> np.ndarray:
        side_i = scatter_sum(i_idx, np.multiply(t_i, d, out=f), n)
        return side_i + scatter_sum(j_idx, np.multiply(t_j, d, out=f), n)

    ax, ay, az = side_sums(und.dx), side_sums(und.dy), side_sums(und.dz)
    du = scatter_sum(i_idx, du_i, n) + scatter_sum(j_idx, du_j, n)

    if external_ax is not None:
        ax += external_ax
    if external_ay is not None:
        ay += external_ay
    if external_az is not None:
        az += external_az

    particles.ax, particles.ay, particles.az = ax, ay, az
    particles.du = du


def signal_velocity(
    particles: ParticleSet,
    nlist: NeighborList,
    box_size: Optional[float] = None,
    geometry: Optional[StepGeometry] = None,
) -> np.ndarray:
    """Maximum pairwise signal velocity per particle (time-step control).

    v_sig = max_j (c_i + c_j - 3 min(0, v_ij . r_ij / |r_ij|)).

    The maximum runs over the pair set closed under reversal, so a fast
    approaching pair limits the time step of *both* endpoints even with
    asymmetric adaptive-h lists. v_sig is the same bits on a pair and
    its mirror (v_ij and r_ij are exact IEEE negations of v_ji and
    r_ji), so it is evaluated on the directed pairs only and the
    missing mirrors take their pair's value
    (:meth:`StepGeometry.closure_max`).
    """
    geom = geometry if geometry is not None else StepGeometry.build(
        particles, nlist, box_size
    )
    pairs = geom.pairs
    vx, vy, vz, c = particles.vx, particles.vy, particles.vz, particles.c
    pair_vsig = np.empty(pairs.m)

    def block(a: int, b: int, s: int, e: int) -> None:
        i, j = pairs.i_idx[s:e], pairs.j_idx[s:e]
        dvx = vx[i] - vx[j]
        dvy = vy[i] - vy[j]
        dvz = vz[i] - vz[j]
        vdotr_unit = (
            dvx * pairs.dx[s:e] + dvy * pairs.dy[s:e] + dvz * pairs.dz[s:e]
        ) / pairs.r[s:e]
        pair_vsig[s:e] = c[i] + c[j] - 3.0 * np.minimum(vdotr_unit, 0.0)

    run_blocks(block, geom.blocks)
    return geom.closure_max(pair_vsig, c)
