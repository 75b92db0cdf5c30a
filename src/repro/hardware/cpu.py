"""The simulated host CPU.

SPH-EXA moves all simulation data to the GPU up front and runs there;
the host CPUs are left to drive kernel launches, MPI progress and the
(deliberately CPU-side) profiling, so their power is dominated by idle
draw plus a small activity term. The paper observes exactly this:
per-function CPU energy is essentially proportional to the function's
wall time (§IV-B).
"""

from __future__ import annotations

from .clock import VirtualClock
from .power_model import CpuPowerModel
from .specs import CpuSpec


class SimulatedCpu:
    """One host CPU package group integrating energy on a node clock."""

    #: Activity while the host merely drives GPU kernels / waits on MPI.
    DRIVING_ACTIVITY = 0.12

    def __init__(self, spec: CpuSpec, clock: VirtualClock) -> None:
        self.spec = spec
        self._clock = clock
        self._power = CpuPowerModel(spec)
        self._activity = self.DRIVING_ACTIVITY
        self._freq_khz = spec.nominal_freq_khz
        self._energy_j = 0.0
        # power_w memo: the exact (activity, freq_khz) it was computed at.
        self._power_key = (self._activity, self._freq_khz)
        self._power_value = spec.power_w(self._activity, self._freq_khz)
        clock.subscribe(self._on_advance)

    @property
    def clock(self) -> VirtualClock:
        """The clock this package integrates energy over."""
        return self._clock

    @property
    def activity(self) -> float:
        """Current activity level in [0, 1]."""
        return self._activity

    def set_activity(self, activity: float) -> None:
        """Set host activity (e.g. raised during host-side phases)."""
        if not 0.0 <= activity <= 1.0:
            raise ValueError(f"activity must be in [0, 1], got {activity!r}")
        self._activity = activity

    @property
    def frequency_khz(self) -> int:
        """Current CPU clock (Slurm --cpu-freq units: kHz)."""
        return self._freq_khz

    def set_frequency_khz(self, freq_khz: int) -> int:
        """Set the CPU clock (clamped to the supported range)."""
        self._freq_khz = self.spec.clamp_freq_khz(freq_khz)
        return self._freq_khz

    @property
    def slowdown_factor(self) -> float:
        """Host-phase slowdown relative to the nominal clock (>= 1)."""
        return self.spec.nominal_freq_khz / self._freq_khz

    def power_w(self) -> float:
        """Instantaneous package power."""
        key = (self._activity, self._freq_khz)
        if key != self._power_key:
            self._power_key = key
            self._power_value = self.spec.power_w(*key)
        return self._power_value

    @property
    def energy_j(self) -> float:
        """Cumulative package energy since construction, joules."""
        return self._energy_j

    def _on_advance(self, t0: float, t1: float) -> None:
        self._energy_j += self.power_w() * (t1 - t0)

    # -- checkpoint ----------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "activity": self._activity,
            "freq_khz": self._freq_khz,
            "energy_j": self._energy_j,
        }

    def restore_state(self, state: dict) -> None:
        self._activity = float(state["activity"])
        self._freq_khz = int(state["freq_khz"])
        self._energy_j = float(state["energy_j"])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimulatedCpu({self.spec.name!r}, activity={self._activity:.2f}, "
            f"energy={self._energy_j:.1f} J)"
        )
