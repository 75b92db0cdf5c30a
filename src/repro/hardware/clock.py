"""Simulated time.

Everything in this library runs on *simulated* time: kernel durations,
power integration, pm_counters republish intervals, Slurm job windows,
MPI collective latencies. Wall-clock time never enters a result, which
makes every benchmark and test fully deterministic.

:class:`VirtualClock` is a monotonically increasing float of seconds.
Components that need to integrate quantities over time (power -> energy)
subscribe to the clock and receive ``(t0, t1)`` callbacks for every
interval the clock advances over. Because all state changes in the
simulation happen at event boundaries (a kernel starts, a clock is set,
a collective begins), power draw is piecewise constant over each
advanced interval and the integration is exact.
"""

from __future__ import annotations

from typing import Callable, Tuple

#: Signature of a clock subscriber: called with the interval endpoints.
ClockListener = Callable[[float, float], None]


class ClockError(RuntimeError):
    """Raised on invalid clock manipulation (e.g. negative advance)."""


class VirtualClock:
    """A deterministic simulated clock measured in seconds.

    Parameters
    ----------
    start:
        Initial simulated time in seconds.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        # A tuple, rebuilt on (un)subscribe: advance iterates it as is.
        self._listeners: Tuple[ClockListener, ...] = ()
        self._advancing = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def subscribe(self, listener: ClockListener) -> None:
        """Register ``listener(t0, t1)`` to be invoked on every advance.

        Listeners are invoked in subscription order. A listener must not
        re-enter :meth:`advance`.
        """
        if listener in self._listeners:
            raise ClockError("listener already subscribed")
        self._listeners += (listener,)

    def unsubscribe(self, listener: ClockListener) -> None:
        """Remove a previously registered listener."""
        listeners = list(self._listeners)
        try:
            listeners.remove(listener)
        except ValueError:
            raise ClockError("listener was not subscribed") from None
        self._listeners = tuple(listeners)

    def advance(self, dt: float) -> float:
        """Advance simulated time by ``dt`` seconds and notify listeners.

        Returns the new simulated time. ``dt`` may be zero (no-op) but
        never negative; time is monotonic.
        """
        if dt < 0.0:
            raise ClockError(f"cannot advance clock by negative dt={dt!r}")
        if dt == 0.0:
            return self._now
        if self._advancing:
            raise ClockError("re-entrant clock advance from a listener")
        t0 = self._now
        t1 = t0 + dt
        self._advancing = True
        try:
            for listener in self._listeners:
                listener(t0, t1)
        finally:
            self._advancing = False
        self._now = t1
        return t1

    def advance_to(self, t: float) -> float:
        """Advance simulated time to absolute time ``t`` (monotonic)."""
        if t < self._now:
            raise ClockError(
                f"cannot move clock backwards: now={self._now!r}, target={t!r}"
            )
        return self.advance(t - self._now)

    # -- checkpoint ----------------------------------------------------------

    def state_dict(self) -> dict:
        """Checkpointable state (the current simulated time)."""
        return {"now": self._now}

    def restore_state(self, state: dict) -> None:
        """Restore from :meth:`state_dict` *without* firing listeners.

        Listeners integrate power over advanced intervals; a restore is
        a teleport back to an already-accounted instant, so energy must
        not be integrated again.
        """
        self._now = float(state["now"])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualClock(now={self._now:.6f}s, listeners={len(self._listeners)})"
