"""Explicit timer lifecycle for the simulation kernel.

The kernel's scheduler itself is :class:`~repro.sim.wheel.WheelScheduler`.
This module holds what timer *consumers* use on top of it:
:class:`TimerScope`, the acquire/settle lifecycle used across the
delivery stack (router ack guards, watchdog probes, replication
heartbeats, channel transit and outage timers).  Timers acquired through
a scope are structurally cancelled when the scope settles — including
when a process is interrupted or its generator is closed mid-wait —
instead of relying on ad-hoc ``timeout.cancel()`` calls at every call
site.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.events import Timeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.kernel import Environment


class TimerScope:
    """Explicit acquire/settle lifecycle for guard and interval timers.

    Timer consumers used to pair every race with a hand-written
    ``timeout.cancel()`` on every exit path; a missed path leaked a live
    timer into the queue until its (often hours-away) deadline.  A scope
    makes the cancellation structural::

        with env.timers() as timers:
            guard = timers.acquire(block.ack_timeout)
            yield env.any_of([*acks, guard])
        # <- guard is cancelled here if it lost the race

    Because ``with`` runs ``__exit__`` on *any* unwind — including the
    ``GeneratorExit`` thrown when the kernel closes an interrupted
    process's generator, and the :class:`~repro.errors.Interrupt` thrown
    into it — acquired timers can never outlive the block that needed
    them, no matter how it ends.

    Scopes are reusable across loop iterations: :meth:`acquire` prunes
    timers that have already fired or been cancelled, so a heartbeat
    loop can hold one scope open for its whole life and still track only
    the current interval timer.
    """

    __slots__ = ("env", "active")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Timers acquired and not yet settled (pruned lazily).
        self.active: list[Timeout] = []

    def acquire(self, delay: float, value: Any = None) -> Timeout:
        """Create a timeout owned by this scope."""
        active = self.active
        if active:
            active[:] = [
                t for t in active
                if t.callbacks is not None and not t._cancelled
            ]
        timer = self.env.timeout(delay, value)
        active.append(timer)
        return timer

    def cancel(self, timer: Timeout) -> None:
        """Cancel and release one acquired timer early."""
        if timer.callbacks is not None and not timer._cancelled:
            timer.cancel()
        try:
            self.active.remove(timer)
        except ValueError:
            pass

    @property
    def pending(self) -> int:
        """Acquired timers that are still live (could still fire)."""
        return sum(
            1 for t in self.active
            if t.callbacks is not None and not t._cancelled
        )

    def settle(self) -> int:
        """Cancel every acquired timer that is still live.

        Returns the number of timers actually cancelled.  Idempotent —
        fired, already-cancelled and previously settled timers are
        skipped.
        """
        cancelled = 0
        for timer in self.active:
            if timer.callbacks is not None and not timer._cancelled:
                timer.cancel()
                cancelled += 1
        self.active.clear()
        return cancelled

    def __enter__(self) -> "TimerScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.settle()
        return False

    def __repr__(self) -> str:
        return f"<TimerScope pending={self.pending} at {id(self):#x}>"
