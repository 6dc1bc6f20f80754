"""Deterministic discrete-event simulation kernel.

The paper measured SIMBA on real networks with wall-clock time; we reproduce
its timeliness results on a deterministic, seeded discrete-event kernel so
that every latency figure and every fault-recovery trace is exactly
repeatable.  The kernel follows the classic generator-based process model:
a *process* is a Python generator that yields :class:`~repro.sim.events.Event`
objects and is resumed when they trigger.

Public surface::

    env = Environment()
    proc = env.process(my_generator(env))
    env.run(until=3600.0)

plus :class:`Store` for mailboxes/queues, :mod:`~repro.sim.rng` for seeded
randomness, :mod:`~repro.sim.clock` for time arithmetic, and
:mod:`~repro.sim.failures` for fault injection.
"""

from repro.errors import Interrupt
from repro.sim.clock import (
    DAY,
    HOUR,
    MINUTE,
    SECOND,
    WEEK,
    format_time,
    time_of_day,
)
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.kernel import Environment
from repro.sim.pool import EventPool
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import TimerScope
from repro.sim.stores import Store
from repro.sim.wheel import WheelScheduler

__all__ = [
    "AllOf",
    "AnyOf",
    "DAY",
    "Environment",
    "Event",
    "EventPool",
    "HOUR",
    "Interrupt",
    "MINUTE",
    "Process",
    "RngRegistry",
    "SECOND",
    "Store",
    "TimerScope",
    "Timeout",
    "WEEK",
    "WheelScheduler",
    "format_time",
    "time_of_day",
]
