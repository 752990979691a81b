"""Event-driven simulation kernel (pure-Python SystemC substitute).

Public surface:

* :class:`~repro.sim.kernel.Simulator` — the event wheel / process scheduler.
* :class:`~repro.sim.kernel.Event`, :class:`~repro.sim.kernel.AnyOf`,
  :class:`~repro.sim.kernel.AllOf` — wait conditions.
* :class:`~repro.sim.channel.Fifo`, :class:`~repro.sim.channel.Rendezvous`,
  :class:`~repro.sim.channel.Mutex`, :class:`~repro.sim.channel.Resource`
  — blocking communication/arbitration primitives.
* :class:`~repro.sim.analytic.PendingCompletion`,
  :class:`~repro.sim.analytic.AnalyticWindow` — the fast tier's analytic
  scheduling primitives.
"""

from .analytic import AnalyticWindow, PendingCompletion
from .channel import ChannelError, Fifo, Mutex, Rendezvous, Resource
from .kernel import (
    AllOf,
    AnyOf,
    DeadlockError,
    Event,
    Process,
    SimulationError,
    Simulator,
)

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "AnyOf",
    "AllOf",
    "SimulationError",
    "DeadlockError",
    "Fifo",
    "Rendezvous",
    "Mutex",
    "Resource",
    "ChannelError",
    "PendingCompletion",
    "AnalyticWindow",
]
