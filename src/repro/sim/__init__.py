"""Event-driven simulation kernel (pure-Python SystemC substitute).

Public surface:

* :class:`~repro.sim.kernel.Simulator` — the event queue / process scheduler.
* :class:`~repro.sim.kernel.Event`, :class:`~repro.sim.kernel.AnyOf`,
  :class:`~repro.sim.kernel.AllOf` — wait conditions.
* :class:`~repro.sim.channel.Fifo`, :class:`~repro.sim.channel.Resource`
  — the blocking queue and the counted lock (``Resource(sim, 1)`` is the
  exclusive one).  The ISA's synchronized SEND/RECV pairing lives in the
  model layer (:class:`repro.arch.flows.FlowChannel`).
* :class:`~repro.sim.analytic.PendingCompletion`,
  :class:`~repro.sim.analytic.AnalyticWindow` — the fast tier's analytic
  scheduling primitives.
"""

from .analytic import AnalyticWindow, PendingCompletion
from .channel import ChannelError, Fifo, Resource
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
    "Resource",
    "ChannelError",
    "PendingCompletion",
    "AnalyticWindow",
]
