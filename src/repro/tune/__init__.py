"""Design-space autotuning: candidate search, scoring, tune reports.

``repro.tune`` turns the simulator from a measurement instrument into an
optimizer: :class:`Tuner` enumerates a grid of dotted configuration
paths (by default the mapping / ROB / shard / placement knobs), measures
every candidate at ``fidelity="fast"``, re-verifies the leaders at
``fidelity="cycle"`` and baselines against both built-in mappings;
:class:`TuneReport` records the full measured table with the winning
configuration delta.  :meth:`Tuner.explore` is the measurement stage on
its own — the repo's one design-space sweep — and
:meth:`TuneReport.pareto` its latency/energy front.  :class:`CostModel`
scores one compiled candidate the same way (one fast run, no engine),
and :meth:`CostEstimate.objective` defines the objectives.
``pimsim tune`` is the CLI front end.
"""

from .costmodel import OBJECTIVES, CostEstimate, CostModel
from .search import Candidate, Tuner, TuneEntry, TuneReport

__all__ = [
    "CostModel",
    "CostEstimate",
    "OBJECTIVES",
    "Candidate",
    "Tuner",
    "TuneEntry",
    "TuneReport",
]
