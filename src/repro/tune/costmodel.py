"""Candidate scoring: one fast-fidelity run folded into an objective.

The repo has two timing models — the event-driven ``cycle`` oracle and
the ``fast`` analytic tier gated against it (``tools/check_fidelity.py``,
``tests/test_fidelity.py``).  A candidate's score is simply what the
fast tier measures: :class:`CostModel` runs the compiled program once at
``fidelity="fast"`` and reports total cycles, total energy (leakage
included — it is the dominant term, so a dynamic-only tally ranks
energy backwards) and per-core halt times as a :class:`CostEstimate`.
:meth:`CostEstimate.objective` is the one place the tuning objectives
are defined; :class:`~repro.tune.search.Tuner` ranks its own
measurements through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arch import run_program
from ..compiler import CompilationResult
from ..config import ArchConfig

__all__ = ["CostEstimate", "CostModel", "OBJECTIVES"]

#: Tuning objectives: minimize latency (cycles), energy (pJ), or their
#: product (energy-delay product).
OBJECTIVES = ("latency", "energy", "edp")


@dataclass(frozen=True)
class CostEstimate:
    """Cycles and energy of one candidate, and the scalar ranked by."""

    #: total cycles (the makespan over cores).
    cycles: int
    #: total energy in picojoules, leakage included.
    energy_pj: float
    #: per-core halt times (diagnostic; the max is :attr:`cycles`).
    per_core_cycles: dict[int, int] = field(default_factory=dict)

    def objective(self, objective: str) -> float:
        """The scalar the tuner minimizes."""
        if objective == "latency":
            return float(self.cycles)
        if objective == "energy":
            return self.energy_pj
        if objective == "edp":
            return self.cycles * self.energy_pj
        raise ValueError(
            f"objective must be one of {OBJECTIVES}, got {objective!r}")


class CostModel:
    """Scores a compiled candidate with one engine-less fast-tier run."""

    def estimate(self, compiled: CompilationResult,
                 config: ArchConfig) -> CostEstimate:
        raw = run_program(compiled.program, config.with_fidelity("fast"))
        return CostEstimate(
            cycles=raw.cycles, energy_pj=raw.total_energy_pj,
            per_core_cycles={core: stats["halt_time"]
                             for core, stats in raw.per_core.items()})
