"""Top-level runner: simulate(), the Fig. 3/4/5 sweeps, reports, CLI."""

from .api import compile_model, simulate
from .results import MixReport, SimReport
from .sweep import (
    BaselineComparison,
    MappingComparison,
    RobSweep,
    compare_mappings,
    compare_with_baseline,
    sweep_rob,
)

__all__ = [
    "simulate",
    "compile_model",
    "SimReport",
    "MixReport",
    "compare_mappings",
    "sweep_rob",
    "compare_with_baseline",
    "MappingComparison",
    "RobSweep",
    "BaselineComparison",
]
