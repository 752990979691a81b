"""PIMSIM-NN reproduction: an ISA-based simulation framework for
processing-in-memory neural-network accelerators.

The framework has three pillars, mirroring the paper (DATE'24):

* :mod:`repro.isa` — the PIM instruction set (matrix / vector / transfer /
  scalar classes, crossbar groups, programs, binary + text codecs);
* :mod:`repro.compiler` — the PIMCOMP-style compiler (operator fusion,
  utilization-first / performance-first weight mapping, scheduling, code
  generation);
* :mod:`repro.arch` on :mod:`repro.sim` — the cycle-accurate, event-driven
  simulator (cores with ROB + four execution units, mesh NoC, global
  memory, energy model).

Supporting casts: :mod:`repro.graph` + :mod:`repro.models` (network
descriptions), :mod:`repro.config` (architecture configuration files),
:mod:`repro.baseline` (MNSIM2.0-style comparator), :mod:`repro.runner`
(public API + CLI), :mod:`repro.analysis` (result breakdowns).

Quickstart (one-shot)::

    from repro import simulate, paper_chip
    report = simulate("resnet18", paper_chip(), mapping="performance_first")
    print(report.summary())

Quickstart (session) — an :class:`~repro.engine.Engine` keeps the model
cache, the compile cache and a persistent worker pool warm across
requests, so back-to-back sweeps pay neither pool spin-up nor
recompilation::

    from repro import Engine, JobSpec, small_chip
    with Engine(small_chip()) as engine:
        report = engine.simulate("resnet18")
        sweep = engine.map([JobSpec("resnet18", rob_size=r, tag=r)
                            for r in (1, 4, 8, 16)], workers=4)
        for index, report in engine.as_completed(
                [JobSpec("vgg8"), JobSpec("vit_tiny")], workers=2):
            print(index, report.cycles)

Specs serialize to JSON (an experiment is a file): ``pimsim batch
jobs.json`` replays a spec file and emits one report per line.
"""

from .config import (
    ArchConfig,
    get_preset,
    mnsim_like_chip,
    paper_chip,
    small_chip,
    tiny_chip,
)
from .engine import Engine, JobSpec, default_engine
from .models import MODELS, build_model
from .runner import (
    SimReport,
    compare_mappings,
    compare_with_baseline,
    compile_model,
    simulate,
    sweep_rob,
)

__version__ = "0.2.0"

__all__ = [
    "Engine",
    "JobSpec",
    "default_engine",
    "simulate",
    "compile_model",
    "SimReport",
    "compare_mappings",
    "sweep_rob",
    "compare_with_baseline",
    "ArchConfig",
    "paper_chip",
    "small_chip",
    "tiny_chip",
    "mnsim_like_chip",
    "get_preset",
    "build_model",
    "MODELS",
    "__version__",
]
