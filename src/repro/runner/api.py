"""One-call public API: compile and simulate a network.

>>> from repro import simulate, paper_chip
>>> report = simulate("alexnet", paper_chip())
>>> report.cycles > 0
True

Both functions run on the process-wide
:func:`repro.engine.default_engine`; persistent sessions, job files and
parallel streaming live on :class:`repro.engine.Engine`.
"""

from __future__ import annotations

from ..compiler import CompilationResult
from ..config import ArchConfig
from ..graph import Graph
from .results import SimReport

__all__ = ["simulate", "compile_model"]


def _engine(engine=None):
    """``engine``, else the process-wide default engine."""
    from ..engine import resolve_engine  # lazy: circular-import safe
    return resolve_engine(engine)


def compile_model(network: str | Graph, config: ArchConfig | None = None, *,
                  mapping: str | None = None,
                  imagenet: bool = False,
                  attention_shards: int | None = None,
                  cache: bool = True) -> CompilationResult:
    """Compile a network for an architecture (default: the paper chip).

    With ``cache`` (default), identical ``(graph, architecture, mapping)``
    points are compiled once per process (see
    :class:`repro.compiler.CompileCache`).  Delegates to the default
    engine; prefer :meth:`repro.engine.Engine.compile` for a private cache.
    """
    return _engine().compile(network, config, mapping=mapping,
                             imagenet=imagenet,
                             attention_shards=attention_shards, cache=cache)


def simulate(network: str | Graph, config: ArchConfig | None = None, *,
             mapping: str | None = None, rob_size: int | None = None,
             imagenet: bool = False, batch: int = 1,
             max_cycles: int | None = None,
             attention_shards: int | None = None,
             fidelity: str | None = None,
             compile_cache: bool = True) -> SimReport:
    """Compile and simulate a network; returns the report.

    ``mapping`` / ``rob_size`` override the corresponding configuration
    fields — the two knobs the paper's evaluation sweeps (Figs. 3 and 4);
    ``attention_shards`` overrides the token-sharded dynamic-attention
    width the same way.  ``fidelity`` selects the execution mode:
    ``"cycle"`` (default) is bit-exact event-driven simulation, ``"fast"``
    the batched analytic executor (bounded-error cycles, same report
    shape; see the Fidelity section of :mod:`repro.engine`).  ``batch > 1`` unrolls the program for a stream of
    images (pipelined throughput mode); the report's cycles cover the
    whole stream and its metadata records the batch for throughput math.

    ``compile_cache`` (default on) reuses compilations for repeated
    ``(network, architecture, mapping)`` points; the default engine's
    hit/miss counters are exposed as ``report.compile_cache_hits`` /
    ``report.compile_cache_misses`` (``meta["compile_cache_*"]``) so sweeps
    can assert they are not recompiling.

    Delegates to the default engine — prefer
    :meth:`repro.engine.Engine.simulate` when running many jobs: a
    session-scoped engine keeps its caches and worker pool warm.
    """
    return _engine().simulate(network, config, mapping=mapping,
                              rob_size=rob_size, imagenet=imagenet,
                              batch=batch, max_cycles=max_cycles,
                              attention_shards=attention_shards,
                              fidelity=fidelity,
                              compile_cache=compile_cache)
