"""In-process compilation cache.

Sweeps (Figs. 3-5) repeatedly compile the same ``(network, architecture,
mapping)`` point: the ROB sweep simulates one compiled program under many
ROB capacities, ``compare_mappings`` shares everything but the mapping
policy, and batch experiments recompile per batch size.  The cache keys
compilations on the *compiler-visible* part of the configuration so those
repeats skip the whole frontend/mapping/codegen flow.

Two normalizations make the key:

* the ``sim`` section is dropped — frequency, trace and cycle limits only
  affect simulation;
* ``core.rob_size`` is normalized out — the ROB bounds dynamic issue in the
  simulator, the static program is identical for every capacity (this is
  what lets :func:`repro.runner.sweep.sweep_rob` reuse one compiled
  program across the whole Fig. 4 axis);
* the cosmetic ``name`` field is dropped.

Graphs are keyed by object identity (the entry pins the graph so the id
cannot be recycled); :meth:`repro.engine.Engine.resolve_network` memoizes
zoo models so repeated ``simulate("vgg8", ...)`` calls share one graph
object and therefore hit this cache.

Ownership: every cache instance belongs to one
:class:`repro.engine.Engine` (which also holds a private model cache),
so sessions with different configurations cannot poison each other;
this module defines the class and no instance.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict

from ..config import ArchConfig
from ..graph import Graph
from .pipeline import CompilationResult, compile_network

__all__ = ["CompileCache", "config_fingerprint"]


def config_fingerprint(config: ArchConfig) -> str:
    """Canonical string of the compiler-visible configuration subset."""
    data = config.to_dict()
    data.pop("sim", None)
    data.pop("name", None)
    core = data.get("core")
    if isinstance(core, dict):
        core["rob_size"] = None
    return json.dumps(data, sort_keys=True, default=str)


class CompileCache:
    """LRU cache of :class:`CompilationResult` keyed on (graph, config).

    Thread-safe; every worker process of a parallel sweep holds its own
    instance (inside its private engine), so repeated points within one
    worker skip recompilation without any cross-process traffic.  The
    engine's decode-template cache is a second instance, filled through
    :meth:`get_or_build` under content keys.
    """

    def __init__(self, maxsize: int = 128) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        #: key -> (pin, value); a graph pin keeps its id() from recycling.
        self._entries: "OrderedDict[tuple, tuple[object, object]]" = (
            OrderedDict())
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_compile(self, graph: Graph, config: ArchConfig) -> CompilationResult:
        """Return the cached compilation for this point, compiling on miss."""
        return self.get_or_build((id(graph), config_fingerprint(config)),
                                 lambda: compile_network(graph, config),
                                 pin=graph)

    def get_or_build(self, key: tuple, build, pin: object = None):
        """Return the value cached under ``key`` (its entry must hold the
        identical ``pin``), else ``build()`` it, evicting the least
        recently used entries beyond ``maxsize``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is pin:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry[1]
        # Build outside the lock; a racing duplicate build is benign
        # (both produce equivalent results, last writer wins).
        value = build()
        with self._lock:
            self.misses += 1
            self._entries[key] = (pin, value)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return value

    def stats(self) -> dict:
        """Counters snapshot (also attached to ``SimReport.meta``)."""
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._entries)}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

