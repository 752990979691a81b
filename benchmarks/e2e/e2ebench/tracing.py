"""Spans, self time, and the benchmark-driven stage calls of a traced run.

The traced run does not call ``Engine.run``: :class:`Stages` calls each
layer's public functions itself — ``build_model`` -> ``build_pipeline`` ->
``map_network`` -> ``generate_code`` -> ``verify_program`` ->
``Program.static_blockers`` -> ``run_program`` -> ``SimReport.from_raw`` —
with a span around every call, so the layer split is measured from the
benchmark's own files and nothing under ``src/`` is instrumented.  Work
``Engine.run`` would not do (a second, warm run of a fresh program; the
JSON dump; the cycle-accurate reference of a fast job) is recorded in
spans marked ``extra`` and excluded when a traced job's wall is compared
with its untraced one.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

from repro.arch import run_program
from repro.compiler import compile_step_template, config_fingerprint
from repro.compiler.codegen import generate_code
from repro.compiler.frontend import build_pipeline
from repro.compiler.mapping import map_network
from repro.compiler.pipeline import CompilationResult
from repro.config import ArchConfig, validate
from repro.engine import JobSpec
from repro.engine.decode import aggregate_step_reports
from repro.isa import verify_program
from repro.models import build_model
from repro.runner.results import SimReport

__all__ = ["Tracer", "Stages", "resolve_config", "self_times",
           "relative_error_pct"]


class Tracer:
    """In-memory span recorder; spans nest per thread.

    A span is ``{name, layer, start, end, parent, job, extra}`` —
    ``parent`` the index of the enclosing span (None at the root), ``job``
    the ``JobSpec.job_id()`` all spans of one job share.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, name: str, layer: str, start: float, end: float, *,
            parent: int | None = None, job: str | None = None,
            extra: bool = False, **attrs) -> int:
        record = {"name": name, "layer": layer, "start": start, "end": end,
                  "parent": parent, "job": job, "extra": extra, **attrs}
        with self._lock:
            self.spans.append(record)
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, layer: str, *, job: str | None = None,
             extra: bool = False, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if job is None and parent is not None:
            job = self.spans[parent]["job"]
        index = self.add(name, layer, time.perf_counter(), 0.0,
                         parent=parent, job=job, extra=extra, **attrs)
        stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self.spans[index]["end"] = time.perf_counter()
            stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus what its direct children cover."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def relative_error_pct(value: int, reference: int) -> float:
    return abs(value - reference) / reference * 100.0


def resolve_config(spec: JobSpec, base: ArchConfig) -> ArchConfig:
    """Spec overrides applied to the base configuration, in the engine's
    precedence, through the configuration's public ``with_*`` helpers.
    (The traced run checks its cycles against ``Engine.run`` of the same
    spec, which pins this to the engine's own resolution.)"""
    config = spec.config or base
    if spec.mapping is not None:
        config = config.with_mapping(spec.mapping)
    if spec.rob_size is not None:
        config = config.with_rob_size(spec.rob_size)
    if spec.attention_shards is not None:
        config = config.with_attention_shards(spec.attention_shards)
    if spec.fidelity is not None and spec.fidelity != config.sim.fidelity:
        config = config.with_fidelity(spec.fidelity)
    return validate(config)


class Stages:
    """Runs one job stage by stage under a :class:`Tracer`.

    Holds the benchmark's own model / compile / template caches (the
    engine's equivalents are private to it); :meth:`clear` is the
    counterpart of ``Engine.clear_caches`` for cold workloads.
    """

    def __init__(self, tracer: Tracer, base: ArchConfig) -> None:
        self.tracer = tracer
        self.base = base
        self.clear()

    def clear(self) -> None:
        self._graphs: dict[str, object] = {}
        self._compiled: dict[tuple[str, str], tuple] = {}
        self._templates: dict[tuple[str, str], object] = {}
        self._resolved: set[tuple[int, int]] = set()
        self._has_run: set[tuple[int, str]] = set()

    # -- stages --------------------------------------------------------------

    def _graph(self, network: str):
        graph = self._graphs.get(network)
        if graph is None:
            with self.tracer.span("build_model", "models"):
                graph = self._graphs[network] = build_model(network)
        return graph

    def compile(self, spec: JobSpec) -> tuple[CompilationResult, ArchConfig]:
        """Model + configuration + (cached) compilation of a plain spec."""
        graph = self._graph(spec.network)
        with self.tracer.span("resolve_config", "engine"):
            config = resolve_config(spec, self.base)
            key = (spec.network, config_fingerprint(config))
        compiled = self._compiled.get(key, (None,))[0]
        if compiled is None:
            span = self.tracer.span
            with span("compile", "compiler") as point:
                with span("build_pipeline", "compiler"):
                    pipeline = build_pipeline(
                        graph,
                        operator_fusion=config.compiler.operator_fusion)
                with span("map_network", "compiler"):
                    placement = map_network(pipeline, config)
                with span("generate_code", "compiler"):
                    program = generate_code(pipeline, placement, config)
                with span("verify_program", "compiler"):
                    verify_program(program, config)
                point["instructions"] = program.total_instructions
            compiled = CompilationResult(pipeline, placement, program)
            self._compiled[key] = (compiled, config)
        return compiled, config

    def compiled_points(self) -> list[tuple[CompilationResult, ArchConfig]]:
        """Every compilation currently cached, with its configuration."""
        return list(self._compiled.values())

    def _simulate(self, program, config: ArchConfig, *, reference: bool,
                  on_raw) -> tuple[SimReport, int | None]:
        """Blocker tables, the run (plus a warm re-run of a fresh
        program), the report; for fast jobs optionally the cycle-accurate
        reference.  Returns ``(report, reference cycles or None)``."""
        span = self.tracer.span
        fidelity = config.sim.fidelity
        with span("static_blockers", "isa"):
            for core_program in program.programs.values():
                if core_program.sealed:
                    core_program.static_blockers(config.core.rob_size)
        first = (id(program), fidelity) not in self._has_run
        self._has_run.add((id(program), fidelity))
        attrs = dict(fidelity=fidelity,
                     instructions=program.total_instructions,
                     program=id(program))
        with span("run_program.first" if first else "run_program.warm",
                  "arch", **attrs):
            raw = run_program(program, config)
        if first:
            with span("run_program.warm", "arch", extra=True, **attrs):
                run_program(program, config)
        with span("SimReport.from_raw", "runner"):
            report = SimReport.from_raw(raw, config,
                                        program.total_instructions)
        if on_raw is not None:
            on_raw(raw)
        exact = None
        if reference and fidelity == "fast":
            with span("run_program.reference", "arch", extra=True):
                exact = run_program(program,
                                    config.with_fidelity("cycle")).cycles
        return report, exact

    def _decode(self, spec: JobSpec, *, reference: bool, on_raw):
        span = self.tracer.span
        graph = self._graph(spec.network)
        with span("resolve_config", "engine"):
            config = resolve_config(spec, self.base)
            key = (spec.network, config_fingerprint(config))
        template = self._templates.get(key)
        if template is None:
            with span("compile_step_template", "compiler"):
                template = self._templates[key] = compile_step_template(
                    graph, config)
        reports, exact_total = [], None
        for step in range(spec.decode_steps):
            extent = spec.kv_tokens + step
            touched = (id(template), extent) in self._resolved
            self._resolved.add((id(template), extent))
            with span("StepTemplate.resolve.memo" if touched
                      else "StepTemplate.resolve", "compiler"):
                chip = template.resolve(extent)
            report, exact = self._simulate(chip, config,
                                           reference=reference,
                                           on_raw=on_raw)
            if exact is not None:
                exact_total = (exact_total or 0) + exact
            reports.append(report)
        with span("aggregate_step_reports", "engine"):
            report = aggregate_step_reports(reports,
                                            kv_tokens=spec.kv_tokens)
        return report, exact_total

    def run(self, spec: JobSpec, *, reference: bool = True, on_raw=None,
            ) -> tuple[SimReport, float | None]:
        """One traced job: ``(report, fast-vs-cycle error %)`` — the error
        is None for cycle jobs or without ``reference``.  ``on_raw(raw)``
        sees every run's raw result (one per decode step), so the caller
        can read counters without the run keeping them all."""
        with self.tracer.span("job", "engine", job=spec.job_id(),
                              network=spec.network):
            if spec.decode_steps is not None:
                report, exact = self._decode(spec, reference=reference,
                                             on_raw=on_raw)
            else:
                compiled, config = self.compile(spec)
                report, exact = self._simulate(
                    compiled.program, config, reference=reference,
                    on_raw=on_raw)
            with self.tracer.span("report.to_json", "runner", extra=True,
                                  ) as dump:
                dump["bytes"] = len(json.dumps(report.to_dict()))
        error = relative_error_pct(report.cycles, exact) if exact else None
        return report, error
