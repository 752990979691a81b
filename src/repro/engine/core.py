"""The Engine: a persistent, job-oriented service layer over the simulator.

One :class:`Engine` owns all the mutable state of a session — the
zoo-model cache, the compilation cache, the decode-template cache and a
persistent pool of simulation workers — so warm artifacts survive across
requests and two engines with different configurations can never poison
each other's caches.

    >>> from repro.engine import Engine, JobSpec
    >>> with Engine(small_chip()) as engine:
    ...     report = engine.simulate("vgg8")                 # one-shot
    ...     reports = engine.map([JobSpec("vgg8", rob_size=r)  # warm sweep
    ...                           for r in (1, 4, 8)], workers=2)

The one-call functions (:func:`repro.runner.api.simulate`,
``compile_model`` and the Fig. 3/4/5 helpers in
:mod:`repro.runner.sweep`) run on a lazily built process-wide
:func:`~repro.engine.default_engine`, an ordinary ``Engine()``.
"""

from __future__ import annotations

import os
import weakref
from concurrent.futures import Future
from concurrent.futures import as_completed as _futures_as_completed
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from threading import Lock
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..arch import run_program
from ..compiler import (
    CompilationResult,
    CompileCache,
    StepTemplate,
    compile_network,
    compile_step_template,
    config_fingerprint,
    repeat_chip_program,
)
from ..config import ArchConfig, paper_chip, validate
from ..graph import Graph, kv_extent, with_kv_extent
from ..graph.serialize import graph_digest
from ..models import build_model
from ..runner.results import MixReport, SimReport
from .decode import DecodeSession, aggregate_step_reports
from .pool import (
    JobFailed,
    PoolUnavailable,
    WorkerPool,
    job_failure,
)
from .spec import JobSpec

__all__ = ["Engine"]

#: callback signature for :meth:`Engine.as_completed`:
#: ``progress(done, total, outcome)`` after each completion (``outcome``
#: is a :class:`JobFailed` for failed jobs under ``errors="capture"``).
ProgressFn = Callable[[int, int, "SimReport | JobFailed"], None]


class Engine:
    """A reusable simulation service: warm caches + persistent workers.

    Parameters
    ----------
    config:
        Default architecture configuration for jobs that do not carry
        their own (``None``: the paper chip).
    workers:
        Default parallelism for :meth:`submit` / :meth:`map` /
        :meth:`as_completed` when the call does not pass its own
        (``None``: all CPUs).
    max_retries:
        How often a single job may crash its worker before it is
        quarantined as :class:`~repro.engine.JobPoisoned` instead of
        retried (default 1; pooled runs only).  Exceptions *raised by* a
        job are results, never retried.
    job_timeout:
        Default wall-clock seconds per pooled job; a job running longer
        is killed (worker respawned in place) and fails with
        :class:`~repro.engine.JobTimeout`.  ``JobSpec.timeout``
        overrides it per job.  ``None`` (default): no timeout.

    A job's execution fidelity is its ``JobSpec.fidelity``, else its
    configuration's ``sim.fidelity``; the engine holds no default of its
    own, so serial and pooled runs read the tier from the same place.
    """

    def __init__(self, config: ArchConfig | None = None, *,
                 workers: int | None = None,
                 max_retries: int = 1,
                 job_timeout: float | None = None):
        self._config = config
        self._default_workers = workers
        self._max_retries = max_retries
        self._job_timeout = job_timeout
        self._compile_cache = CompileCache()
        #: memoized zoo builds: (name, imagenet) -> Graph.
        self._models: dict[tuple[str, bool], Graph] = {}
        #: content digest -> first graph seen with it (see
        #: :meth:`resolve_network`); insertion-ordered, FIFO-bounded.
        self._graph_memo: dict[str, Graph] = {}
        self._graph_memo_cap = 64
        #: (extent-normalized graph digest, config fingerprint) ->
        #: compiled decode template (see :meth:`step_template`), LRU-bounded
        #: at the compile cache's size.
        self._template_cache = CompileCache()
        self._pool: WorkerPool | None = None
        self._last_pool_width: int | None = None
        self._lock = Lock()

    @property
    def config(self) -> ArchConfig | None:
        """The engine's default configuration, fixed at construction.

        Read-only on purpose: pooled workers snapshot it when the pool is
        created, so a mutable default would let serial and pooled runs of
        the same spec silently diverge.  Build a new Engine (or put the
        configuration in the spec) to simulate against a different
        default.
        """
        return self._config

    # -- resolution ----------------------------------------------------------

    def resolve_network(self, network: str | Graph, *,
                        imagenet: bool = False) -> Graph:
        """Zoo name -> memoized graph; graph objects -> content memo.

        Memoization per ``(name, imagenet)`` is what keys the compile
        cache: repeated jobs share one graph object.  Graph *objects*
        are memoized by content digest (:func:`~repro.graph.serialize.
        graph_digest`): two jobs embedding the same network description
        — e.g. a batch of graph-object specs unpickled one per job in a
        pool worker — resolve to one canonical graph and therefore hit
        the identity-keyed compile cache instead of recompiling each
        time.
        """
        if isinstance(network, Graph):
            digest = graph_digest(network)
            canonical = self._graph_memo.get(digest)
            if canonical is None:
                self._graph_memo[digest] = canonical = network
                while len(self._graph_memo) > self._graph_memo_cap:
                    self._graph_memo.pop(next(iter(self._graph_memo)))
            return canonical
        key = (network, imagenet)
        graph = self._models.get(key)
        if graph is None:
            graph = self._models[key] = build_model(network,
                                                         imagenet=imagenet)
        return graph

    def _resolve(self, spec: JobSpec) -> tuple[Graph, ArchConfig]:
        """The one place a spec becomes ``(canonical graph, configuration)``:
        the spec's configuration (else the engine's, else the paper chip)
        with the spec's overrides applied, fidelity last (the spec's
        beats ``sim.fidelity``)."""
        config = spec.config or self.config or paper_chip()
        if spec.mapping is not None:
            config = config.with_mapping(spec.mapping)
        if spec.rob_size is not None:
            config = config.with_rob_size(spec.rob_size)
        if spec.attention_shards is not None:
            config = validate(
                config.with_attention_shards(spec.attention_shards))
        if spec.fidelity is not None and spec.fidelity != config.sim.fidelity:
            config = validate(config.with_fidelity(spec.fidelity))
        return (self.resolve_network(spec.network, imagenet=spec.imagenet),
                config)

    # -- one job -------------------------------------------------------------

    def compile(self, network: str | Graph, config: ArchConfig | None = None,
                *, mapping: str | None = None, imagenet: bool = False,
                attention_shards: int | None = None,
                cache: bool = True) -> CompilationResult:
        """Compile a network against this engine's caches."""
        spec = JobSpec(network, config, mapping=mapping, imagenet=imagenet,
                       attention_shards=attention_shards)
        return self.compile_for(spec, cache=cache)[0]

    def compile_for(self, spec: JobSpec, *, cache: bool = True,
                    ) -> tuple[CompilationResult, ArchConfig]:
        """Resolve a spec exactly like :meth:`run` and compile it — only.

        Returns the :class:`~repro.compiler.CompilationResult` together
        with the fully resolved configuration (spec overrides applied in
        the same precedence as :meth:`run`), without simulating, at
        compile-cache cost.  ``repro.tune`` uses it to inspect a
        candidate's pipeline and to diff the winner's configuration
        against the base; ``CostModel.estimate`` takes its result.
        """
        graph, config = self._resolve(spec)
        if cache:
            return self._compile_cache.get_or_compile(graph, config), config
        return compile_network(graph, config), config

    def step_template(self, network: str | Graph,
                      config: ArchConfig | None = None, *,
                      mapping: str | None = None, imagenet: bool = False,
                      attention_shards: int | None = None) -> StepTemplate:
        """The extent-parameterized decode template for a KV-cache network.

        Compiled once per ``(network contents, compiler-visible
        configuration)`` — the key normalizes the graph to extent 1, so
        sessions starting at different KV depths share one template —
        then served from the engine's template cache.  The
        ``template_hits`` / ``template_misses`` counters in
        :meth:`compile_stats` pin the compile-once property: a decode of
        N steps moves them by exactly one miss, never N.
        """
        return self._template(*self._resolve(
            JobSpec(network, config, mapping=mapping, imagenet=imagenet,
                    attention_shards=attention_shards)))

    def _template(self, graph: Graph, config: ArchConfig) -> StepTemplate:
        key = (graph_digest(with_kv_extent(graph, 1)),
               config_fingerprint(config))
        return self._template_cache.get_or_build(
            key, lambda: compile_step_template(graph, config))

    def decode_session(self, network: str | Graph,
                       config: ArchConfig | None = None, *,
                       kv_tokens: int | None = None,
                       mapping: str | None = None,
                       rob_size: int | None = None,
                       imagenet: bool = False,
                       attention_shards: int | None = None) -> DecodeSession:
        """Open a :class:`~repro.engine.DecodeSession` on this engine."""
        return DecodeSession(self, JobSpec(
            network, config, mapping=mapping, rob_size=rob_size,
            imagenet=imagenet, attention_shards=attention_shards,
            kv_tokens=kv_tokens).validate())

    def run(self, spec: JobSpec, *, compile_cache: bool = True) -> SimReport:
        """Execute one spec in-process and return its report.

        The report's metadata carries this engine's compile-cache counters
        (``compile_cache_hits`` / ``compile_cache_misses``) and the spec's
        ``tag`` (as ``sweep_tag``).  Decode specs (``decode_steps`` set)
        drive a compile-once :class:`DecodeSession` and return one
        aggregated report (``meta["decode"]``).  :meth:`JobSpec.validate`
        runs first: a bad spec raises before anything compiles.
        """
        spec.validate()
        if spec.decode_steps is not None:
            report = DecodeSession(self, spec).run(spec.decode_steps)
        else:
            compiled, config = self.compile_for(spec, cache=compile_cache)
            program = compiled.program
            if spec.batch > 1:
                program = repeat_chip_program(program, spec.batch)
            raw = run_program(program, config, max_cycles=spec.max_cycles)
            report = SimReport.from_raw(raw, config,
                                        program.total_instructions)
        if compile_cache:
            report.meta["compile_cache_hits"] = self._compile_cache.hits
            report.meta["compile_cache_misses"] = self._compile_cache.misses
        if spec.tag is not None:
            report.meta["sweep_tag"] = spec.tag
        return report

    def simulate(self, network: str | Graph | JobSpec,
                 config: ArchConfig | None = None, *,
                 mapping: str | None = None, rob_size: int | None = None,
                 imagenet: bool = False, batch: int = 1,
                 max_cycles: int | None = None,
                 attention_shards: int | None = None,
                 fidelity: str | None = None,
                 tag: Any = None,
                 compile_cache: bool = True) -> SimReport:
        """Compile + simulate one job in-process (accepts a spec directly)."""
        if isinstance(network, JobSpec):
            overrides = {"config": config, "mapping": mapping,
                         "rob_size": rob_size, "imagenet": imagenet,
                         "batch": batch, "max_cycles": max_cycles,
                         "attention_shards": attention_shards,
                         "fidelity": fidelity, "tag": tag}
            defaults = {f.name: f.default for f in dataclass_fields(JobSpec)}
            stray = [key for key, value in overrides.items()
                     if value != defaults[key]]
            if stray:
                raise TypeError(f"pass overrides inside the JobSpec, not "
                                f"alongside it (got {sorted(stray)})")
            spec = network
        else:
            spec = JobSpec(network, config, mapping=mapping,
                           rob_size=rob_size, imagenet=imagenet, batch=batch,
                           max_cycles=max_cycles, tag=tag,
                           attention_shards=attention_shards,
                           fidelity=fidelity)
        return self.run(spec, compile_cache=compile_cache)

    # -- many jobs -----------------------------------------------------------

    def _resolve_workers(self, workers: int | None,
                         n_jobs: int | None = None) -> int:
        if workers is None:
            workers = self._default_workers
        if workers is None:
            workers = os.cpu_count() or 1
        if n_jobs is not None:
            workers = min(workers, n_jobs)
        return max(1, workers)

    def _ensure_pool(self, workers: int) -> WorkerPool:
        while True:
            stale = None
            with self._lock:
                pool = self._pool
                if pool is not None and pool.broken:
                    # Cold restart — only for the unrecoverable case (a
                    # worker could not be respawned).  Plain worker death
                    # heals in place inside the pool itself.
                    stale, self._pool = pool, None
                    pool = None
                elif pool is not None and pool.size < workers:
                    # Warm growth: spawn only the delta, keeping every
                    # existing worker's compile cache.
                    try:
                        pool.grow(workers)
                        self._last_pool_width = pool.size
                    except PoolUnavailable:  # raced a close/breakage
                        stale, self._pool = pool, None
                        pool = None
                if pool is None and stale is None:
                    pool = self._pool = WorkerPool(
                        workers, self.config,
                        max_retries=self._max_retries,
                        default_timeout=self._job_timeout)
                    self._last_pool_width = workers
                    # An Engine dropped without close() must not pin idle
                    # workers for the rest of the process.
                    weakref.finalize(self, pool.close_if_idle)
                if pool is not None:
                    return pool
            # Drain the replaced pool outside the engine lock — its
            # in-flight jobs may run for minutes, and other engine
            # operations must not stall behind them.
            stale.close()

    def submit(self, spec: JobSpec) -> Future:
        """Queue one spec on the persistent pool; returns its Future.

        Reuses whatever live pool the engine already holds (so a submit
        after ``map(..., workers=2)`` keeps those two warm workers); with
        no pool yet, one is created at the engine's default worker count
        (its ``workers`` argument; the last pool's width after a
        ``close()``; all CPUs otherwise).
        """
        # A concurrent map() may replace the pool between our read and
        # the pool-level submit; retry against the replacement rather
        # than surfacing a spurious "pool is closed" on a healthy engine.
        for _attempt in range(3):
            with self._lock:
                pool = self._pool
                width = (self._default_workers or self._last_pool_width
                         or os.cpu_count() or 1)
            if pool is None or pool.broken:
                pool = self._ensure_pool(width)
            try:
                return pool.submit(spec)
            except PoolUnavailable:
                with self._lock:
                    if self._pool is pool:  # genuinely broken/closed
                        self._pool = None
                pool.close()  # release its surviving workers
        raise RuntimeError("worker pool kept failing across retries")

    def _dispatch(self, specs: Sequence[JobSpec], workers: int | None,
                  errors: str = "raise") -> list["Future | JobFailed"]:
        """Deal a batch over the warm pool (job ``i`` -> worker ``i % N``).

        Identical batches land on identical workers, which is what lets
        their warm compile caches hit.  Under ``errors="capture"`` a pool
        that breaks mid-dealing (a worker died) yields
        :class:`JobFailed` placeholders for the jobs that could not be
        queued instead of aborting the batch.
        """
        lanes = self._resolve_workers(workers, len(specs))
        pool = self._ensure_pool(lanes)
        lanes = min(lanes, pool.size)
        entries: list[Future | JobFailed] = []
        for i, spec in enumerate(specs):
            try:
                entries.append(pool.submit(spec, worker=i % lanes))
            except Exception as exc:
                # broken pool, or a spec that cannot cross the boundary
                # (e.g. an unpicklable tag)
                if errors == "raise":
                    raise
                entries.append(job_failure(exc))
        return entries

    def map(self, specs: Iterable[JobSpec], *, workers: int | None = None,
            errors: str = "raise") -> list[SimReport | JobFailed]:
        """Run every spec, returning reports in spec order.

        ``workers <= 1`` runs in-process against this engine's caches;
        otherwise the batch is dealt deterministically over the persistent
        worker pool (job ``i`` -> worker ``i % workers``), so a second
        ``map`` over the same specs hits every worker's warm compile
        cache.  ``errors="capture"`` returns :class:`JobFailed` entries in
        place of reports instead of raising.
        """
        if errors not in ("raise", "capture"):
            raise ValueError(f"errors must be 'raise' or 'capture', "
                             f"got {errors!r}")
        specs = list(specs)
        if not specs:
            return []
        if self._resolve_workers(workers, len(specs)) <= 1:
            results: list[SimReport | JobFailed] = []
            for spec in specs:
                try:
                    results.append(self.run(spec))
                except Exception as exc:
                    if errors == "raise":
                        raise
                    results.append(job_failure(exc))
            return results
        entries = self._dispatch(specs, workers, errors)
        results = []
        for entry in entries:
            if isinstance(entry, JobFailed):  # pool broke while dealing
                results.append(entry)
                continue
            try:
                results.append(entry.result())
            except JobFailed as failure:
                if errors == "raise":
                    raise
                results.append(failure)
            except Exception as exc:
                if errors == "raise":
                    raise
                results.append(job_failure(exc))
        return results

    def as_completed(self, specs: Iterable[JobSpec], *,
                     workers: int | None = None,
                     progress: ProgressFn | None = None,
                     errors: str = "raise",
                     ) -> Iterator[tuple[int, SimReport | JobFailed]]:
        """Yield ``(index, report)`` pairs as jobs finish.

        ``index`` is the job's position in ``specs``; ``progress(done,
        total, report)`` fires after every completion.  With ``workers <=
        1`` jobs run in-process and complete in order.
        ``errors="capture"`` yields :class:`JobFailed` entries in place of
        reports instead of raising.

        Validation and (for the pooled path) job dispatch happen eagerly
        at the call, matching :meth:`map`; only result consumption is
        lazy in the returned iterator.
        """
        if errors not in ("raise", "capture"):
            raise ValueError(f"errors must be 'raise' or 'capture', "
                             f"got {errors!r}")
        specs = list(specs)
        total = len(specs)

        def _one(run_job, index, done):
            try:
                outcome = run_job()
            except JobFailed as failure:
                if errors == "raise":
                    raise
                outcome = failure
            except Exception as exc:
                if errors == "raise":
                    raise
                outcome = job_failure(exc)
            if progress is not None:
                progress(done, total, outcome)
            return index, outcome

        if self._resolve_workers(workers, total) <= 1:
            def _serial() -> Iterator[tuple[int, SimReport | JobFailed]]:
                for i, spec in enumerate(specs):
                    yield _one(lambda: self.run(spec), i, i + 1)
            return _serial()

        entries = self._dispatch(specs, workers, errors)  # submits now

        def _stream() -> Iterator[tuple[int, SimReport | JobFailed]]:
            done = 0
            index_of: dict[Future, int] = {}
            for i, entry in enumerate(entries):
                if isinstance(entry, JobFailed):  # failed at dispatch
                    done += 1
                    if progress is not None:
                        progress(done, total, entry)
                    yield i, entry
                else:
                    index_of[entry] = i
            for future in _futures_as_completed(index_of):
                done += 1
                yield _one(future.result, index_of[future], done)
        return _stream()

    def serve_mix(self, specs: Iterable[JobSpec], *,
                  workers: int | None = None,
                  errors: str = "raise") -> "MixReport":
        """Continuous-batching serving mix: prefill and decode together.

        Each decode spec (``decode_steps`` set) expands into one one-step
        decode spec per step at its growing KV extent — each replays the
        step template of the engine it lands on, so a mix compiles its
        decode network once per worker — and prefill specs stay whole.  The
        units are interleaved round-robin across requests — every
        scheduling round advances each live request by one step, the
        continuous-batching order — and dealt over the engine
        (:meth:`map`: in-process under ``workers <= 1``, else the warm
        worker pool).  Per-request outcomes fold back into one
        aggregated report each; the returned
        :class:`~repro.runner.results.MixReport` carries the per-step
        latency samples and their p50/p99/TPOT distribution.  A decode
        spec that fails :meth:`JobSpec.validate` raises whatever ``errors``.
        """
        specs = list(specs)
        units_per_request: list[list[JobSpec]] = []
        for spec in specs:
            if spec.decode_steps is None:
                units_per_request.append([spec])
                continue
            graph = self.resolve_network(spec.validate().network,
                                         imagenet=spec.imagenet)
            start = spec.kv_tokens or kv_extent(graph)[0]
            units_per_request.append([
                replace(spec, decode_steps=1, kv_tokens=start + i)
                for i in range(spec.decode_steps)])

        # Round-robin over requests: the continuous-batching schedule.
        rounds = max(map(len, units_per_request), default=0)
        schedule = [(r, units[u]) for u in range(rounds)
                    for r, units in enumerate(units_per_request)
                    if u < len(units)]
        outcomes = self.map([unit for _r, unit in schedule],
                            workers=workers, errors=errors)
        per_request: list[list[SimReport | JobFailed]] = [[] for _ in specs]
        for (r, _unit), outcome in zip(schedule, outcomes):
            per_request[r].append(outcome)

        reports: list[SimReport | JobFailed] = []
        step_seconds: list[float] = []
        prefill_seconds: list[float] = []
        for r, outcomes_r in enumerate(per_request):
            failed = next((o for o in outcomes_r
                           if isinstance(o, JobFailed)), None)
            if failed is not None:
                reports.append(failed)
                continue
            if specs[r].decode_steps is not None:
                step_seconds.extend(rep.seconds for rep in outcomes_r)
                reports.append(aggregate_step_reports(
                    outcomes_r, kv_tokens=units_per_request[r][0].kv_tokens))
            else:
                prefill_seconds.append(outcomes_r[0].seconds)
                reports.append(outcomes_r[0])
        return MixReport(reports=reports, step_seconds=step_seconds,
                         prefill_seconds=prefill_seconds)

    # -- introspection / lifecycle -------------------------------------------

    def compile_stats(self) -> dict:
        """This engine's compile-cache counters (hits/misses/entries),
        plus the decode-template counters (``template_hits`` /
        ``template_misses`` / ``template_entries``)."""
        stats = dict(self._compile_cache.stats())
        for key, value in self._template_cache.stats().items():
            stats[f"template_{key}"] = value
        return stats

    def pool_stats(self) -> dict:
        """The live pool's supervision telemetry (compile_stats' sibling).

        ``respawns`` counts workers replaced in place after a crash or
        timeout kill, ``retries`` the jobs resubmitted across those
        respawns, ``timeouts``/``poisoned`` the jobs settled as
        :class:`~repro.engine.JobTimeout`/:class:`~repro.engine.JobPoisoned`.
        ``queue_depth``/``in_flight`` split the outstanding jobs into
        not-yet-started vs running, and ``ewma_service_s`` is a moving
        average of observed job service times — together the occupancy
        signal ``pimsim serve`` derives its admission control and
        ``Retry-After`` from.  All zeros until the first parallel call
        creates a pool.
        """
        pool = self._pool
        if pool is None:
            return {"size": 0, "respawns": 0, "retries": 0,
                    "timeouts": 0, "poisoned": 0, "broken": False,
                    "queue_depth": 0, "in_flight": 0,
                    "ewma_service_s": 0.0}
        return pool.stats()

    @property
    def pool_size(self) -> int:
        """Live worker processes (0 until the first parallel call)."""
        pool = self._pool
        return pool.size if pool is not None else 0

    def clear_caches(self) -> None:
        """Drop compiled programs, decode templates and memoized graphs."""
        self._compile_cache.clear()
        self._models.clear()
        self._graph_memo.clear()
        self._template_cache.clear()

    def terminate(self) -> None:
        """Abort the worker pool without draining; engine stays usable.

        :meth:`close`'s drop-everything sibling: queued and in-flight
        jobs fail with :class:`~repro.engine.PoolUnavailable` instead of
        being waited on.  ``pimsim serve`` uses it when the graceful
        drain deadline expires — a wedged job must not be able to hold
        the process past its deadline.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.abort("worker pool terminated")

    def close(self) -> None:
        """Shut the worker pool down; the engine stays usable in-process.

        A later parallel call re-creates a pool (``submit`` at the
        closed pool's width); call :meth:`close` again afterwards if the
        workers should not outlive that call either.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
