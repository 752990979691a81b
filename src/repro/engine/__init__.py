"""Engine/session layer: persistent, job-oriented access to the simulator.

:class:`Engine` holds warm artifacts (model cache, compile cache, worker
pool) across requests; :class:`JobSpec` is the unit of work and is JSON
round-trippable, so an experiment is a file (``pimsim batch``).  The
one-call functions in :mod:`repro.runner` run on :func:`default_engine`.

Fault tolerance
---------------

The worker pool is **supervised**: a crashed worker is respawned in
place (same lane, fresh pipes) instead of condemning the pool, so
deterministic dealing and every surviving worker's warm compile cache
outlive the crash.  The semantics, end to end:

* **Retries.**  Jobs owned by a crashed worker are transparently
  resubmitted, up to ``Engine(max_retries=...)`` (default 1, jittered
  backoff) for the job the worker was *running* — the crash suspect.  A
  job that keeps killing its workers is quarantined and surfaces as a
  typed :class:`JobPoisoned` failure.  Exceptions **raised by** a job
  (a bad spec, a compile error) are results: shipped back, re-raised or
  captured with their original type, and never retried.
* **Timeouts.**  ``JobSpec.timeout`` (or ``Engine(job_timeout=...)``)
  bounds a pooled job's wall-clock run; the watchdog kills and respawns
  the worker and the job fails as :class:`JobTimeout`.
* **Telemetry.**  :meth:`Engine.pool_stats` exposes the respawn / retry
  / timeout / poisoned counters next to :meth:`Engine.compile_stats`.
* **Warm growth.**  Asking for more workers than the live pool has
  spawns only the delta (:meth:`WorkerPool.grow`) — no cold restart.
* **Batch resume.**  ``pimsim batch --output run.jsonl`` journals each
  completion as it lands under its :meth:`JobSpec.job_id`; ``--resume``
  skips the jobs whose id the journal already settled, so a crashed
  1000-job sweep recomputes just what is missing and an edited spec is
  rerun, not masked by its position in the file.  (Batch, tune and the
  serve store share :class:`repro.engine.journal.Journal`.)

Retries, timeouts and chaos directives (:mod:`repro.engine.faults`, the
deterministic fault-injection harness that pins all of the above in
tests) apply to pooled execution only; in-process runs (``workers<=1``)
execute the spec directly and never evaluate faults.

Decode & serving mix
--------------------

Autoregressive decode re-runs one network at a growing KV extent.  The
engine compiles such a network (``kv_cache`` nodes; see
:data:`repro.models.DECODE_MODELS`) **once** into an
extent-parameterized :class:`~repro.compiler.StepTemplate` and replays
it per step — steps 2..N do zero compiler work, pinned by the
``template_hits`` / ``template_misses`` counters in
:meth:`Engine.compile_stats`, and every resolved step is field-for-field
identical to a from-scratch compile at that extent.  Three entry points:

* ``JobSpec(..., decode_steps=N, kv_tokens=T)`` — :meth:`Engine.run`
  aggregates the N steps into one report whose ``meta["decode"]``
  carries the per-step cycle/latency series.
* :meth:`Engine.decode_session` — a :class:`DecodeSession` cursor for
  step-at-a-time driving (``session.step()`` / ``session.run(n)``).
* :meth:`Engine.serve_mix` — a continuous-batching serving mix: decode
  specs expand into one-step decode jobs (each replaying its engine's
  template), interleaved round-robin with
  prefill requests over the warm pool, returning a
  :class:`~repro.runner.results.MixReport` with p50/p99 per-step
  latency and TPOT.

CLI: ``pimsim decode gpt_tiny --steps 32`` and ``pimsim decode --mix
specs.json``; see ``examples/decode_serving.py`` for the library idiom.

Fidelity
--------

Every job runs at one of two execution fidelities (``repro.config.
FIDELITIES``), selected by a single knob threaded through the whole
surface:

* ``"cycle"`` (default) — the bit-exact event-driven model.  Golden
  traces, the determinism gate and every published number pin this mode.
* ``"fast"`` — the batched analytic executor (``repro.arch.fast``):
  straight-line instruction runs advance in one arithmetic step each,
  entering the event kernel only at transfer/synchronization boundaries
  (cross-core flows, NoC and global memory stay event-driven, so
  contention and backpressure remain modeled).  Contract: total cycles
  within 2% of cycle mode across the model zoo (CI gate
  ``tools/check_fidelity.py``; currently exact on every zoo model),
  several times faster on compute-heavy networks.  Cores the analysis
  cannot cover (branchy programs, shared-ADC arbitration, tracing) fall
  back to the cycle-accurate core inside the same chip.

``JobSpec.fidelity`` beats the configuration's ``sim.fidelity``; the
engine holds no default of its own.
Reports carry ``report.fidelity`` plus (fast mode only) the
``analytic_runs`` / ``fallback_events`` counters, through batch JSONL
and the HTTP service alike.  CLI: ``--fidelity fast`` on ``pimsim
run`` / ``batch`` / ``decode`` / ``serve``.

Serving
-------

``pimsim serve --store jobs.jsonl`` (:mod:`repro.serve`) turns the
engine into a long-lived HTTP job server: specs are content-addressed
(:meth:`JobSpec.job_id`) into a crash-safe append-only journal, so a
SIGKILL'd server restarts without losing a settled result or
re-running a finished job; interrupted jobs re-enqueue with restart
blame (the process-level mirror of the pool's poison accounting).
Every job runs on the one Engine (``--workers`` bounds the process
count whatever configurations are posted; DESIGN.md "Serve process
model"), admission is bounded by backlog with ``Retry-After``
derived from :meth:`Engine.pool_stats`'s service-time EWMA and
occupancy, and SIGTERM drains gracefully: admissions stop, running
jobs finish to a deadline, the rest is re-journaled as next start's
work (:meth:`Engine.terminate` aborts the pool without draining).
"""

# Import order matters: `core` pulls in `repro.runner`, whose sweep module
# imports JobSpec back from this package — bind spec/pool names first.
from .spec import InvalidJobSpec, JobSpec, load_specs, save_specs
from .pool import (
    JobFailed,
    JobPoisoned,
    JobTimeout,
    PoolUnavailable,
    WorkerPool,
)
from .decode import DecodeSession
from .core import Engine

__all__ = [
    "Engine",
    "DecodeSession",
    "JobSpec",
    "InvalidJobSpec",
    "JobFailed",
    "JobPoisoned",
    "JobTimeout",
    "PoolUnavailable",
    "WorkerPool",
    "load_specs",
    "save_specs",
    "default_engine",
    "resolve_engine",
]

_default: Engine | None = None


def default_engine() -> Engine:
    """The process-wide engine behind the one-call functions
    (``simulate``, ``compile_model``, the Fig. 3/4/5 helpers): a plain
    ``Engine()`` with its own caches, built on first use."""
    global _default
    if _default is None:
        _default = Engine()
    return _default


def resolve_engine(engine: Engine | None = None) -> Engine:
    """``engine`` if given, else the process-wide default engine."""
    return engine if engine is not None else default_engine()
