"""``pimsim serve``: a durable network front-end over the Engine.

The serving stack, bottom to top (each layer testable without the one
above it — the Toki ``api/public.py`` -> ``api/http.py`` layering):

* :class:`JobStore` (:mod:`repro.serve.store`) — a crash-safe,
  append-only JSONL journal of every submitted spec and state
  transition (``queued -> running -> done|failed|poisoned|timeout``,
  plus ``cancelled``), fsync'd before acknowledgement and compacted
  when it dwarfs the live job set.  After a SIGKILL the journal replays
  exactly: settled results are served forever without re-execution
  (jobs are content-addressed by :meth:`JobSpec.job_id
  <repro.engine.JobSpec.job_id>`), interrupted jobs re-enqueue with
  restart blame and are quarantined as ``poisoned`` past
  ``max_restarts`` — the process-level mirror of the worker pool's
  poison accounting.

* :class:`ServeService` (:mod:`repro.serve.service`) — admission
  control (a bounded backlog; over the high-water mark submissions are
  refused as :class:`Overloaded` with a ``Retry-After`` derived from
  the pool's service-time EWMA), one warm
  :class:`~repro.engine.Engine` for every job (``--workers`` is the
  process bound whatever configurations clients post; DESIGN.md "Serve
  process model"), and graceful drain (stop admissions, finish running
  jobs to a deadline, re-journal whatever remains as next start's work).

* :func:`serve_http` (:mod:`repro.serve.http`) — the stdlib
  ``ThreadingHTTPServer`` codec: ``POST /jobs``, ``GET /jobs[?state=]``,
  ``GET /jobs/<id>[/result]``, ``DELETE /jobs/<id>``, ``GET /healthz``,
  ``GET /readyz`` (unready while draining or when the worker pool is
  broken beyond self-healing, so an orchestrator restarts the server).

``pimsim serve --store jobs.jsonl`` wires the three together; see
:mod:`repro.runner.cli` for the flag surface and the exit-code
contract (0 clean drain / 2 fatal / 3 drain deadline expired).
"""

from .store import (
    STATES,
    TERMINAL_STATES,
    JobRecord,
    JobStore,
    UnknownJob,
)
from .service import Draining, Overloaded, ServeService
from .http import ServeHandler, ServeHTTPServer, serve_http

__all__ = [
    "Draining",
    "JobRecord",
    "JobStore",
    "Overloaded",
    "STATES",
    "ServeHTTPServer",
    "ServeHandler",
    "ServeService",
    "TERMINAL_STATES",
    "UnknownJob",
    "serve_http",
]
