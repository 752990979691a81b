"""The serving core: durable jobs + one warm Engine + admission control.

:class:`ServeService` is the public API under ``pimsim serve`` — the
HTTP layer (:mod:`repro.serve.http`) is a thin request/response codec
over it, so everything here is testable without a socket (the same
``api/public.py`` -> ``api/http.py`` layering as Toki).

Responsibilities:

* **Durability.**  Every accepted job goes through the crash-safe
  :class:`~repro.serve.store.JobStore` (``queued -> running ->
  terminal``, each transition fsync'd), so a SIGKILL'd server replays
  the journal on restart: settled results are served forever without
  re-execution, interrupted jobs are re-enqueued with restart blame.

* **One engine.**  Every job runs on the service's single
  :class:`~repro.engine.Engine`, so ``workers`` bounds the process
  count whatever configurations clients post.  A spec's configuration
  travels with the job and each worker's compile cache is keyed by the
  configuration fingerprint, so jobs of different configurations share
  the pool safely (DESIGN.md "Serve process model").

* **Admission control.**  The backlog (admitted, unsettled jobs) is
  bounded: over the high-water mark :meth:`submit` raises
  :class:`Overloaded` carrying a ``Retry-After`` hint computed from the
  pool's observed service-time EWMA and current occupancy
  (:meth:`~repro.engine.Engine.pool_stats`), so the HTTP layer sheds
  load with ``503`` instead of growing memory without bound.

* **Graceful drain.**  :meth:`begin_drain` stops admissions and
  dispatching; :meth:`wait_drained` waits for in-flight jobs up to a
  deadline; :meth:`terminate` aborts whatever remains, re-journaling it
  as ``queued`` so the next start resumes it.  Jobs still queued at
  drain time stay journaled ``queued`` — drain never discards work.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import deque
from concurrent.futures import Future

from ..config import ArchConfig
from ..engine import Engine, JobPoisoned, JobSpec, JobTimeout, PoolUnavailable
from ..engine.pool import job_failure
from .store import JobRecord, JobStore

__all__ = ["ServeService", "Overloaded", "Draining"]


class Overloaded(RuntimeError):
    """Admission refused: the backlog is at its high-water mark.

    ``retry_after`` (seconds, >= 1) is the service's estimate of when
    capacity frees up — the HTTP layer forwards it as a ``Retry-After``
    header on the ``503``.
    """

    def __init__(self, retry_after: int):
        super().__init__(f"backlog full; retry after ~{retry_after}s")
        self.retry_after = retry_after


class Draining(RuntimeError):
    """Admission refused: the server is shutting down."""

    def __init__(self):
        super().__init__("server is draining; submit to another instance")


class ServeService:
    """Durable job service over one warm Engine.

    Parameters
    ----------
    store:
        The crash-safe :class:`JobStore` (owned: :meth:`close` closes it).
    config:
        Default architecture configuration for jobs whose spec carries
        none (the engine's config).
    workers:
        Worker processes of the one pool (``None``: all CPUs).
    max_retries / job_timeout:
        Forwarded to the :class:`~repro.engine.Engine`.
    max_backlog:
        Admission high-water mark: admitted-but-unsettled jobs beyond
        this are refused with :class:`Overloaded`.  ``None`` sizes it
        off pool occupancy (8 jobs per worker, floor 16).
    """

    def __init__(self, store: JobStore, *, config: ArchConfig | None = None,
                 workers: int | None = None, max_retries: int = 1,
                 job_timeout: float | None = None,
                 max_backlog: int | None = None):
        self.store = store
        self._engine = Engine(config, workers=workers,
                              max_retries=max_retries,
                              job_timeout=job_timeout)
        effective = workers if workers is not None else (os.cpu_count() or 1)
        self._pool_width = max(1, effective)
        self.max_backlog = max_backlog if max_backlog is not None \
            else max(16, 8 * self._pool_width)
        self._cv = threading.Condition()
        #: job ids admitted (or recovered) and awaiting dispatch.
        self._queue: deque[str] = deque()
        #: job id -> in-engine Future, for drain accounting.
        self._inflight: dict[str, Future] = {}
        #: dispatches between queue pop and in-flight registration —
        #: engine.submit (a pool spawn on the first job) runs outside
        #: the lock, and the drain must not miss a job in that window.
        self._dispatching = 0
        self._paused = False
        self._draining = False
        self._terminated = False
        self._closed = False
        self._dispatcher: threading.Thread | None = None

    @property
    def config(self) -> ArchConfig | None:
        """The configuration of jobs whose spec carries none."""
        return self._engine.config

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServeService":
        """Recover the store's queued jobs and start dispatching."""
        with self._cv:
            if self._dispatcher is not None:
                return self
            for record in self.store.jobs("queued"):
                self._queue.append(record.id)
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, daemon=True,
                name="repro-serve-dispatcher")
            self._dispatcher.start()
        return self

    def begin_drain(self) -> None:
        """Stop admissions and dispatching; running jobs keep running.

        Queued jobs stay journaled ``queued`` — they are the next
        start's work, not this drain's.
        """
        with self._cv:
            self._draining = True
            self._cv.notify_all()

    def wait_drained(self, timeout: float | None = None) -> bool:
        """Wait for every in-flight job to settle; False on deadline."""
        with self._cv:
            if timeout is None:
                while self._inflight or self._dispatching:
                    self._cv.wait()
                return True
            deadline = time.monotonic() + timeout
            while self._inflight or self._dispatching:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cv.wait(remaining)
            return True

    def terminate(self) -> int:
        """Abort in-flight work past the drain deadline; returns how many
        jobs were re-journaled as ``queued`` for the next start.

        A wedged job must not hold the process past its deadline: the
        pool is aborted, the settled-with-
        :class:`PoolUnavailable` futures re-queue their jobs in the
        store (restart blame is charged by the *store* on the next
        replay, not here — the job never got to finish, it did not
        crash anything).
        """
        with self._cv:
            self._terminated = True
            self._cv.notify_all()
            # Let an in-progress dispatch land (it either registers its
            # future or sees _terminated before submitting and requeues)
            # so the abort below covers it.
            deadline = time.monotonic() + 5.0
            while self._dispatching:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cv.wait(remaining)
            pending = len(self._inflight)
        self._engine.terminate()
        # Pool abort settles every future synchronously, so the requeue
        # callbacks have all run by now.
        return pending

    def close(self) -> None:
        """Stop dispatching, close the engine, close the store."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify_all()
            dispatcher = self._dispatcher
        if dispatcher is not None:
            dispatcher.join(timeout=5)
        self._engine.close()
        self.store.close()

    def __enter__(self) -> "ServeService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- admission -----------------------------------------------------------

    def submit(self, spec: JobSpec) -> tuple[JobRecord, bool]:
        """Admit one job; idempotent by content-addressed job id.

        Returns ``(record, created)``.  A re-submitted spec returns its
        existing record (possibly already terminal, with the durable
        result) without charging admission.  Raises :class:`Draining`
        during shutdown and :class:`Overloaded` (with a ``retry_after``
        estimate) over the backlog high-water mark.
        """
        job_id = spec.job_id()
        with self._cv:
            if self._closed:
                raise RuntimeError("service is closed")
            existing = self.store.get(job_id)
            if existing is not None:
                return existing, False
            if self._draining:
                raise Draining()
            if self.store.backlog() >= self.max_backlog:
                raise Overloaded(self.retry_after())
            record, _created = self.store.submit(spec.to_dict(), job_id)
            self._queue.append(job_id)
            self._cv.notify_all()
            return record, True

    def cancel(self, job_id: str) -> bool:
        """Withdraw a queued job; False once running or settled."""
        return self.store.cancel(job_id)

    def retry_after(self) -> int:
        """Seconds a refused client should wait before retrying.

        The backlog divided by pool width, priced at the observed
        service-time EWMA (floor 1s before the first completion),
        clamped to [1, 600].
        """
        stats = self.pool_stats()
        per_job = stats["ewma_service_s"] or 1.0
        width = stats["size"] or self._pool_width
        backlog = self.store.backlog()
        estimate = math.ceil(per_job * max(1, backlog) / max(1, width))
        return max(1, min(600, estimate))

    # -- introspection -------------------------------------------------------

    def pool_stats(self) -> dict:
        """The one pool's telemetry (``Engine.pool_stats``)."""
        return self._engine.pool_stats()

    def ready(self) -> bool:
        """Serving capacity exists: not draining, no broken pool.

        This is what ``GET /readyz`` reports — an orchestrator restarts
        a server whose pool is wedged beyond self-healing.
        """
        with self._cv:
            if self._closed or self._draining:
                return False
        return not self.pool_stats()["broken"]

    def status(self) -> dict:
        """The ``/readyz`` payload: readiness + occupancy + job counts."""
        with self._cv:
            draining = self._draining
        pool = self.pool_stats()
        return {"ready": not draining and not self._closed
                and not pool["broken"],
                "draining": draining, "pool": pool,
                "counts": self.store.counts(),
                "backlog": self.store.backlog(),
                "max_backlog": self.max_backlog}

    # -- test / maintenance hooks --------------------------------------------

    def pause_dispatch(self) -> None:
        """Hold admitted jobs in the queue (deterministic-backpressure
        hook for tests and maintenance; admission still applies)."""
        with self._cv:
            self._paused = True
            self._cv.notify_all()

    def resume_dispatch(self) -> None:
        with self._cv:
            self._paused = False
            self._cv.notify_all()

    # -- dispatch ------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cv:
                while not (self._closed or self._draining) \
                        and (self._paused or not self._queue):
                    self._cv.wait()
                if self._closed or self._draining:
                    return
                job_id = self._queue.popleft()
                self._dispatching += 1
            try:
                self._dispatch_one(job_id)
            finally:
                with self._cv:
                    self._dispatching -= 1
                    self._cv.notify_all()

    def _dispatch_one(self, job_id: str) -> None:
        # A job cancelled (or otherwise settled) while queued refuses
        # the queued -> running transition; drop the dispatch.
        if not self.store.mark_running(job_id):
            return
        record = self.store.get(job_id)
        try:
            spec = JobSpec.from_dict(record.spec)
            with self._cv:
                # Under the lock terminate()/close() take: a submit after
                # Engine.terminate() would respawn a pool nobody aborts.
                if self._terminated or self._closed:
                    raise PoolUnavailable("service is shutting down")
            future = self._engine.submit(spec)
        except PoolUnavailable:
            # The service shut down under this dispatch; the job never
            # reached a worker — next start's work, not a failure.
            self.store.requeue(job_id)
            return
        except Exception as exc:
            failure = job_failure(exc)
            self.store.settle(job_id, "failed", error=failure.to_dict())
            return
        with self._cv:
            self._inflight[job_id] = future
        future.add_done_callback(
            lambda f, jid=job_id: self._settled(jid, f))

    def _settled(self, job_id: str, future: Future) -> None:
        """Journal one engine outcome (runs on the pool's collector)."""
        try:
            exc = future.exception()
            if exc is None:
                self.store.settle(job_id, "done",
                                  report=future.result().to_dict())
            elif isinstance(exc, JobTimeout):
                self.store.settle(job_id, "timeout",
                                  error=exc.to_dict())
            elif isinstance(exc, JobPoisoned):
                self.store.settle(job_id, "poisoned",
                                  error=exc.to_dict())
            elif isinstance(exc, PoolUnavailable) and (
                    self._draining or self._terminated or self._closed):
                # The *server* abandoned the job (drain deadline, close);
                # it is next start's work, not a failure of the job.
                self.store.requeue(job_id)
            else:
                self.store.settle(job_id, "failed",
                                  error=job_failure(exc).to_dict())
        finally:
            with self._cv:
                self._inflight.pop(job_id, None)
                self._cv.notify_all()
