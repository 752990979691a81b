"""Self-healing simulation worker pool with deterministic job dealing.

:class:`WorkerPool` keeps its worker processes alive across calls: each
worker owns a private :class:`~repro.engine.Engine` (model cache +
compile cache) that survives between jobs, so back-to-back sweeps pay
pool start-up once and the second sweep over the same points recompiles
nothing.

Jobs are dealt deterministically — :meth:`Engine._dispatch
<repro.engine.Engine>` assigns job ``i`` of a batch to worker ``i %
lanes`` via :meth:`WorkerPool.submit`'s ``worker=`` pin — so two
identical batches land on the same workers and the warm caches actually
hit (a shared work queue would reshuffle the assignment run to run).

Transport is a pair of one-way pipes per worker (no locks shared between
processes — a killed worker can never strand a queue lock).  A collector
thread multiplexes the result pipes and resolves
:class:`concurrent.futures.Future` objects.  Worker exceptions are
pickled and re-raised parent-side with their original type (matching the
in-process path), falling back to a :class:`JobFailed` carrying (kind,
message, traceback) strings when the exception itself cannot cross the
process boundary.

Supervision (the fault-tolerance story)
---------------------------------------

A worker's death surfaces as EOF on its result pipe.  Instead of
condemning the whole pool, the supervisor **respawns that worker in
place** — fresh pipes, same lane index — so deterministic dealing and
every *other* worker's warm compile cache survive.  Each worker slot is a
:class:`_Lane`; a respawn builds a new lane object for the same index, so
stale references held by in-flight bookkeeping are detected by identity.

* **Retry with poison quarantine.**  Jobs owned by a crashed worker are
  transparently resubmitted (with jittered backoff) onto the respawned
  lane.  Only the job the worker was *running* when it died (workers
  report job starts over the result pipe) is blamed for the crash; a job
  whose blame count exceeds ``max_retries`` is quarantined and fails with
  :class:`JobPoisoned` instead of being retried forever.  Queued
  bystander jobs are requeued without blame (bounded by a generous cap so
  a pathological spec cannot respawn-loop).  Exceptions *raised by* a job
  are never retried — they are results, shipped back like any other.

* **Per-job timeouts.**  A watchdog thread tracks the start heartbeats;
  a job running longer than its timeout (``JobSpec.timeout``, a
  ``submit(timeout=...)`` override, or the pool's ``default_timeout``)
  gets its worker terminated + respawned and fails with
  :class:`JobTimeout` (not retried — the retry would hang just as long).

* **Growable warm pool.**  :meth:`WorkerPool.grow` appends fresh lanes
  without disturbing existing ones, so widening a pool no longer costs
  every surviving worker's warm cache.

The pool only reports :attr:`WorkerPool.broken` when a *respawn itself*
fails — the one unrecoverable case — and :meth:`stats` exposes the
supervision telemetry (respawns / retries / timeouts / poisoned).
Deterministic chaos directives for exercising every path above live in
:mod:`repro.engine.faults`.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import multiprocessing.connection
import pickle
import random
import signal
import threading
import time
import traceback
from concurrent.futures import Future, InvalidStateError

__all__ = ["WorkerPool", "JobFailed", "JobPoisoned", "JobTimeout",
           "PoolUnavailable", "job_failure"]

#: smoothing factor for the service-time moving average: ~the last five
#: jobs dominate, so Retry-After tracks load shifts without twitching on
#: one outlier.
_EWMA_ALPHA = 0.2

#: scale (seconds) of the jittered delay before a crash-recovered job is
#: resubmitted onto its lane's respawned worker.
_RETRY_BACKOFF_S = 0.05


class PoolUnavailable(RuntimeError):
    """The pool cannot accept jobs: closed, or unrecoverably broken.

    Distinct from arbitrary ``RuntimeError``s so callers (and
    :meth:`repro.engine.Engine.submit`'s retry) never mistake a job-side
    error for a pool-lifecycle one.
    """


class JobFailed(RuntimeError):
    """A job raised inside the engine (possibly in a worker process).

    ``kind`` is the original exception type name, ``message`` its first
    line (empty messages fall back to the type name, matching
    ``repro.explore``'s failure records), ``details`` the full traceback
    text when the failure crossed a process boundary.
    """

    def __init__(self, kind: str, message: str, details: str | None = None):
        super().__init__(f"{kind}: {message}" if message != kind else message)
        self.kind = kind
        self.message = message
        self.details = details


class JobPoisoned(JobFailed):
    """The job repeatedly crashed its worker and was quarantined.

    Raised (or captured) instead of retrying forever once a job exceeds
    the pool's ``max_retries`` blame budget.  Distinct from plain
    worker-crash failures so sweeps can tell "this point is toxic" from
    "a worker happened to die".
    """

    def __init__(self, message: str, details: str | None = None):
        super().__init__("JobPoisoned", message, details)


class JobTimeout(JobFailed):
    """The job exceeded its wall-clock timeout and its worker was killed."""

    def __init__(self, message: str, details: str | None = None):
        super().__init__("JobTimeout", message, details)


def _first_line(text: str, fallback: str) -> str:
    """First line of a message, falling back for empty messages.

    The single definition of failure-record truncation — the engine paths
    and ``repro.explore``'s grid records must stay in sync.
    """
    return text.splitlines()[0] if text else fallback


def job_failure(exc: BaseException, details: str | None = None) -> JobFailed:
    """Wrap an exception as a :class:`JobFailed` (first-line message).

    Typed pool failures (:class:`JobPoisoned`, :class:`JobTimeout`, plain
    :class:`JobFailed`) pass through untouched so capture paths keep the
    classification.  Exceptions that crossed a worker boundary carry the
    remote traceback (``_job_traceback``, attached by the pool); it
    becomes ``details`` unless the caller supplies its own.
    """
    if isinstance(exc, JobFailed):
        return exc
    if details is None:
        details = getattr(exc, "_job_traceback", None)
    return JobFailed(type(exc).__name__,
                     _first_line(str(exc), type(exc).__name__), details)


def _settle(future: Future, *, result=None,
            exception: BaseException | None = None) -> None:
    """Resolve a future, tolerating caller-side cancellation.

    The collector must never die on a future the caller already
    cancelled (or a duplicate settle): a dead collector would hang every
    other job on the pool.
    """
    try:
        if exception is not None:
            future.set_exception(exception)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass  # cancelled (or already settled); the result is discarded


def _rebuild_exception(error) -> BaseException:
    """Reconstruct a worker-side failure parent-side.

    Prefers the original exception object (pickled by the worker) so the
    pool path raises the same type as the in-process path; falls back to
    :class:`JobFailed` when the exception cannot cross the boundary.
    """
    payload, kind, message, details = error
    if payload is not None:
        try:
            exc = pickle.loads(payload)
        except Exception:
            pass
        else:
            try:
                # Carry the worker-side traceback text along so capture
                # paths (job_failure) and `pimsim batch` error records can
                # still show where the failure happened remotely.
                exc._job_traceback = details
            except Exception:
                pass
            return exc
    return JobFailed(kind, _first_line(message, kind), details)


def _worker_main(task_conn, task_sender, result_conn, config) -> None:
    """Worker loop: one private Engine, jobs until sentinel or EOF.

    Protocol: each task is ``(job_id, spec, attempt)``; the worker posts a
    ``("start", job_id, attempt)`` heartbeat before running it (feeding
    the parent's timeout watchdog and crash blame) and a ``("done",
    job_id, report, error)`` record after.  Chaos directives embedded in
    the spec (:mod:`repro.engine.faults`) trip here — and only here, so
    in-process runs are never at risk.

    ``task_sender`` is the parent's end of this worker's own task pipe,
    inherited by the fork: closed first, so the parent's death — even a
    SIGKILL that runs no teardown — reads as EOF here.
    """
    from . import faults
    from .core import Engine

    task_sender.close()

    # A forked worker inherits the parent's signal dispositions; under
    # ``pimsim serve`` those trap SIGTERM/SIGINT for graceful drain,
    # which would make ``Process.terminate()`` a no-op here and leave
    # the worker alive past an abortive teardown.  Reset to the default
    # (die) before accepting work.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)

    engine = Engine(config)
    while True:
        try:
            item = task_conn.recv()
        except (EOFError, OSError):
            return  # parent went away
        if item is None:
            return
        job_id, spec, attempt = item
        try:
            result_conn.send(("start", job_id, attempt))
        except (BrokenPipeError, OSError):
            return
        directive = faults.directive_for(spec, attempt)
        try:
            faults.trip(directive)  # may kill, exit, hang or raise
            report = engine.run(spec)
        except (KeyboardInterrupt, SystemExit):
            # Ctrl-C reaches the whole process group: die promptly so the
            # parent's close() drain does not grind through the rest of
            # the queued batch (pending futures are failed at close).
            return
        except BaseException as exc:  # ship, don't kill the worker
            try:
                payload = pickle.dumps(exc)
            except Exception:
                payload = None
            outcome = ("done", job_id, None,
                       (payload, type(exc).__name__, str(exc),
                        traceback.format_exc()))
        else:
            outcome = ("done", job_id, report, None)
        try:
            if directive is not None and directive.get("mode") == "garbage":
                result_conn.send_bytes(faults.GARBAGE_BYTES)
            else:
                result_conn.send(outcome)
        except (BrokenPipeError, OSError):
            return  # parent went away


class _Lane:
    """One worker slot: a process plus its private pipes.

    Immutable per generation — a respawn builds a fresh ``_Lane`` for the
    same index, so in-flight bookkeeping holding a stale lane can detect
    the replacement by identity (``pool._lanes[lane.index] is lane``).
    """

    __slots__ = ("index", "generation", "worker", "task_conn", "result_conn",
                 "send_lock")

    def __init__(self, index, generation, worker, task_conn, result_conn):
        self.index = index
        self.generation = generation
        self.worker = worker
        self.task_conn = task_conn
        self.result_conn = result_conn
        #: task-pipe sends happen OUTSIDE the pool lock (a full pipe
        #: blocks until the worker drains, and the collector needs the
        #: pool lock to drain results — sending under it deadlocks).
        self.send_lock = threading.Lock()


class _Job:
    """Parent-side record of one in-flight job."""

    __slots__ = ("future", "spec", "lane", "timeout", "attempts", "requeues",
                 "started_at")

    def __init__(self, future, spec, lane, timeout):
        self.future = future
        self.spec = spec
        self.lane = lane
        self.timeout = timeout
        self.attempts = 0      # worker-crash blames (counts vs max_retries)
        self.requeues = 0      # unblamed resubmissions (lost as a bystander)
        self.started_at = None  # monotonic time of the worker's heartbeat


class WorkerPool:
    """``size`` persistent, supervised worker processes with warm caches.

    ``config`` is the default architecture configuration handed to every
    worker's engine (jobs whose spec carries its own configuration ignore
    it).  ``max_retries`` bounds how often a single job may crash its
    worker before being quarantined as :class:`JobPoisoned`;
    ``default_timeout`` (seconds) applies to jobs whose spec carries no
    timeout of its own.  :meth:`close` drains queued jobs and
    shuts down cleanly; at interpreter exit an unclosed pool is torn down
    abortively (daemonic workers are terminated, outstanding futures
    failed) so it never blocks process exit.
    """

    def __init__(self, size: int, config=None, *, max_retries: int = 1,
                 default_timeout: float | None = None) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        ctx = multiprocessing.get_context()
        self.size = size
        self._config = config
        self._max_retries = max_retries
        self._default_timeout = default_timeout
        #: bystander-requeue bound: a spec that kills workers before its
        #: start heartbeat can ever be blamed must not respawn-loop.
        self._requeue_cap = max(4, 2 * max_retries + 2)
        self._lanes: list[_Lane] = []
        self._wake_r, self._wake_w = ctx.Pipe(duplex=False)
        try:
            for index in range(size):
                self._lanes.append(self._spawn_lane(index, 0))
        except BaseException:
            # A failed spawn (e.g. fork EAGAIN) must not strand the
            # workers already started — no atexit hook exists yet.
            for lane in self._lanes:
                if lane.worker.is_alive():
                    lane.worker.terminate()
            for lane in self._lanes:
                lane.worker.join(timeout=1)
                lane.task_conn.close()
                lane.result_conn.close()
            self._wake_r.close()
            self._wake_w.close()
            raise
        #: job_id -> _Job; the job's lane lets worker death fail/requeue
        #: exactly the jobs that worker owned.
        self._pending: dict[int, _Job] = {}
        self._lock = threading.Lock()
        self._job_ids = itertools.count()
        self._rr = 0
        self._closed = False
        self._broken = False
        self._respawns = 0
        self._retries = 0
        self._timeouts = 0
        self._poisoned = 0
        #: EWMA of observed job service times (heartbeat -> done), the
        #: input to `pimsim serve`'s Retry-After math; 0.0 until the
        #: first completion.
        self._service_ewma = 0.0
        self._service_samples = 0
        self._stop = threading.Event()
        # Start the threads only after every worker has been forked, so
        # no worker inherits a running thread.
        self._collector = threading.Thread(target=self._collect, daemon=True,
                                           name="repro-engine-collector")
        self._collector.start()
        self._watchdog = threading.Thread(target=self._watch, daemon=True,
                                          name="repro-engine-watchdog")
        self._watchdog.start()
        atexit.register(self._close_at_exit)

    def _spawn_lane(self, index: int, generation: int) -> _Lane:
        """Fork one worker and wire up its private pipes."""
        ctx = multiprocessing.get_context()
        task_r, task_w = ctx.Pipe(duplex=False)
        result_r, result_w = ctx.Pipe(duplex=False)
        worker = ctx.Process(target=_worker_main,
                             args=(task_r, task_w, result_w, self._config),
                             daemon=True)
        worker.start()
        # Close the parent's copies of the worker-side ends so a dead
        # worker reads as EOF on its result pipe.
        task_r.close()
        result_w.close()
        return _Lane(index, generation, worker, task_w, result_r)

    def _wake(self) -> None:
        """Nudge the collector to re-scan the lane set."""
        try:
            self._wake_w.send_bytes(b"w")
        except (OSError, ValueError):
            pass

    @property
    def broken(self) -> bool:
        """True only when a worker could not be *respawned* — a plain
        worker death heals in place and leaves the pool serviceable."""
        return self._broken

    def stats(self) -> dict:
        """Supervision + occupancy telemetry.

        Beyond the fault-tolerance counters: ``queue_depth`` (accepted
        jobs not yet started by a worker), ``in_flight`` (jobs a worker
        has heartbeated as running) and ``ewma_service_s`` (exponential
        moving average of observed job service times, 0.0 until the
        first completion) — the inputs backpressure math needs.
        """
        with self._lock:
            in_flight = sum(1 for job in self._pending.values()
                            if job.started_at is not None)
            return {"size": self.size, "respawns": self._respawns,
                    "retries": self._retries, "timeouts": self._timeouts,
                    "poisoned": self._poisoned, "broken": self._broken,
                    "queue_depth": len(self._pending) - in_flight,
                    "in_flight": in_flight,
                    "ewma_service_s": self._service_ewma}

    # -- submission ----------------------------------------------------------

    def submit(self, spec, *, worker: int | None = None,
               timeout: float | None = None) -> Future:
        """Queue one job; ``worker=None`` deals round-robin.

        ``timeout`` (seconds) overrides the spec's own ``timeout`` field
        and the pool's ``default_timeout``.  May block while the target
        worker's task pipe is full — that is the pool's backpressure (the
        collector keeps draining results in the meantime, so the pipeline
        always makes progress).
        """
        with self._lock:
            if self._closed:
                raise PoolUnavailable("worker pool is closed")
            if self._broken:
                raise PoolUnavailable("worker pool is broken (a worker "
                                      "could not be respawned); create a "
                                      "fresh pool")
            if worker is None:
                worker = self._rr
                self._rr = (self._rr + 1) % self.size
            lane = self._lanes[worker % self.size]
            if timeout is None:
                timeout = getattr(spec, "timeout", None)
            if timeout is None:
                timeout = self._default_timeout
            job_id = next(self._job_ids)
            future: Future = Future()
            self._pending[job_id] = _Job(future, spec, lane, timeout)
        try:
            with lane.send_lock:
                lane.task_conn.send((job_id, spec, 0))
        except (BrokenPipeError, OSError):
            # The worker died under us.  Supervision respawns the lane;
            # this job rides along onto the fresh worker (or is reclaimed
            # below if the crash handler raced past before it was
            # registered against the dead lane).
            self._lane_crashed(lane, "died")
            self._reclaim_if_stranded(job_id, lane)
        except Exception:
            # The spec failed to pickle.  Connection.send serializes the
            # whole message before writing, so no bytes reached the worker
            # and the pool stays healthy — just retire this job's future.
            with self._lock:
                self._pending.pop(job_id, None)
            raise
        return future

    def grow(self, size: int) -> None:
        """Widen the pool in place to ``size`` lanes (no-op if not wider).

        Existing workers — and their warm compile caches — are untouched;
        only the delta is spawned.  This is what lets an
        :class:`~repro.engine.Engine` honor a wider ``workers=`` request
        without a cold restart.
        """
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        with self._lock:
            if self._closed:
                raise PoolUnavailable("worker pool is closed")
            if self._broken:
                raise PoolUnavailable("worker pool is broken (a worker "
                                      "could not be respawned); create a "
                                      "fresh pool")
            if size <= self.size:
                return
            fresh: list[_Lane] = []
            try:
                for index in range(self.size, size):
                    fresh.append(self._spawn_lane(index, 0))
            except BaseException:
                for lane in fresh:
                    if lane.worker.is_alive():
                        lane.worker.terminate()
                    lane.worker.join(timeout=1)
                    lane.task_conn.close()
                    lane.result_conn.close()
                raise
            self._lanes.extend(fresh)
            self.size = size
        self._wake()

    # -- result collection ---------------------------------------------------

    def _collect(self) -> None:
        """Multiplex result pipes; survives lane respawns and pool growth.

        The wait set is rebuilt from the live lane list every iteration
        (the wake pipe interrupts a blocked wait when it changes); a
        conn whose lane has been replaced is drained to EOF and retired —
        so garbage on a condemned worker's pipe can never re-trigger
        crash handling in a loop.
        """
        watched: dict = {}   # result conn -> the lane it belonged to
        retired: set = set()
        while True:
            with self._lock:
                closed = self._closed
                for lane in self._lanes:
                    if lane.result_conn not in retired:
                        watched.setdefault(lane.result_conn, lane)
            if closed and not watched:
                return
            ready = multiprocessing.connection.wait(
                list(watched) + [self._wake_r], timeout=1.0)
            for conn in ready:
                if conn is self._wake_r:
                    try:
                        while self._wake_r.poll():
                            self._wake_r.recv_bytes()
                    except (EOFError, OSError):
                        pass
                    continue
                lane = watched[conn]
                with self._lock:
                    current = self._lanes[lane.index] is lane
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    self._retire(watched, retired, lane)
                    if current:
                        self._lane_crashed(lane, "died")
                    continue
                except Exception:
                    # A result that cannot be decoded parent-side.  The
                    # worker can no longer be trusted: stop listening to
                    # this pipe entirely and (if still current) replace
                    # the worker, blaming the job it was running.
                    self._retire(watched, retired, lane)
                    if current:
                        self._lane_crashed(
                            lane, "returned an undecodable result")
                    continue
                if msg[0] == "start":
                    _tag, job_id, _attempt = msg
                    with self._lock:
                        job = self._pending.get(job_id)
                        if job is not None and job.lane is lane:
                            job.started_at = time.monotonic()
                    continue
                _tag, job_id, report, error = msg
                with self._lock:
                    job = self._pending.pop(job_id, None)
                    if job is not None and job.started_at is not None:
                        elapsed = time.monotonic() - job.started_at
                        if self._service_samples == 0:
                            self._service_ewma = elapsed
                        else:
                            self._service_ewma += _EWMA_ALPHA * (
                                elapsed - self._service_ewma)
                        self._service_samples += 1
                if job is None:  # already settled (teardown, timeout); drop
                    continue
                if error is not None:
                    _settle(job.future, exception=_rebuild_exception(error))
                else:
                    _settle(job.future, result=report)

    @staticmethod
    def _retire(watched: dict, retired: set, lane: _Lane) -> None:
        """Stop listening to a lane's pipes and release their fds."""
        watched.pop(lane.result_conn, None)
        retired.add(lane.result_conn)
        try:
            lane.result_conn.close()
        except OSError:
            pass
        try:
            with lane.send_lock:
                lane.task_conn.close()
        except OSError:
            pass

    # -- supervision ---------------------------------------------------------

    def _lane_crashed(self, lane: _Lane, what: str, *,
                      timeout_job: int | None = None) -> None:
        """A lane's worker can no longer be trusted: respawn it in place
        and settle or resubmit the jobs it owned.

        Idempotent per lane generation (concurrent detection by the
        collector, the watchdog and a failed send collapses to one
        respawn).  A no-op during close, where worker EOF is the clean
        path.
        """
        settle: list[tuple[Future, BaseException]] = []
        resubmits: list[tuple[int, int]] = []
        with self._lock:
            if self._closed or self._lanes[lane.index] is not lane:
                return
            try:
                fresh = self._spawn_lane(lane.index, lane.generation + 1)
            except Exception:
                fresh = None
                self._broken = True
            else:
                self._lanes[lane.index] = fresh
                self._respawns += 1
            pid = lane.worker.pid
            label = f"worker {lane.index} (pid {pid}) {what}"
            owned = [(job_id, job) for job_id, job in self._pending.items()
                     if job.lane is lane]
            for job_id, job in owned:
                if job_id == timeout_job:
                    del self._pending[job_id]
                    self._timeouts += 1
                    settle.append((job.future, JobTimeout(
                        f"job exceeded its {job.timeout:g}s timeout; "
                        f"{label}")))
                elif fresh is None:
                    del self._pending[job_id]
                    settle.append((job.future, JobFailed(
                        "WorkerCrashed",
                        f"{label} and could not be respawned")))
                elif job.started_at is not None:
                    # The running job is the crash suspect: it spends one
                    # unit of its retry budget.
                    job.attempts += 1
                    if job.attempts > self._max_retries:
                        del self._pending[job_id]
                        self._poisoned += 1
                        settle.append((job.future, JobPoisoned(
                            f"job crashed its worker on {job.attempts} "
                            f"attempts ({label}); quarantined after "
                            f"max_retries={self._max_retries}")))
                    else:
                        job.lane = fresh
                        job.started_at = None
                        resubmits.append((job_id, job.attempts))
                else:
                    # A queued bystander: requeue without blame (bounded,
                    # so a spec that kills workers before its start
                    # heartbeat cannot respawn-loop forever).
                    job.requeues += 1
                    if job.requeues > self._requeue_cap:
                        del self._pending[job_id]
                        self._poisoned += 1
                        settle.append((job.future, JobPoisoned(
                            f"job was lost to {job.requeues} worker "
                            f"crashes without ever starting ({label}); "
                            "quarantined")))
                    else:
                        job.lane = fresh
                        job.started_at = None
                        resubmits.append((job_id, 0))
        # Outside the lock: reap the old process, wake the collector onto
        # the fresh result pipe, then settle/reschedule (future callbacks
        # and timer starts must not run under the pool lock).
        if lane.worker.is_alive():
            lane.worker.terminate()
            lane.worker.join(timeout=1)
            if lane.worker.is_alive():
                lane.worker.kill()
        self._wake()
        for future, exc in settle:
            _settle(future, exception=exc)
        for job_id, attempts in resubmits:
            delay = (_RETRY_BACKOFF_S * attempts * (0.5 + random.random())
                     if attempts else 0.0)
            timer = threading.Timer(delay, self._resubmit, args=(job_id,))
            timer.daemon = True
            timer.start()

    def _resubmit(self, job_id: int) -> None:
        """Re-send a crash-recovered job onto its lane's fresh worker."""
        with self._lock:
            job = self._pending.get(job_id)
            if job is None or self._closed:
                return  # settled (or torn down) in the meantime
            lane = self._lanes[job.lane.index]
            job.lane = lane
            self._retries += 1
        try:
            with lane.send_lock:
                lane.task_conn.send((job_id, job.spec, job.attempts))
        except (BrokenPipeError, OSError):
            self._lane_crashed(lane, "died")
            self._reclaim_if_stranded(job_id, lane)
        except Exception as exc:
            with self._lock:
                job = self._pending.pop(job_id, None)
            if job is not None:
                _settle(job.future, exception=job_failure(exc))

    def _reclaim_if_stranded(self, job_id: int, lane: _Lane) -> None:
        """Recover a job whose send raced a lane replacement.

        A send can hit a dead pipe after :meth:`_lane_crashed` already
        scanned the pending table (the job was registered against the
        lane too late to be adopted).  If the job is still bound to the
        stale lane, hand it to the retry machinery explicitly; otherwise
        the crash handler owns it and there is nothing to do.
        """
        stranded = None
        with self._lock:
            job = self._pending.get(job_id)
            if job is None or job.lane is not lane:
                return
            job.requeues += 1
            if job.requeues > self._requeue_cap or self._broken \
                    or self._closed:
                del self._pending[job_id]
                stranded = job
            else:
                job.lane = self._lanes[lane.index]
                job.started_at = None
        if stranded is not None:
            _settle(stranded.future, exception=JobFailed(
                "WorkerCrashed",
                f"worker {lane.index} kept dying before the job could be "
                "queued"))
            return
        timer = threading.Timer(_RETRY_BACKOFF_S, self._resubmit,
                                args=(job_id,))
        timer.daemon = True
        timer.start()

    # -- timeout watchdog ----------------------------------------------------

    def _watch(self) -> None:
        """Fail jobs that outlive their timeout (and kill their worker).

        Start times come from the workers' heartbeats, so a job queued
        behind a long batch is not charged for its wait.  The tick is
        coarse on idle pools and tight while timed jobs are in flight.
        """
        tick = 0.2
        while not self._stop.wait(tick):
            now = time.monotonic()
            expired = []
            with self._lock:
                if self._closed:
                    return
                timed = False
                for job_id, job in self._pending.items():
                    if job.timeout is None:
                        continue
                    timed = True
                    if (job.started_at is not None
                            and now - job.started_at >= job.timeout):
                        expired.append((job_id, job))
            for job_id, job in expired:
                self._timeout_job(job_id, job)
            tick = 0.02 if timed else 0.2

    def _timeout_job(self, job_id: int, job: _Job) -> None:
        lane = job.lane
        with self._lock:
            # Re-check under the lock: the job may have finished, been
            # requeued, or its lane already replaced since the scan.
            if (self._pending.get(job_id) is not job
                    or job.started_at is None
                    or self._lanes[lane.index] is not lane):
                return
        self._lane_crashed(lane, "was killed by the timeout watchdog",
                           timeout_job=job_id)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drain queued jobs, then stop the workers; idempotent.

        Jobs awaiting a crash-recovery resubmit when close is called are
        failed with :class:`PoolUnavailable` rather than replayed.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            lanes = list(self._lanes)
        self._stop.set()
        # Sentinels queue behind any outstanding jobs: workers drain their
        # pipes, post the results, then exit; the collector resolves every
        # posted result before the pipe's EOF retires it.  The joins are
        # unbounded on purpose — in-flight simulations may legitimately run
        # for minutes, and a bounded join would spuriously fail their
        # futures (a dead worker's join returns immediately).
        for lane in lanes:
            try:
                with lane.send_lock:
                    lane.task_conn.send(None)
            except (BrokenPipeError, OSError):
                pass  # that worker is already gone
        for lane in lanes:
            lane.worker.join()
        self._wake()
        self._collector.join(timeout=5)
        self._fail_remaining("worker pool closed")
        atexit.unregister(self._close_at_exit)

    def abort(self, reason: str = "worker pool aborted") -> None:
        """Abortive teardown: terminate workers, never block on jobs.

        The drop-everything counterpart of :meth:`close` — in-flight and
        queued futures fail with :class:`PoolUnavailable` instead of
        being drained.  Used at interpreter exit and by ``pimsim
        serve``'s expired drain deadline, where waiting on a wedged job
        would defeat the deadline.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            lanes = list(self._lanes)
        self._stop.set()
        for lane in lanes:
            if lane.worker.is_alive():
                lane.worker.terminate()
        for lane in lanes:
            lane.worker.join(timeout=1)
            if lane.worker.is_alive():  # shrugged off SIGTERM: escalate
                lane.worker.kill()
                lane.worker.join(timeout=1)
        self._wake()
        self._collector.join(timeout=1)
        self._fail_remaining(reason)
        atexit.unregister(self._close_at_exit)

    def _close_at_exit(self) -> None:
        self.abort("worker pool torn down at interpreter exit")

    def close_if_idle(self) -> bool:
        """Tear the pool down only if no job is outstanding.

        Used by the engine's garbage-collection finalizer: an Engine
        dropped without ``close()`` must not pin its idle workers for the
        rest of the process, but a pool with in-flight jobs (whose
        futures may outlive the engine) is left for atexit.
        """
        with self._lock:
            if self._pending:
                return False
        self._close_at_exit()
        return True

    def _fail_remaining(self, reason: str) -> None:
        with self._lock:
            pending = [job.future for job in self._pending.values()]
            self._pending.clear()
        for future in pending:  # only a crashed worker leaves any behind
            _settle(future, exception=PoolUnavailable(reason))
