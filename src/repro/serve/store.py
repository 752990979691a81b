"""Crash-safe job store: an fsync'd append-only journal of job states.

The store is the durability layer under ``pimsim serve``: every
submitted job spec and every state transition is appended to a JSONL
journal and fsync'd before the transition is acknowledged, so the
in-memory table can be reconstructed exactly after a SIGKILL.  States
move ``queued -> running -> done|failed|poisoned|timeout`` (plus
``cancelled`` for jobs withdrawn before they ran); the terminal states
carry the durable payload (the report, or the typed error record).

Restart semantics (the contract ``tests/test_serve.py`` pins):

* a job with a journaled terminal state is **never re-run** — its
  result is served from the journal forever (idempotency by job id);
* a job journaled ``queued`` is re-enqueued untouched;
* a job whose journaled spec derives another id today (it embeds a
  configuration tree with a field since retired) is also found by that
  id, so resubmitting the same spec reaches the journaled job;
* a job journaled ``running`` was in flight when the process died: it
  is re-enqueued with one unit of restart blame (``attempts`` += 1),
  and a job whose blame exceeds ``max_restarts`` is quarantined as
  ``poisoned`` instead of being replayed forever — the process-level
  mirror of the worker pool's poison-job accounting.

The journal is a :class:`repro.engine.journal.Journal` — the same
primitive under ``pimsim batch --resume`` and ``pimsim tune --resume``,
opened with ``fsync=True``: torn trailing lines (a crash mid-write) are
terminated on open and skipped on replay, foreign lines are skipped.  It
is append-only, so it grows with every transition;
:meth:`JobStore.compact` rewrites it as one snapshot record per job
(atomic rename), and opening a store compacts automatically when the
event count dwarfs the live job count.

A settled report is not kept on the heap: the record holds the span of
the journal line that carries it and :attr:`JobRecord.report` reads that
line back, so the server's memory per job is its spec, however many jobs
it has settled.  The count of unsettled jobs is kept as jobs move, so
admission (:meth:`JobStore.backlog`) never scans the table.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from ..config.schema import _RETIRED_FIELDS
from ..engine.journal import Journal, Span
from ..engine.spec import JobSpec

__all__ = ["JobStore", "JobRecord", "STATES", "TERMINAL_STATES",
           "UnknownJob"]

#: every state a job can be journaled in, in lifecycle order.
STATES = ("queued", "running", "done", "failed", "poisoned", "timeout",
          "cancelled")

#: states that end a job's lifecycle; a job here is never re-run.
TERMINAL_STATES = frozenset(("done", "failed", "poisoned", "timeout",
                             "cancelled"))

#: opening a store compacts it once its journal holds more events than
#: this floor and more than four per live job.
_COMPACT_FLOOR = 256


class UnknownJob(KeyError):
    """The store holds no job with that id."""


def _rederived_id(spec: dict) -> str | None:
    """Today's id of a spec journaled with a since-retired configuration
    field (its embedded tree hashed differently); None for any other."""
    try:
        config = spec["config"]
        if any(retired & config.get(section, {}).keys()
               for section, retired in _RETIRED_FIELDS.items()):
            return JobSpec.from_dict(spec).job_id()
    except (AttributeError, KeyError, TypeError, ValueError):
        pass
    return None


class JobRecord:
    """One job's durable state: spec, lifecycle, payload, blame.

    The report stays in the store's journal: ``report_span`` is the span
    of the line carrying it (``None`` until the job settles with one).
    """

    __slots__ = ("id", "spec", "state", "report_span", "error", "attempts",
                 "submitted_at", "updated_at", "_store")

    def __init__(self, store: "JobStore", job_id: str, spec: dict,
                 state: str = "queued", *, report_span: Span | None = None,
                 error: dict | None = None, attempts: int = 0,
                 submitted_at: float | None = None,
                 updated_at: float | None = None):
        self._store = store
        self.id = job_id
        self.spec = spec
        self.state = state
        self.report_span = report_span
        self.error = error
        self.attempts = attempts
        self.submitted_at = submitted_at
        self.updated_at = updated_at

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def report(self) -> dict | None:
        """The settled report, read back from the journal (one ``pread``
        and one parse per access)."""
        return self._store._read_report(self)

    def to_dict(self, *, include_report: bool = False) -> dict:
        """JSON-ready view (the HTTP layer's job resource)."""
        data = {"id": self.id, "state": self.state,
                "attempts": self.attempts, "spec": self.spec,
                "submitted_at": self.submitted_at,
                "updated_at": self.updated_at}
        if self.error is not None:
            data["error"] = self.error
        if include_report:
            report = self.report
            if report is not None:
                data["report"] = report
        return data

    def snapshot(self) -> dict:
        """Full journal snapshot record (compaction output)."""
        data = self.to_dict(include_report=True)
        data["event"] = "job"
        return data


class JobStore:
    """Durable, restart-surviving table of jobs keyed by stable job id.

    Thread-safe: every mutation appends one journal line under the
    store lock and fsyncs it (``fsync=False`` drops the fsync for
    tests that hammer transitions).  ``max_restarts`` bounds how often
    a job found ``running`` at replay is re-enqueued before being
    quarantined as ``poisoned``.
    """

    def __init__(self, path: str | Path, *, max_restarts: int = 1,
                 fsync: bool = True):
        self.path = Path(path)
        self.max_restarts = max_restarts
        self._lock = threading.RLock()
        self._records: dict[str, JobRecord] = {}
        #: id re-derived from a journaled spec -> the id it was journaled by
        self._aliases: dict[str, str] = {}
        self._closed = False
        events = 0  # well-formed events: the compaction trigger input
        for entry, span in Journal.replay(self.path):
            if "event" in entry:
                events += 1
                self._apply(entry, span)
        for record in self._records.values():
            job_id = _rederived_id(record.spec)
            if job_id is not None and job_id not in self._records:
                self._aliases.setdefault(job_id, record.id)
        #: jobs not in a terminal state: counted once here, then kept
        #: current by ``submit`` and ``_transition``.
        self._unsettled = sum(not r.terminal for r in self._records.values())
        self._journal = Journal(self.path, fsync=fsync)
        self._recover_running()
        if events > max(_COMPACT_FLOOR, 4 * len(self._records)):
            self.compact()

    # -- journal grammar ---------------------------------------------------

    def _apply(self, entry: dict, span: Span) -> None:
        event = entry["event"]
        job_id = entry.get("id")
        report_span = span if entry.get("report") is not None else None
        if event == "job":  # compaction snapshot: authoritative
            if job_id:
                self._records[job_id] = JobRecord(
                    self, job_id, entry.get("spec") or {},
                    entry.get("state", "queued"),
                    report_span=report_span, error=entry.get("error"),
                    attempts=int(entry.get("attempts", 0)),
                    submitted_at=entry.get("submitted_at"),
                    updated_at=entry.get("updated_at"))
            return
        if event == "submit":
            if job_id and job_id not in self._records:
                self._records[job_id] = JobRecord(
                    self, job_id, entry.get("spec") or {},
                    submitted_at=entry.get("t"), updated_at=entry.get("t"))
            return
        record = self._records.get(job_id)
        if record is None:
            return  # foreign or orphaned transition
        if event == "state":
            record.state = entry.get("state", record.state)
            record.attempts = int(entry.get("attempts", record.attempts))
            record.updated_at = entry.get("t", record.updated_at)
            if record.terminal:
                record.report_span = report_span
                record.error = entry.get("error")

    def _recover_running(self) -> None:
        """Blame-and-requeue every job the dead process left running."""
        for record in self._records.values():
            if record.state != "running":
                continue
            record.attempts += 1
            if record.attempts > self.max_restarts:
                self._transition(record, "poisoned", error={
                    "kind": "JobPoisoned",
                    "message": (f"job was running through {record.attempts} "
                                f"server crashes; quarantined after "
                                f"max_restarts={self.max_restarts}")})
            else:
                self._transition(record, "queued")

    # -- mutations --------------------------------------------------------

    def _transition(self, record: JobRecord, state: str, *,
                    report: dict | None = None,
                    error: dict | None = None) -> None:
        now = time.time()
        self._unsettled += (state not in TERMINAL_STATES) - (not record.terminal)
        record.state = state
        record.updated_at = now
        entry = {"event": "state", "id": record.id, "state": state,
                 "attempts": record.attempts, "t": now}
        if report is not None:
            entry["report"] = report
        if error is not None:
            record.error = error
            entry["error"] = error
        span = self._journal.append(entry)
        if report is not None:
            record.report_span = span

    def submit(self, spec: dict, job_id: str) -> tuple[JobRecord, bool]:
        """Record a submission; idempotent by job id.

        Returns ``(record, created)`` — ``created`` is False when the id
        is already known (same spec, same job), in which case the
        existing record (possibly already terminal, with its durable
        result) is returned untouched.
        """
        with self._lock:
            self._check_open()
            existing = self.get(job_id)
            if existing is not None:
                return existing, False
            now = time.time()
            record = JobRecord(self, job_id, spec, submitted_at=now,
                               updated_at=now)
            self._records[job_id] = record
            self._unsettled += 1
            self._journal.append({"event": "submit", "id": job_id,
                                  "spec": spec, "t": now})
            return record, True

    def mark_running(self, job_id: str) -> bool:
        """queued -> running; False if the job is not queued anymore
        (cancelled or already settled — the dispatch must be dropped)."""
        with self._lock:
            self._check_open()
            record = self._require(job_id)
            if record.state != "queued":
                return False
            self._transition(record, "running")
            return True

    def requeue(self, job_id: str) -> bool:
        """running -> queued (a dispatch that never reached a worker)."""
        with self._lock:
            self._check_open()
            record = self._require(job_id)
            if record.state != "running":
                return False
            self._transition(record, "queued")
            return True

    def settle(self, job_id: str, state: str, *, report: dict | None = None,
               error: dict | None = None) -> JobRecord:
        """Journal a terminal outcome; idempotent (first writer wins)."""
        if state not in TERMINAL_STATES:
            raise ValueError(f"settle() takes a terminal state, got {state!r}")
        with self._lock:
            self._check_open()
            record = self._require(job_id)
            if not record.terminal:
                self._transition(record, state, report=report, error=error)
            return record

    def cancel(self, job_id: str) -> bool:
        """Withdraw a queued job; False once it is running or settled."""
        with self._lock:
            self._check_open()
            record = self._require(job_id)
            if record.state != "queued":
                return False
            self._transition(record, "cancelled",
                             error={"kind": "Cancelled",
                                    "message": "cancelled while queued"})
            return True

    # -- queries ----------------------------------------------------------

    def _require(self, job_id: str) -> JobRecord:
        record = self.get(job_id)
        if record is None:
            raise UnknownJob(job_id)
        return record

    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._records.get(self._aliases.get(job_id, job_id))

    def jobs(self, state: str | None = None) -> list[JobRecord]:
        """Records in submission order, optionally filtered by state."""
        with self._lock:
            records = list(self._records.values())
        if state is not None:
            records = [r for r in records if r.state == state]
        return records

    def counts(self) -> dict:
        """Jobs per state (every state present, zero-filled)."""
        counts = dict.fromkeys(STATES, 0)
        with self._lock:
            for record in self._records.values():
                counts[record.state] = counts.get(record.state, 0) + 1
        return counts

    def backlog(self) -> int:
        """Jobs admitted but not yet settled (the admission-control input)."""
        with self._lock:
            return self._unsettled

    def _read_report(self, record: JobRecord) -> dict | None:
        # Under the lock: compaction moves every span to a new file.
        with self._lock:
            if record.report_span is None:
                return None
            self._check_open()
            return self._journal.read(record.report_span)["report"]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # -- lifecycle ----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("job store is closed")

    def compact(self) -> None:
        """Rewrite the journal as one snapshot line per job (atomic).

        Streams: each snapshot reads its report from the old file while
        the new one is written, then the report spans move to the new
        snapshot lines."""
        with self._lock:
            self._check_open()
            records = list(self._records.values())
            spans = self._journal.rewrite(record.snapshot()
                                          for record in records)
            for record, span in zip(records, spans):
                if record.report_span is not None:
                    record.report_span = span

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._journal.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
