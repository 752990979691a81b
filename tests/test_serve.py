"""``pimsim serve``: crash-safe store, service layer, HTTP, chaos.

Layered like the stack under test: :class:`JobStore` journal-contract
unit tests, :class:`ServeService` admission/drain/shared-pool tests, golden
request/response tests over a live socket, and subprocess chaos tests
(SIGKILL durability, SIGTERM drain, the exit-code contract) against the
real ``pimsim serve`` CLI.
"""

import http.client
import json
import multiprocessing
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.config import small_chip, tiny_chip
from repro.engine import Engine, JobSpec
from repro.engine.journal import Journal
from repro.runner.cli import (
    SERVE_EXIT_DRAIN_EXPIRED,
    SERVE_EXIT_FATAL,
    SERVE_EXIT_OK,
    build_parser,
    main,
)
from repro.serve import (
    Draining,
    JobStore,
    Overloaded,
    ServeHTTPServer,
    ServeService,
    TERMINAL_STATES,
    serve_http,
)
from repro.serve.http import MAX_BODY_BYTES

SRC = str(Path(__file__).resolve().parent.parent / "src")


def wait_until(predicate, timeout=60.0, interval=0.02):
    """Poll until ``predicate()`` is truthy; its last value on success."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"condition not met within {timeout:g}s")


def spawned_since(before):
    """Live child processes that were not in the ``before`` snapshot."""
    return set(multiprocessing.active_children()) - before


SPEC = {"network": "mlp", "config": "tiny"}


def spec_with(**overrides) -> JobSpec:
    return JobSpec.from_dict({**SPEC, **overrides})


class TestJobStore:
    """The journal contract: every transition durable, replay exact."""

    def _store(self, tmp_path, **kw):
        kw.setdefault("fsync", False)
        return JobStore(tmp_path / "store.jsonl", **kw)

    def test_submit_survives_reopen(self, tmp_path):
        with self._store(tmp_path) as store:
            record, created = store.submit({"network": "mlp"}, "j1")
            assert created and record.state == "queued"
        with self._store(tmp_path) as store:
            replayed = store.get("j1")
            assert replayed.state == "queued"
            assert replayed.spec == {"network": "mlp"}
            assert replayed.submitted_at == record.submitted_at

    def test_terminal_result_survives_and_is_never_requeued(self, tmp_path):
        with self._store(tmp_path) as store:
            store.submit({"network": "mlp"}, "j1")
            store.mark_running("j1")
            store.settle("j1", "done", report={"cycles": 123})
        with self._store(tmp_path) as store:
            replayed = store.get("j1")
            assert replayed.state == "done"
            assert replayed.report == {"cycles": 123}
            assert replayed.attempts == 0
            assert not store.jobs("queued")

    def test_submit_is_idempotent_by_id(self, tmp_path):
        with self._store(tmp_path) as store:
            first, created = store.submit({"network": "mlp"}, "j1")
            again, recreated = store.submit({"network": "mlp"}, "j1")
            assert created and not recreated
            assert again is first
            assert len(store) == 1

    def test_running_job_requeues_with_blame_on_replay(self, tmp_path):
        with self._store(tmp_path) as store:
            store.submit({"network": "mlp"}, "j1")
            store.mark_running("j1")
        with self._store(tmp_path) as store:  # "the server crashed"
            replayed = store.get("j1")
            assert replayed.state == "queued"
            assert replayed.attempts == 1

    def test_repeat_crasher_quarantined_as_poisoned(self, tmp_path):
        with self._store(tmp_path, max_restarts=1) as store:
            store.submit({"network": "mlp"}, "j1")
            store.mark_running("j1")
        with self._store(tmp_path, max_restarts=1) as store:
            store.mark_running("j1")  # crash #2, mid-run again
        with self._store(tmp_path, max_restarts=1) as store:
            replayed = store.get("j1")
            assert replayed.state == "poisoned"
            assert replayed.attempts == 2
            assert replayed.error["kind"] == "JobPoisoned"
        with self._store(tmp_path, max_restarts=1) as store:
            assert store.get("j1").state == "poisoned"  # terminal: stays

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        with self._store(tmp_path) as store:
            store.submit({"network": "mlp"}, "j1")
            store.mark_running("j1")
            store.settle("j1", "done", report={"cycles": 9})
        path = tmp_path / "store.jsonl"
        path.write_bytes(path.read_bytes()
                         + b'{"event": "state", "id": "j1", "sta')
        with self._store(tmp_path) as store:
            assert store.get("j1").state == "done"

    def test_submit_after_a_torn_tail_survives_the_next_restart(
            self, tmp_path):
        """A crash mid-write leaves a newline-less fragment.  The first
        transition journaled after the restart must start on its own
        line — glued onto the fragment, an acknowledged job is lost."""
        with self._store(tmp_path) as store:
            store.submit({"network": "mlp"}, "jA")
        path = tmp_path / "store.jsonl"
        path.write_bytes(path.read_bytes()
                         + b'{"event": "submit", "id": "jB", "sp')
        with self._store(tmp_path) as store:
            assert [r.id for r in store.jobs()] == ["jA"]
            _record, created = store.submit({"network": "mlp"}, "jC")
            assert created  # what POST /jobs answers 201 on
        with self._store(tmp_path) as store:
            assert [r.id for r in store.jobs()] == ["jA", "jC"]

    def test_recovery_transition_after_a_torn_tail_survives(self, tmp_path):
        """Same for the running -> queued blame record the store itself
        journals while opening."""
        with self._store(tmp_path) as store:
            store.submit({"network": "mlp"}, "jA")
            store.mark_running("jA")
        path = tmp_path / "store.jsonl"
        path.write_bytes(path.read_bytes()
                         + b'{"event": "state", "id": "jA", "sta')
        with self._store(tmp_path):  # "crashed": requeued with blame 1
            pass
        last = [json.loads(line) for line in path.read_text().splitlines()
                if line.endswith("}")][-1]
        assert (last["id"], last["state"], last["attempts"]) == \
            ("jA", "queued", 1), "the blame record must be its own line"
        with self._store(tmp_path) as store:
            replayed = store.get("jA")
            assert replayed.state == "queued"
            assert replayed.attempts == 1

    def test_replays_a_store_written_before_the_shared_journal(
            self, tmp_path):
        """Literal journal lines as the previous store wrote them: event
        records, a compaction snapshot, a foreign line."""
        path = tmp_path / "store.jsonl"
        path.write_text("\n".join([
            '{"id": "j1", "state": "done", "attempts": 0, "spec": '
            '{"network": "mlp"}, "submitted_at": 1.0, "updated_at": 3.0, '
            '"report": {"cycles": 7}, "event": "job"}',
            '{"event": "submit", "id": "j2", "spec": {"network": "mlp", '
            '"rob_size": 2}, "t": 4.0}',
            '{"event": "state", "id": "j2", "state": "running", '
            '"attempts": 0, "t": 5.0}',
            'not a journal line',
            '{"event": "state", "id": "j2", "state": "failed", '
            '"attempts": 0, "t": 6.0, "error": {"kind": "X", '
            '"message": "m"}}',
            '{"event": "submit", "id": "j3", "spec": {"network": "mlp", '
            '"rob_size": 3}, "t": 7.0}',
        ]) + "\n")
        with self._store(tmp_path) as store:
            assert {r.id: r.state for r in store.jobs()} == {
                "j1": "done", "j2": "failed", "j3": "queued"}
            assert store.get("j1").report == {"cycles": 7}
            assert store.get("j1").submitted_at == 1.0
            assert store.get("j2").error == {"kind": "X", "message": "m"}
            assert store.get("j3").spec == {"network": "mlp", "rob_size": 3}

    def test_cancel_withdraws_only_queued_jobs(self, tmp_path):
        with self._store(tmp_path) as store:
            store.submit({"network": "mlp"}, "j1")
            assert store.cancel("j1") is True
            assert store.get("j1").state == "cancelled"
            store.submit({"network": "mlp"}, "j2")
            store.mark_running("j2")
            assert store.cancel("j2") is False
            assert store.mark_running("j1") is False, \
                "a cancelled job must never be dispatched"

    def test_settle_requires_a_terminal_state(self, tmp_path):
        with self._store(tmp_path) as store:
            store.submit({"network": "mlp"}, "j1")
            with pytest.raises(ValueError):
                store.settle("j1", "running")

    def test_compaction_is_state_preserving(self, tmp_path):
        with self._store(tmp_path) as store:
            for i in range(4):
                store.submit({"network": "mlp", "rob_size": i}, f"j{i}")
            store.mark_running("j0")
            store.settle("j0", "done", report={"cycles": 1})
            store.mark_running("j1")
            store.settle("j1", "failed", error={"kind": "X", "message": "m"})
            before = {r.id: r.to_dict(include_report=True)
                      for r in store.jobs()}
            store.compact()
            path = store.path
            assert len(path.read_text().splitlines()) == 4
        with self._store(tmp_path) as store:
            after = {r.id: r.to_dict(include_report=True)
                     for r in store.jobs()}
        assert after == before

    def test_counts_and_backlog(self, tmp_path):
        with self._store(tmp_path) as store:
            store.submit({"network": "mlp"}, "j1")
            store.submit({"network": "mlp", "rob_size": 2}, "j2")
            store.mark_running("j1")
            store.settle("j1", "done", report={})
            counts = store.counts()
            assert counts["done"] == 1 and counts["queued"] == 1
            assert set(counts) == {"queued", "running", "done", "failed",
                                   "poisoned", "timeout", "cancelled"}
            assert store.backlog() == 1

    def test_settled_reports_live_in_the_journal_not_the_heap(
            self, tmp_path):
        """2,000 jobs with ~20 KB reports: the store keeps each job's
        record and spec, and reads its report back from the journal."""
        def report(i):
            return {"cycles": i, "per_core": {
                str(core): f"{i}/{core}:" + "x" * 2500 for core in range(8)}}
        jobs = 2000
        with self._store(tmp_path) as store:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for i in range(jobs):
                    store.submit({"network": "mlp", "rob_size": i}, f"j{i}")
                    store.mark_running(f"j{i}")
                    store.settle(f"j{i}", "done", report=report(i))
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(json.dumps(report(0))) > 19_000
            assert grown / jobs < 1024, f"{grown / jobs:.0f} B per job"
            assert all(store.get(f"j{i}").report == report(i)
                       for i in range(jobs))

    def test_report_spans_follow_compaction_and_restarts(self, tmp_path):
        """Every report reads back equal after compaction, a restart
        replay, a torn tail and a non-UTF-8 line in the journal."""
        def report(i):
            return {"cycles": i, "note": "\u00e9" * i}  # multi-byte UTF-8

        def reports(store):
            return {r.id: r.report for r in store.jobs()}
        with self._store(tmp_path) as store:
            for i in range(5):
                store.submit({"network": "mlp", "rob_size": i}, f"j{i}")
                store.mark_running(f"j{i}")
            for i in range(3):
                store.settle(f"j{i}", "done", report=report(i))
            store.settle("j3", "failed", error={"kind": "X", "message": "m"})
            expected = reports(store)
            store.compact()
            assert reports(store) == expected
            lines = {span: entry
                     for entry, span in Journal.replay(store.path)}
            for record in store.jobs():
                if record.report_span is not None:
                    assert lines[record.report_span]["event"] == "job"
                    assert lines[record.report_span]["id"] == record.id
        path = tmp_path / "store.jsonl"
        path.write_bytes(path.read_bytes() + b"\xff\xfe not utf-8\n"
                         + b'{"event": "state", "id": "j4", "sta')
        with self._store(tmp_path) as store:  # j4 requeued with blame
            assert reports(store) == expected
            store.mark_running("j4")
            store.settle("j4", "done", report=report(4))
            expected["j4"] = report(4)
            assert reports(store) == expected
        with self._store(tmp_path) as store:
            assert reports(store) == expected

    def test_backlog_is_kept_not_scanned(self, tmp_path):
        """``backlog()`` equals a brute-force count after every step of
        a random submit / run / settle / cancel / requeue / replay /
        compact sequence — and reads no record to answer."""
        rng = random.Random(25)
        store = self._store(tmp_path, max_restarts=2)
        try:
            for step in range(400):
                records = store.jobs()
                queued = [r.id for r in records if r.state == "queued"]
                running = [r.id for r in records if r.state == "running"]
                op = rng.choice(("submit", "submit", "run", "run", "settle",
                                 "cancel", "requeue", "replay", "compact"))
                if op == "submit":  # ids repeat: idempotent re-submits
                    store.submit({"network": "mlp"}, f"j{rng.randrange(80)}")
                elif op == "run" and queued:
                    store.mark_running(rng.choice(queued))
                elif op == "settle" and running:
                    store.settle(rng.choice(running),
                                 rng.choice(("done", "failed", "timeout")),
                                 report={"step": step})
                elif op == "cancel" and queued:
                    store.cancel(rng.choice(queued))
                elif op == "requeue" and running:
                    store.requeue(rng.choice(running))
                elif op == "replay":
                    store.close()
                    store = self._store(tmp_path, max_restarts=2)
                elif op == "compact":
                    store.compact()
                assert store.backlog() == sum(
                    not r.terminal for r in store.jobs()), (step, op)

            class NoScan(dict):
                def values(self):
                    raise AssertionError("backlog() scanned the job table")
                __iter__ = items = values
            expected = store.backlog()
            store._records = NoScan(store._records)
            assert store.backlog() == expected
        finally:
            store.close()


@pytest.fixture
def service(tmp_path):
    store = JobStore(tmp_path / "store.jsonl", fsync=False)
    svc = ServeService(store, config=tiny_chip(), workers=1,
                       max_backlog=4).start()
    yield svc
    svc.close()


class TestServeService:
    def test_submitted_job_runs_to_done(self, service):
        record, created = service.submit(spec_with(rob_size=1))
        assert created and record.state == "queued"
        done = wait_until(lambda: service.store.get(record.id).terminal
                          and service.store.get(record.id))
        assert done.state == "done"
        assert done.report["cycles"] > 0

    def test_failure_record_matches_pimsim_batch(self, service, tmp_path,
                                                 capsys):
        """A job failing the same way leaves the same ``error`` dict in the
        serve store as on its ``pimsim batch`` line (``JobFailed.to_dict``
        in both; each ran in a pool worker, so ``details`` is the same
        traceback)."""
        failing = {"network": "vgg8", "config": "tiny"}  # no room on 4 cores
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([failing, {**failing, "rob_size": 1}]))
        assert main(["batch", str(jobs), "--workers", "2"]) == 1
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines() if line]
        batch_error = next(r["error"] for r in lines if r.get("index") == 0)
        record, _created = service.submit(JobSpec.from_dict(failing))
        failed = wait_until(lambda: service.store.get(record.id).terminal
                            and service.store.get(record.id))
        assert failed.state == "failed"
        assert failed.error == batch_error
        assert batch_error["kind"] == "CompileError"
        assert "Traceback" in batch_error["details"]

    def test_resubmission_is_idempotent_never_reruns(self, service):
        record, _created = service.submit(spec_with(rob_size=2))
        wait_until(lambda: service.store.get(record.id).terminal)
        settled = service.store.get(record.id).to_dict(include_report=True)
        again, created = service.submit(spec_with(rob_size=2))
        assert not created
        assert again.to_dict(include_report=True) == settled
        assert again.attempts == 0

    def test_overload_refused_with_retry_after(self, service):
        service.pause_dispatch()
        for rob in range(1, 5):  # max_backlog=4
            service.submit(spec_with(rob_size=rob))
        with pytest.raises(Overloaded) as info:
            service.submit(spec_with(rob_size=9))
        assert info.value.retry_after >= 1
        assert service.store.backlog() == 4, "refused jobs never queue"
        # Idempotent re-submission of an admitted job bypasses admission.
        _record, created = service.submit(spec_with(rob_size=1))
        assert not created

    def test_drain_flips_ready_and_refuses_admissions(self, service):
        assert service.ready() is True
        service.begin_drain()
        assert service.ready() is False
        assert service.status()["draining"] is True
        with pytest.raises(Draining):
            service.submit(spec_with(rob_size=1))
        assert service.wait_drained(5.0) is True  # nothing in flight

    def test_cancel_queued_job_is_never_dispatched(self, service):
        service.pause_dispatch()
        record, _created = service.submit(spec_with(rob_size=3))
        assert service.cancel(record.id) is True
        service.resume_dispatch()
        # Give the dispatcher a beat; the store refuses the queued ->
        # running transition so the job must stay cancelled.
        time.sleep(0.2)
        assert service.store.get(record.id).state == "cancelled"
        assert service.cancel(record.id) is False

    def test_drain_deadline_aborts_and_requeues_in_flight(self, service):
        hung = spec_with(tag="wedge",
                         faults={"mode": "hang", "seconds": 3600})
        record, _created = service.submit(hung)
        wait_until(lambda: service.store.get(record.id).state == "running")
        service.begin_drain()
        assert service.wait_drained(0.3) is False, "the job is wedged"
        assert service.terminate() == 1
        requeued = wait_until(
            lambda: service.store.get(record.id).state == "queued"
            and service.store.get(record.id))
        assert requeued.attempts == 0, \
            "an aborted drain is the server's fault, not the job's"

    def test_drain_deadline_aborts_every_configuration(self, tmp_path):
        """Hung jobs of two configurations share the one pool, so one
        abort requeues both and leaves no worker process behind."""
        before = set(multiprocessing.active_children())
        store = JobStore(tmp_path / "store.jsonl", fsync=False)
        service = ServeService(store, config=tiny_chip(), workers=2).start()
        try:
            hang = {"mode": "hang", "seconds": 3600}
            ids = [service.submit(spec)[0].id for spec in (
                JobSpec("mlp", faults=hang),
                JobSpec("mlp", small_chip(), faults=hang))]
            wait_until(lambda: service.pool_stats()["in_flight"] == 2)
            assert len(spawned_since(before)) == 2
            service.begin_drain()
            assert service.wait_drained(0.3) is False
            assert service.terminate() == 2
            for job_id in ids:
                requeued = wait_until(
                    lambda: store.get(job_id).state == "queued"
                    and store.get(job_id))
                assert requeued.attempts == 0
            wait_until(lambda: not spawned_since(before))
            assert service.pool_stats()["size"] == 0
        finally:
            service.terminate()  # a failed assert must not wait out a hang
            service.close()

    def test_dispatch_after_terminate_requeues_without_a_pool(self, service):
        """Engine.submit after Engine.terminate() would respawn a pool
        nobody aborts: a dispatch that loses the race must requeue."""
        before = set(multiprocessing.active_children())
        service.pause_dispatch()
        record, _created = service.submit(spec_with(rob_size=5))
        assert service.terminate() == 0
        service.resume_dispatch()

        def transitions():
            return [event["state"]
                    for event, _span in Journal.replay(service.store.path)
                    if event.get("event") == "state"]
        wait_until(lambda: transitions() == ["running", "queued"])
        assert service.store.get(record.id).attempts == 0
        assert service.pool_stats()["size"] == 0
        assert not spawned_since(before)

    def test_distinct_configs_share_the_one_pool(self, service):
        specs = [JobSpec("mlp"),               # the service default (tiny)
                 JobSpec("mlp", tiny_chip()),  # the same, spelled out
                 JobSpec("mlp", small_chip())]
        ids = [service.submit(spec)[0].id for spec in specs]
        assert len(set(ids)) == 3
        wait_until(lambda: all(service.store.get(i).terminal for i in ids))
        assert [service.store.get(i).state for i in ids] == ["done"] * 3
        assert service.pool_stats()["size"] == 1, \
            "workers=1 is the process bound, whatever is posted"
        assert "sessions" not in service.status()
        with Engine(tiny_chip()) as engine:
            assert [service.store.get(i).report["cycles"] for i in ids] == \
                [engine.run(spec).cycles for spec in specs]


@pytest.fixture
def served(tmp_path):
    store = JobStore(tmp_path / "store.jsonl", fsync=False)
    svc = ServeService(store, config=tiny_chip(), workers=1,
                       max_backlog=4).start()
    server = serve_http(svc, "127.0.0.1", 0)
    # shutdown() waits for serve_forever's next poll (0.5 s by default).
    thread = threading.Thread(target=server.serve_forever, daemon=True,
                              kwargs={"poll_interval": 0.01})
    thread.start()
    yield server, svc
    server.shutdown()
    server.server_close()
    svc.close()


def request(server, method, path, body=None):
    """One HTTP exchange; returns (status, parsed-json, headers)."""
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"}
                     if payload else {})
        resp = conn.getresponse()
        data = json.loads(resp.read() or b"null")
        return resp.status, data, dict(resp.getheaders())
    finally:
        conn.close()


class TestServeHTTP:
    """Golden request/response pairs for every route."""

    def test_healthz(self, served):
        server, _svc = served
        status, data, headers = request(server, "GET", "/healthz")
        assert (status, data) == (200, {"status": "alive"})
        assert headers["Content-Type"] == "application/json"

    def test_readyz_payload(self, served):
        server, _svc = served
        status, data, _headers = request(server, "GET", "/readyz")
        assert status == 200
        assert data["ready"] is True and data["draining"] is False
        assert data["max_backlog"] == 4
        assert set(data["counts"]) == {"queued", "running", "done", "failed",
                                       "poisoned", "timeout", "cancelled"}
        assert {"size", "broken", "queue_depth", "in_flight",
                "ewma_service_s"} <= set(data["pool"])

    def test_submit_status_result_lifecycle(self, served):
        server, _svc = served
        status, job, _headers = request(server, "POST", "/jobs", SPEC)
        assert status == 201
        assert job["created"] is True
        assert job["id"] == JobSpec.from_dict(SPEC).job_id()

        status, record, _headers = request(server, "GET",
                                           f"/jobs/{job['id']}")
        assert status == 200 and record["id"] == job["id"]

        def settled():
            code, data, _ = request(server, "GET",
                                    f"/jobs/{job['id']}/result")
            return data if code == 200 else None
        result = wait_until(settled)
        assert result["state"] == "done"
        assert result["report"]["cycles"] > 0

        status, listing, _headers = request(server, "GET",
                                            "/jobs?state=done")
        assert status == 200
        assert [r["id"] for r in listing["jobs"]] == [job["id"]]
        assert listing["counts"]["done"] == 1

    def test_batch_post_admits_each_spec(self, served):
        server, _svc = served
        body = {"jobs": [{**SPEC, "rob_size": r} for r in (1, 2)]}
        status, data, _headers = request(server, "POST", "/jobs", body)
        assert status == 201
        ids = [j["id"] for j in data["jobs"]]
        assert len(set(ids)) == 2

    def test_result_pending_gives_202_with_retry_hint(self, served):
        server, svc = served
        svc.pause_dispatch()
        _status, job, _headers = request(server, "POST", "/jobs", SPEC)
        status, data, headers = request(server, "GET",
                                        f"/jobs/{job['id']}/result")
        assert status == 202
        assert data == {"id": job["id"], "state": "queued"}
        assert int(headers["Retry-After"]) >= 1

    def test_delete_cancels_queued_then_conflicts(self, served):
        server, svc = served
        svc.pause_dispatch()
        _status, job, _headers = request(server, "POST", "/jobs", SPEC)
        status, data, _headers = request(server, "DELETE",
                                         f"/jobs/{job['id']}")
        assert status == 200 and data["state"] == "cancelled"
        status, data, _headers = request(server, "DELETE",
                                         f"/jobs/{job['id']}")
        assert status == 409 and data["state"] == "cancelled"

    def test_overload_sheds_load_with_503_retry_after(self, served):
        server, svc = served
        svc.pause_dispatch()
        for rob in range(1, 5):  # fill max_backlog=4
            status, _data, _headers = request(
                server, "POST", "/jobs", {**SPEC, "rob_size": rob})
            assert status == 201
        status, data, headers = request(server, "POST", "/jobs",
                                        {**SPEC, "rob_size": 9})
        assert status == 503
        assert data["error"] == "overloaded"
        assert int(headers["Retry-After"]) >= 1
        assert svc.store.backlog() == 4, "shed jobs must not grow the queue"
        # The refused spec was never journaled.
        assert svc.store.get(spec_with(rob_size=9).job_id()) is None

    def test_draining_refuses_submissions_and_readyz(self, served):
        server, svc = served
        svc.begin_drain()
        status, data, _headers = request(server, "GET", "/readyz")
        assert status == 503 and data["ready"] is False
        status, data, _headers = request(server, "POST", "/jobs", SPEC)
        assert status == 503 and data["error"] == "draining"

    def test_unknown_job_is_404(self, served):
        server, _svc = served
        for method, path in (("GET", "/jobs/jnope"),
                             ("GET", "/jobs/jnope/result"),
                             ("DELETE", "/jobs/jnope")):
            status, data, _headers = request(server, method, path)
            assert (status, data["error"]) == (404, "unknown job")

    def test_unknown_route_is_404(self, served):
        server, _svc = served
        status, data, _headers = request(server, "GET", "/nope")
        assert (status, data["error"]) == (404, "no such route")
        status, data, _headers = request(server, "POST", "/nope", {})
        assert status == 404

    def test_bad_body_and_bad_spec_are_400(self, served):
        server, _svc = served
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.request("POST", "/jobs", body=b"not json {",
                     headers={"Content-Type": "application/json"})
        assert conn.getresponse().status == 400
        conn.close()
        status, data, _headers = request(server, "POST", "/jobs",
                                         {"no_network": True})
        assert status == 400 and "bad job spec" in data["error"]

    @pytest.mark.parametrize("headers, body, expected", [
        ({"Content-Length": "-1"}, b"", 400),
        ({"Content-Length": "abc"}, b"", 400),
        ({}, b"", 400),
        ({"Content-Length": str(MAX_BODY_BYTES + 1)}, b"", 413),
        ({"Content-Length": "100000"}, b"[" * 100_000, 400),
    ], ids=["negative-length", "non-integer-length", "missing-length",
            "oversize-length", "deep-nesting"])
    def test_hostile_body_framing_is_refused(self, served, capsys, headers,
                                             body, expected):
        """A 4xx answer, the connection still usable, a quiet stderr —
        not a parked handler thread, an allocation of the declared
        length or a traceback and a dropped connection."""
        server, _svc = served
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            conn.putrequest("POST", "/jobs")
            for name, value in headers.items():
                conn.putheader(name, value)
            conn.endheaders(body)
            sock = conn.sock
            resp = conn.getresponse()
            assert resp.status == expected
            assert "error" in json.loads(resp.read())
            assert conn.sock is sock, "the server must not hang up"
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert (resp.status, json.loads(resp.read())) == \
                (200, {"status": "alive"})
        finally:
            conn.close()
        assert capsys.readouterr().err == ""

    def test_bad_state_filter_is_400(self, served):
        server, _svc = served
        status, data, _headers = request(server, "GET", "/jobs?state=bogus")
        assert status == 400
        assert "queued" in data["states"]

    @pytest.mark.parametrize("overrides", [
        {"batch": -3}, {"rob_size": "x"}, {"network": "nope"},
        {"timeout": -1}, {"kv_tokens": 5},
        {"decode_steps": 10, "kv_tokens": 60, "network": "gpt_tiny"},
        {"attention_shards": 5, "config": None},
        {"attention_shards": 17, "config": "small"},
    ], ids=["negative-batch", "string-rob-size", "unknown-network",
            "negative-timeout", "kv-tokens-on-mlp",
            "decode-past-kv-capacity", "shards-past-the-served-cores",
            "shards-past-the-spec-cores"])
    def test_invalid_spec_is_400_before_anything_is_journaled(
            self, served, overrides):
        server, svc = served
        status, data, _headers = request(server, "POST", "/jobs",
                                         {**SPEC, **overrides})
        assert status == 400, data
        assert "bad job spec" in data["error"]
        assert next(iter(overrides)) in data["error"]
        assert len(svc.store) == 0
        assert list(Journal.replay(svc.store.path)) == []

    def test_every_response_is_one_send(self, tmp_path):
        """Status line, headers and body leave in one ``send``; a body
        sent on its own waits out the client's delayed ACK."""
        store = JobStore(tmp_path / "store.jsonl", fsync=False)
        svc = ServeService(store, config=tiny_chip(), workers=1).start()
        server = _CountingServer(("127.0.0.1", 0), svc)
        thread = threading.Thread(target=server.serve_forever, daemon=True,
                                  kwargs={"poll_interval": 0.01})
        thread.start()
        conn = http.client.HTTPConnection(*server.server_address[:2],
                                          timeout=60)
        try:
            def sends_for(method, path, body=None, headers=None):
                before = sum(sock.sends for sock in server.accepted)
                conn.request(method, path, body=body, headers=headers or {})
                resp = conn.getresponse()
                resp.read()
                return resp.status, sum(
                    sock.sends for sock in server.accepted) - before

            assert sends_for("GET", "/healthz") == (200, 1)
            svc.pause_dispatch()
            assert sends_for("POST", "/jobs", json.dumps(SPEC)) == (201, 1)
            job_id = spec_with().job_id()
            path = f"/jobs/{job_id}/result"
            assert sends_for("GET", path) == (202, 1)
            svc.resume_dispatch()
            wait_until(lambda: store.get(job_id).terminal)
            assert sends_for("GET", path) == (200, 1)
            assert sends_for("GET", "/jobs/jnope") == (404, 1)
            assert sends_for("POST", "/jobs", headers={
                "Content-Length": str(MAX_BODY_BYTES + 1)}) == (413, 1)
            assert sends_for("GET", "/healthz") == (200, 1)
            assert len(server.accepted) == 1, "one keep-alive connection"
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
            svc.close()


class _CountingSocket(socket.socket):
    """An accepted connection that counts its sends."""

    sends = 0

    def send(self, data, *args):
        self.sends += 1
        return super().send(data, *args)

    def sendall(self, data, *args):
        self.sends += 1
        return super().sendall(data, *args)


class _CountingServer(ServeHTTPServer):
    """Hands every handler a :class:`_CountingSocket`."""

    def __init__(self, address, service):
        super().__init__(address, service)
        self.accepted: list[_CountingSocket] = []

    def get_request(self):
        sock, address = super().get_request()
        counted = _CountingSocket(sock.family, sock.type, sock.proto,
                                  fileno=sock.detach())
        self.accepted.append(counted)
        return counted, address


def start_serve(store_path, *extra, workers=1):
    """Launch ``pimsim serve`` as a real process (the leader of its own
    process group); returns (proc, base)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.runner.cli", "serve",
         "--store", str(store_path), "--port", "0", "--workers",
         str(workers), "--preset", "tiny", *extra],
        stderr=subprocess.PIPE, text=True, start_new_session=True,
        env={**os.environ, "PYTHONPATH": SRC})
    banner = proc.stderr.readline()
    match = re.search(r"listening on http://([\d.]+):(\d+)", banner)
    assert match, f"no listening banner, got {banner!r}"
    return proc, (match.group(1), int(match.group(2)))


def http_json(base, method, path, body=None):
    status, data, _headers = request(_Addr(base), method, path, body)
    return status, data


class _Addr:
    """Adapter so ``request`` also accepts a bare (host, port) pair."""

    def __init__(self, address):
        self.server_address = address


def live_group_members(pgid):
    """Pids of the non-zombie processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # pid (comm) state ppid pgrp ...; comm may contain spaces
                state, _ppid, pgrp = fh.read().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue  # exited while we were listing
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


class TestServeCLI:
    """The serve process itself: durability, drain, exit codes."""

    def test_exit_codes_are_distinct_and_pinned(self):
        assert (SERVE_EXIT_OK, SERVE_EXIT_FATAL,
                SERVE_EXIT_DRAIN_EXPIRED) == (0, 2, 3)

    def test_serve_flag_defaults(self):
        args = build_parser().parse_args(["serve", "--store", "s.jsonl"])
        assert args.port == 8787
        assert args.drain_timeout == 30.0
        assert args.max_restarts == 1
        assert args.max_backlog is None

    def test_bind_failure_is_fatal(self, tmp_path):
        taken = socket.socket()
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        port = taken.getsockname()[1]
        try:
            assert main(["serve", "--store", str(tmp_path / "s.jsonl"),
                         "--port", str(port)]) == SERVE_EXIT_FATAL
        finally:
            taken.close()

    def test_sigkill_mid_batch_is_durable(self, tmp_path):
        """The acceptance scenario: kill -9 the server mid-batch, restart
        against the same store — settled results survive untouched, the
        rest reaches a terminal state, nothing runs twice."""
        store_path = tmp_path / "store.jsonl"
        proc, base = start_serve(store_path)
        # The hang directive delays each job ~0.3s inside the worker, so
        # the kill deterministically lands mid-batch.
        specs = [{**SPEC, "rob_size": rob,
                  "faults": {"mode": "hang", "seconds": 0.3}}
                 for rob in range(1, 7)]
        status, data = http_json(base, "POST", "/jobs", {"jobs": specs})
        assert status == 201
        ids = [job["id"] for job in data["jobs"]]
        assert len(set(ids)) == 6

        def some_done():
            _code, listing = http_json(base, "GET", "/jobs?state=done")
            return listing["jobs"] or None
        done_before = {job["id"]: job for job in wait_until(some_done)}
        results_before = {}
        for job_id in done_before:
            _code, results_before[job_id] = http_json(
                base, "GET", f"/jobs/{job_id}/result")
        proc.kill()
        proc.wait(timeout=30)
        assert len(done_before) < 6, "the kill must land mid-batch"

        proc, base = start_serve(store_path)
        try:
            def all_terminal():
                _code, data = http_json(base, "GET", "/readyz")
                counts = data["counts"]
                return sum(counts[s] for s in TERMINAL_STATES) == 6
            wait_until(all_terminal, timeout=120.0, interval=0.2)
            _code, data = http_json(base, "GET", "/readyz")
            assert data["counts"]["done"] == 6
            for job_id, before in results_before.items():
                code, after = http_json(base, "GET",
                                        f"/jobs/{job_id}/result")
                assert code == 200
                assert after == before, \
                    "a journaled result must survive the crash bit-for-bit"
                assert after["attempts"] == 0, \
                    "a settled job must never be re-executed"
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == SERVE_EXIT_OK

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_sigkill_leaves_no_worker_behind(self, tmp_path):
        """A SIGKILLed server runs no teardown: its pool workers must
        notice on their own (EOF on the task pipe) and exit."""
        proc, base = start_serve(tmp_path / "store.jsonl", workers=2)
        try:
            status, job = http_json(base, "POST", "/jobs", SPEC)
            assert status == 201
            wait_until(lambda: http_json(
                base, "GET", f"/jobs/{job['id']}/result")[0] == 200)
            assert len(live_group_members(proc.pid)) == 3, \
                "the server and its two workers"
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stderr.close()
        try:
            wait_until(lambda: not live_group_members(proc.pid),
                       timeout=5.0)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def test_sigterm_drains_cleanly_with_exit_zero(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        proc, base = start_serve(store_path)
        status, _data = http_json(base, "POST", "/jobs", {
            "jobs": [{**SPEC, "rob_size": rob} for rob in (1, 2)]})
        assert status == 201
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == SERVE_EXIT_OK
        stderr = proc.stderr.read()
        assert "drained cleanly" in stderr
        with JobStore(store_path) as store:
            states = {record.state for record in store.jobs()}
            assert "running" not in states, \
                "every in-flight outcome must be journaled before exit"

    def test_expired_drain_deadline_requeues_and_exits_3(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        proc, base = start_serve(store_path, "--drain-timeout", "0.5")
        status, job = http_json(base, "POST", "/jobs", {
            **SPEC, "faults": {"mode": "hang", "seconds": 3600}})
        assert status == 201

        def running():
            _code, listing = http_json(base, "GET", "/jobs?state=running")
            return listing["jobs"] or None
        wait_until(running)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == SERVE_EXIT_DRAIN_EXPIRED
        assert "requeued" in proc.stderr.read()
        with JobStore(store_path) as store:
            # One restart blame: the job was journaled `queued` by the
            # abort, so the replay charges nothing extra.
            assert store.get(job["id"]).state == "queued"
