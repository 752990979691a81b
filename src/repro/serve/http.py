"""HTTP front-end for :class:`~repro.serve.ServeService` (stdlib only).

A thin request/response codec over the service layer — every decision
(admission, durability, drain) lives in :mod:`repro.serve.service`; this
module only parses paths/bodies and maps service outcomes to status
codes, so the whole API is testable without a socket and the server
adds no dependencies.

Routes (all JSON)::

    POST   /jobs              one spec object, or {"jobs": [spec, ...]}
    GET    /jobs              job listing; ?state=<state> filters
    GET    /jobs/<id>         one job's record (no report payload)
    GET    /jobs/<id>/result  202 while pending; 200 with report/error
    DELETE /jobs/<id>         cancel a *queued* job (409 once running)
    GET    /healthz           process liveness (always 200)
    GET    /readyz            200 serving / 503 draining or pool broken

Status mapping: ``201`` on first admission, ``200`` on idempotent
re-submission and reads, ``202`` for a result not yet settled, ``400``
malformed spec/body/``Content-Length``, ``404`` unknown job or route,
``409`` an impossible transition (cancel of a running job), ``413`` a
body over :data:`MAX_BODY_BYTES`, ``503`` + ``Retry-After`` for
admission refused (:class:`~repro.serve.Overloaded` /
:class:`~repro.serve.Draining`) and for an unready ``/readyz``.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..engine import JobSpec
from .service import Draining, Overloaded, ServeService
from .store import STATES

__all__ = ["ServeHTTPServer", "ServeHandler", "serve_http"]

#: Longest request body read (a 1,000-spec batch with inline
#: configurations is ~1.6 MB); a longer one is refused with 413.
MAX_BODY_BYTES = 8 * 1024 * 1024


class _BodyTooLarge(ValueError):
    """The declared body exceeds :data:`MAX_BODY_BYTES` (-> 413)."""


class ServeHTTPServer(ThreadingHTTPServer):
    """One thread per request over a shared :class:`ServeService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: ServeService):
        super().__init__(address, ServeHandler)
        self.service = service


def serve_http(service: ServeService, host: str = "127.0.0.1",
               port: int = 8787) -> ServeHTTPServer:
    """Bind the service to a listening server (``port=0``: ephemeral).

    The caller drives ``serve_forever()`` / ``shutdown()`` — binding is
    split out so the CLI can print the resolved port before serving.
    """
    return ServeHTTPServer((host, port), service)


class ServeHandler(BaseHTTPRequestHandler):
    server_version = "pimsim-serve"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> ServeService:
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        pass  # request logging is the orchestrator's job, not stderr's

    # -- plumbing ------------------------------------------------------------

    def _json(self, status: int, payload, headers: dict | None = None):
        """Send one JSON response in one ``send``.  ``end_headers()`` and
        a separate body write would be two: on a keep-alive socket
        Nagle's algorithm holds the small second one until the client's
        delayed ACK (~40 ms) — so the body joins the buffered header
        lines and the whole response is flushed at once."""
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _body(self):
        """The parsed JSON body.  The declared length is checked before
        the first read: ``read`` of a negative length blocks until the
        client hangs up, and of a huge one allocates it."""
        declared = self.headers.get("Content-Length", "")
        if not declared.isdecimal():
            raise ValueError("Content-Length must be a non-negative "
                             f"integer, got {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(f"request body of {length} bytes exceeds "
                                f"the {MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body")
        try:
            return json.loads(raw)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None

    # -- routes --------------------------------------------------------------

    def do_GET(self):
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts == ["healthz"]:
            return self._json(200, {"status": "alive"})
        if parts == ["readyz"]:
            status = self.service.status()
            return self._json(200 if status["ready"] else 503, status)
        if parts == ["jobs"]:
            return self._list_jobs(url.query)
        if len(parts) == 2 and parts[0] == "jobs":
            record = self.service.store.get(parts[1])
            if record is None:
                return self._unknown_job(parts[1])
            return self._json(200, record.to_dict())
        if len(parts) == 3 and parts[:1] == ["jobs"] \
                and parts[2] == "result":
            return self._result(parts[1])
        return self._json(404, {"error": "no such route",
                                "path": url.path})

    def do_POST(self):
        url = urlsplit(self.path)
        if [p for p in url.path.split("/") if p] != ["jobs"]:
            return self._json(404, {"error": "no such route",
                                    "path": url.path})
        try:
            payload = self._body()
        except _BodyTooLarge as exc:
            return self._json(413, {"error": str(exc)})
        except ValueError as exc:
            return self._json(400, {"error": f"bad JSON body: {exc}"})
        batch = isinstance(payload, dict) and "jobs" in payload
        entries = payload["jobs"] if batch else [payload]
        if not isinstance(entries, list):
            return self._json(400, {"error": "'jobs' must be a list"})
        try:
            specs = [JobSpec.from_dict(entry, self.service.config)
                     for entry in entries]
        except (ValueError, TypeError) as exc:
            return self._json(400, {"error": f"bad job spec: {exc}"})
        admitted, any_created = [], False
        for spec in specs:
            try:
                record, created = self.service.submit(spec)
            except Overloaded as exc:
                return self._json(503, {
                    "error": "overloaded",
                    "retry_after": exc.retry_after,
                    "jobs": admitted,
                }, headers={"Retry-After": str(exc.retry_after)})
            except Draining:
                return self._json(503, {"error": "draining",
                                        "jobs": admitted})
            entry = record.to_dict()
            entry["created"] = created
            any_created = any_created or created
            admitted.append(entry)
        status = 201 if any_created else 200
        if batch:
            return self._json(status, {"jobs": admitted})
        return self._json(status, admitted[0])

    def do_DELETE(self):
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        if len(parts) != 2 or parts[0] != "jobs":
            return self._json(404, {"error": "no such route",
                                    "path": url.path})
        record = self.service.store.get(parts[1])
        if record is None:
            return self._unknown_job(parts[1])
        if self.service.cancel(parts[1]):
            return self._json(200, self.service.store.get(parts[1]).to_dict())
        return self._json(409, {"error": "job is not cancellable",
                                "id": record.id, "state": record.state})

    # -- helpers -------------------------------------------------------------

    def _list_jobs(self, query: str):
        params = parse_qs(query)
        state = params.get("state", [None])[0]
        if state is not None and state not in STATES:
            return self._json(400, {
                "error": f"unknown state {state!r}",
                "states": list(STATES)})
        records = self.service.store.jobs(state)
        return self._json(200, {"jobs": [r.to_dict() for r in records],
                                "counts": self.service.store.counts()})

    def _result(self, job_id: str):
        record = self.service.store.get(job_id)
        if record is None:
            return self._unknown_job(job_id)
        if not record.terminal:
            return self._json(202, {"id": record.id, "state": record.state},
                              headers={"Retry-After": str(
                                  self.service.retry_after())})
        return self._json(200, record.to_dict(include_report=True))

    def _unknown_job(self, job_id: str):
        return self._json(404, {"error": "unknown job", "id": job_id})
