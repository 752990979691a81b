"""The ``pimsim serve`` subprocess, its HTTP client, and memory readings.

The server runs in its own session so that every exit path — clean
SIGTERM drain, a failed start, a deadline — can reap the server *and*
its pool workers by process group.  Its store lives in a temporary
directory under ``<repo>/.bench_out`` that is removed afterwards.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

__all__ = ["Server", "Client", "REPO_ROOT", "scratch_dir", "child_env"]

REPO_ROOT = Path(__file__).resolve().parents[3]
POLL_INTERVAL_S = 0.002


def scratch_dir() -> Path:
    """Where the benchmark writes: inside the checkout, git-ignored."""
    path = REPO_ROOT / ".bench_out"
    path.mkdir(exist_ok=True)
    return path


def child_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"/proc/{pid}/status has no VmHWM")


def _children(pid: int) -> list[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # pid (comm) state ppid ...; comm may contain spaces
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # exited while we were listing
        if ppid == pid:
            kids.append(int(entry))
    return kids


class Server:
    """One ``python -m repro.runner.cli serve`` subprocess."""

    def __init__(self, proc: subprocess.Popen, tmp: Path) -> None:
        self.proc = proc
        self.port = 0  # known once the server prints its listening line
        self._tmp = tmp
        self.exit_code: int | None = None

    @classmethod
    def start(cls, *, workers: int, preset: str,
              timeout: float = 60.0) -> "Server":
        tmp = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch_dir()))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.runner.cli", "serve",
             "--store", str(tmp / "store.jsonl"), "--port", "0",
             "--workers", str(workers), "--preset", preset],
            env=child_env(), cwd=REPO_ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        server = cls(proc, tmp)
        lines: queue.Queue = queue.Queue()

        def pump() -> None:  # keeps the pipe drained for the server's life
            for line in proc.stderr:
                lines.put(line)
            lines.put(None)

        threading.Thread(target=pump, daemon=True,
                         name="e2e-serve-stderr").start()
        seen = []
        try:
            deadline = time.monotonic() + timeout
            while True:
                line = lines.get(timeout=max(0.01,
                                             deadline - time.monotonic()))
                if line is None:
                    raise RuntimeError("pimsim serve exited before "
                                       "listening: " + "".join(seen)[-400:])
                seen.append(line)
                match = re.search(r"listening on http://[^:]+:(\d+)", line)
                if match:
                    break
        except BaseException:
            server.stop()
            raise
        server.port = int(match.group(1))
        return server

    def peak_rss_mb(self) -> tuple[float | None, str | None]:
        """Sum of VmHWM over the server and its workers, or a skip reason."""
        try:
            pids = [self.proc.pid, *_children(self.proc.pid)]
            return sum(_vm_hwm_mb(pid) for pid in pids), None
        except OSError as exc:
            return None, f"/proc unavailable for VmHWM: {exc}"

    def stop(self, grace: float = 20.0) -> int | None:
        """SIGTERM (the server's graceful drain), then SIGKILL the whole
        process group; waits until every member is gone.  Idempotent."""
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers, if any
        except (ProcessLookupError, PermissionError):
            pass
        self.exit_code = proc.wait()
        limit = time.monotonic() + 5.0
        while time.monotonic() < limit:
            try:
                os.killpg(proc.pid, 0)
            except (ProcessLookupError, PermissionError):
                break
            time.sleep(0.01)
        if proc.stderr is not None:
            proc.stderr.close()
        shutil.rmtree(self._tmp, ignore_errors=True)
        return self.exit_code


class Client:
    """One keep-alive ``http.client`` connection, closed loop."""

    def __init__(self, port: int, timeout: float) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=timeout)

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.conn.close()

    def request(self, method: str, path: str, body=None) -> tuple[int, dict]:
        if body is not None:
            self.conn.request(method, path, json.dumps(body),
                              {"Content-Type": "application/json"})
        else:
            self.conn.request(method, path)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def run_job(self, spec: dict, deadline) -> dict:
        """``POST /jobs`` then poll the result every 2 ms until 200.

        Returns ``{"post_status", "post_s", "wait_s", "polls", "payload",
        "error"}``; a 503 (admission refused) or any non-2xx is an error.
        """
        out = {"post_status": None, "post_s": 0.0, "wait_s": 0.0,
               "polls": 0, "payload": None, "error": None}
        start = time.perf_counter()
        status, admitted = self.request("POST", "/jobs", spec)
        posted = time.perf_counter()
        out["post_status"], out["post_s"] = status, posted - start
        if status not in (200, 201):
            out["error"] = f"POST /jobs -> {status} {admitted.get('error')}"
            return out
        path = f"/jobs/{admitted['id']}/result"
        while True:
            status, payload = self.request("GET", path)
            out["polls"] += 1
            if status == 200:
                break
            if status != 202:
                out["error"] = f"GET {path} -> {status}"
                break
            if deadline.expired():
                out["error"] = "workload deadline expired"
                break
            time.sleep(POLL_INTERVAL_S)
        out["wait_s"] = time.perf_counter() - posted
        if out["error"] is None:
            if payload.get("state") != "done":
                out["error"] = (f"job settled {payload.get('state')}: "
                                f"{payload.get('error')}")
            else:
                out["payload"] = payload
        return out
