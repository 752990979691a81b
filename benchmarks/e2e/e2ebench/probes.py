"""Fixed per-layer micro-measurements for the traced run.

A probe times one layer's public entry point on a small fixed input,
independent of the workload's job list; each runs only in the traced run
of the workload whose end-to-end metric it is expected to move
(``Metric.probe_on`` in :mod:`.tables`) and reads 0 elsewhere.
"""

from __future__ import annotations

import pickle
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from repro.arch import run_program
from repro.compiler import compile_step_template
from repro.config import get_preset
from repro.engine import Engine, JobSpec
from repro.models import build_model
from repro.serve import JobStore
from repro.sim import Event, Simulator
from repro.tune import CostModel

from . import served
from .tables import DEC, DSE, ROB, SRV
from .workloads import PRESET

__all__ = ["run_for", "http_roundtrip"]

REPS = 30


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _median_call_ms(fn, reps: int = REPS) -> float:
    return statistics.median(_timed(fn) for _ in range(reps)) * 1e3


def kernel(_stages) -> dict:
    """The timer-wheel and ping-pong drivers of ``bench_kernel.py``."""
    n_events, rounds = 20_000, 5_000

    def churn() -> None:
        sim = Simulator()
        for i in range(n_events):
            sim.call_after(i % 97, lambda _: None)
        sim.run()

    def ping_pong() -> None:
        sim = Simulator()
        ping, pong = Event(sim, "ping"), Event(sim, "pong")

        def pinger():
            for _ in range(rounds):
                ping.notify()
                yield pong

        def ponger():
            for _ in range(rounds):
                yield ping
                pong.notify()

        sim.spawn(ponger())
        sim.spawn(pinger())
        sim.run()

    return {
        "sim.kernel_events_per_s":
            n_events / statistics.median(_timed(churn) for _ in range(5)),
        "sim.kernel_switches_per_s":
            2 * rounds / statistics.median(_timed(ping_pong)
                                           for _ in range(5)),
    }


def small_run(_stages) -> dict:
    """One resolved gpt_tiny decode step: the per-run fixed-cost floor."""
    config = get_preset(PRESET)
    chip = compile_step_template(build_model("gpt_tiny"), config).resolve(8)
    run_program(chip, config)  # blocker tables built
    return {"arch.small_run_ms":
            _median_call_ms(lambda: run_program(chip, config))}


def cost_estimate(stages) -> dict:
    """``CostModel().estimate`` on the compile points of the traced pass."""
    model = CostModel()
    return {"tune.cost_estimate_ms": statistics.median(
        _timed(lambda: model.estimate(compiled, config)) * 1e3
        for compiled, config in stages.compiled_points())}


def pool(_stages) -> dict:
    """A warm 2-worker pool against an in-process run of the same spec."""
    spec = JobSpec("lenet5", mapping="performance_first", fidelity="fast")
    with Engine(get_preset(PRESET), workers=2) as engine:
        start = time.perf_counter()
        for future in [engine.submit(spec) for _ in range(2)]:
            future.result(timeout=120)  # both workers up, compiled, answering
        spawn_s = time.perf_counter() - start
        trip_ms = _median_call_ms(
            lambda: engine.submit(spec).result(timeout=60))
        report = engine.run(spec)
        local_ms = _median_call_ms(lambda: engine.run(spec))
        stats = engine.pool_stats()
    return {
        "engine.pool_spawn_s": spawn_s,
        "engine.pool_roundtrip_ms": trip_ms,
        "engine.pool_overhead_ms": trip_ms - local_ms,
        "engine.report_pickle_bytes": len(pickle.dumps(report)),
        "engine.pool_respawns": stats["respawns"],
        "engine.pool_retries": stats["retries"],
    }


def store(_stages) -> dict:
    """fsync'd ``JobStore`` transitions on the benchmark's temp dir."""
    with Engine(get_preset(PRESET)) as engine:
        report = engine.run(JobSpec("lenet5", fidelity="fast")).to_dict()
    tmp = Path(tempfile.mkdtemp(prefix="store-", dir=served.scratch_dir()))
    try:
        journal = JobStore(tmp / "probe.jsonl")
        submit_s, settle_s = [], []
        try:
            for i in range(REPS):
                spec = JobSpec("lenet5", fidelity="fast", tag=i)
                job_id = spec.job_id()
                submit_s.append(_timed(
                    lambda: journal.submit(spec.to_dict(), job_id)))

                def settle() -> None:
                    journal.mark_running(job_id)
                    journal.settle(job_id, "done", report=report)
                settle_s.append(_timed(settle))
        finally:
            journal.close()
        size = (tmp / "probe.jsonl").stat().st_size
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "serve.store_submit_ms": statistics.median(submit_s) * 1e3,
        "serve.store_settle_ms": statistics.median(settle_s) * 1e3,
        "serve.store_bytes_per_job": size / REPS,
    }


def http_roundtrip(port: int) -> dict:
    """``GET /healthz`` on one keep-alive connection to the live server."""
    with served.Client(port, timeout=30.0) as client:
        client.request("GET", "/healthz")  # connection established
        return {"serve.http_roundtrip_ms":
                _median_call_ms(lambda: client.request("GET", "/healthz"))}


PROBES = {DSE: (cost_estimate,), ROB: (kernel,), DEC: (small_run,),
          SRV: (pool, store)}


def run_for(workload: str, stages) -> dict:
    """Every probe declared for ``workload`` (``http_roundtrip`` aside: it
    needs the live server, so the traced run calls it while one is up)."""
    values: dict = {}
    for probe in PROBES[workload]:
        values.update(probe(stages))
    return values
