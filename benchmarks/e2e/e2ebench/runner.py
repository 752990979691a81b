"""One run of one workload: untraced (end-to-end metrics) or traced
(per-layer metrics).  Both return a *run record* (a JSON-ready dict)."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from repro.config import get_preset
from repro.engine import Engine

from . import checks, probes, served
from .stats import pass_throughput, percentile, samples_beyond
from .tables import (
    E2E_METRICS,
    LAYER_METRICS,
    MIN_PASSES,
    P95_MIN_SAMPLES,
    contract_e2e_metrics,
    contract_layer_metrics,
)
from .tracing import Stages, Tracer, self_times
from .workloads import PRESET, Deadline, Outcome, make_workload

__all__ = ["run_untraced", "run_traced", "provenance", "contract_line",
           "SETUP_REPS", "TRACED_PASSES", "BASELINE_PASSES"]

#: set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: a traced run times this many untraced passes (the overhead baseline
#: and ``engine.run_warm_ms``), then this many traced ones.
BASELINE_PASSES = 3
TRACED_PASSES = 2
#: hard per-workload deadline beyond the measuring budget, in seconds.
DEADLINE_SLACK_S = 100.0


def provenance(seed: int) -> dict:
    """Where a record came from; unavailable fields carry a skip reason."""
    skipped = {}
    commit = None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"],
                              cwd=served.REPO_ROOT, capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
        else:
            skipped["commit"] = "not a git checkout"
    except (OSError, subprocess.TimeoutExpired) as exc:
        skipped["commit"] = f"git unavailable: {exc}"
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "seed": seed, "skipped": skipped}


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the package: the
    process-start share of ``setup_s``, measurable once per set-up.
    (No ``timeout=``: a timed ``wait`` polls in steps of up to 50 ms,
    which would quantise the reading.)"""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import repro.engine, repro.serve"],
                   env=served.child_env(), check=True)
    return time.perf_counter() - start


def _timed_setups(workload, seed: int):
    """Set up SETUP_REPS times; return the last state and each set-up's
    seconds (fresh-interpreter import + the workload's own set-up)."""
    seconds, state = [], None
    for _ in range(SETUP_REPS):
        if state is not None:
            workload.teardown(state)
        imported = import_seconds()
        start = time.perf_counter()
        state = workload.setup(seed)
        seconds.append(imported + time.perf_counter() - start)
    return state, seconds


def _timed_passes(workload, state, seed: int, seconds: float,
                  deadline: Deadline, *, max_passes: int | None = None):
    """Whole passes until the budget is spent (at least MIN_PASSES), or
    exactly ``max_passes`` of them."""
    outcomes: list[list[list[Outcome]]] = []
    walls: list[float] = []
    began = time.perf_counter()
    while not deadline.expired():
        lanes = workload.jobs(seed, len(walls))
        start = time.perf_counter()
        outcomes.append(workload.run_pass(state, lanes, deadline))
        walls.append(time.perf_counter() - start)
        if max_passes is not None:
            if len(walls) >= max_passes:
                break
            continue
        spent = time.perf_counter() - began
        # stop when the next pass would overshoot by more than half
        if len(walls) >= MIN_PASSES and \
                spent + 0.5 * statistics.median(walls) > seconds:
            break
    return outcomes, walls


def _value(metric, value: float) -> dict:
    return {"value": value, "unit": metric.unit}


def _flat(passes: list[list[list[Outcome]]]) -> list[Outcome]:
    """Every op of every client lane of every pass."""
    return [outcome for lanes in passes for lane in lanes
            for outcome in lane]


def _run_checks(workload, engine: Engine, seed: int,
                passes: list[list[list[Outcome]]]) -> tuple[float, int]:
    """All post-run output checks; returns ``(fast_vs_cycle_err_pct,
    dedupe hits)``."""
    flat = _flat(passes)
    checks.check_repeatable(flat)
    error = checks.check_fast_fidelity(engine, flat)
    dedupe = 0
    name = workload.decl.name
    if name == "decode_sessions":
        checks.check_decode_steps(engine, flat, seed)
    if name == "serve_small_http":
        dedupe = sum(checks.check_served(engine, lanes) for lanes in passes)
    return error, dedupe


def _reference_engine(state) -> Engine:
    """The engine the output checks compute their references on: the
    in-process workloads' own (still usable after ``close``, and its
    caches are warm), a fresh one beside the served workload."""
    return state if isinstance(state, Engine) else Engine(get_preset(PRESET))


def _simulated_totals(first_pass: list[Outcome]) -> tuple[int, float]:
    """Sum of cycles and energy (uJ) over one pass's computed jobs;
    repeat submissions are the store's answers, not simulations."""
    computed = [o for o in first_pass
                if o.view is not None and o.job.repeat_of is None]
    cycles = sum(o.view["cycles"] for o in computed)
    energy = math.fsum(o.view["energy_pj"] for o in computed) / 1e6
    return cycles, energy


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    """Set up, time whole passes for ``seconds``, check every output."""
    workload = make_workload(name)
    deadline = Deadline(seconds + DEADLINE_SLACK_S)
    state, setups = _timed_setups(workload, seed)
    skipped: dict[str, str] = {}
    try:
        passes, walls = _timed_passes(workload, state, seed, seconds,
                                      deadline)
        rss, reason = workload.peak_rss_mb(state)
        if reason:
            skipped["peak_rss_mb"] = reason
    finally:
        workload.teardown(state)
    if name == "serve_small_http" and state.exit_code != 0:
        for outcome in _flat(passes[-1:]):
            outcome.fail(f"pimsim serve exited {state.exit_code} on "
                         "SIGTERM, expected 0")
    error_pct, _dedupe = _run_checks(workload, _reference_engine(state),
                                     seed, passes)

    flat = _flat(passes)
    good = [o.wall_s * 1e3 for o in flat if o.error is None]
    failed = len(flat) - len(good)
    cycles, energy = _simulated_totals(_flat(passes[:1]))
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": pass_throughput(workload.decl.jobs_per_pass, walls),
        "job_wall_p50_ms": percentile(good, 50),
        "job_wall_p95_ms": percentile(good, 95),
        "sim_cycles": cycles,
        "sim_energy_uj": energy,
        "fast_vs_cycle_err_pct": error_pct,
        "peak_rss_mb": rss if rss is not None else 0.0,
        "failed_share": failed / len(flat),
    }
    notes = []
    if len(good) < P95_MIN_SAMPLES:
        notes.append(f"p95 has {samples_beyond(len(good), 95)} samples "
                     f"beyond it (< 10): {len(good)} samples in "
                     f"{len(walls)} passes")
    return {
        "workload": name, "traced": False, "seconds": seconds,
        "provenance": provenance(seed),
        "passes": len(walls), "pass_wall_s": walls,
        "samples": len(good), "attempted": len(flat), "failed": failed,
        "failures": sorted({o.error for o in flat if o.error})[:20],
        "setup_runs_s": setups, "skipped": skipped, "notes": notes,
        "metrics": {m.name: _value(m, values[m.name]) for m in E2E_METRICS},
    }


# -- traced run -------------------------------------------------------------------


def _median_ms(durations: list[float]) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0


def _span_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer timings from one traced run's spans (self time, medians)."""
    own = self_times(spans)
    by_name: dict[str, list[float]] = defaultdict(list)
    for span, self_s in zip(spans, own):
        by_name[span["name"]].append(self_s)
    runs = [s for s in spans if s["name"] == "run_program.warm"]
    firsts = {(s["program"], s["fidelity"]): s["end"] - s["start"]
              for s in spans if s["name"] == "run_program.first"}
    first_extra = [
        firsts[key] - (s["end"] - s["start"]) for s in runs
        if s["extra"] and (key := (s["program"], s["fidelity"])) in firsts]
    out = {
        "models.build_ms": _median_ms(by_name["build_model"]),
        "compiler.frontend_ms": _median_ms(by_name["build_pipeline"]),
        "compiler.mapping_ms": _median_ms(by_name["map_network"]),
        "compiler.codegen_ms": _median_ms(by_name["generate_code"]),
        "compiler.verify_ms": _median_ms(by_name["verify_program"]),
        "compiler.total_ms": _median_ms(
            [s["end"] - s["start"] for s in spans if s["name"] == "compile"]),
        "compiler.template_compile_ms": _median_ms(
            by_name["compile_step_template"]),
        "compiler.template_resolve_ms": _median_ms(
            by_name["StepTemplate.resolve"]),
        # calls that found every table cached cost microseconds and are
        # not the "fresh program" this metric is about
        "isa.static_blockers_ms": _median_ms(
            [t for t in by_name["static_blockers"] if t > 20e-6]),
        "arch.first_run_extra_ms": _median_ms(first_extra),
        "runner.report_build_ms": _median_ms(by_name["SimReport.from_raw"]),
        "runner.report_json_ms": _median_ms(by_name["report.to_json"]),
        "runner.report_json_bytes": statistics.median(
            [s["bytes"] for s in spans if s["name"] == "report.to_json"]
            or [0]),
    }
    for fidelity in ("cycle", "fast"):
        warm = [s for s in runs if s["fidelity"] == fidelity]
        total = sum(s["end"] - s["start"] for s in warm)
        insts = sum(s["instructions"] for s in warm)
        out[f"arch.run_{fidelity}_ms"] = _median_ms(
            [s["end"] - s["start"] for s in warm])
        out[f"arch.us_per_inst_{fidelity}"] = \
            total / insts * 1e6 if insts else 0.0
    return out


def _count(counters: dict, raw) -> None:
    """Add one run's modelled-component counters to ``counters``."""
    for core in raw.per_core.values():
        for stall in ("rob_stall", "hazard_stall", "queue_stall"):
            counters[f"arch.{stall}_cycles"] += core[f"{stall}_cycles"]
        for unit in ("matrix", "vector", "transfer"):
            counters[f"arch.unit_busy_{unit}_cycles"] += \
                core["unit_busy"][unit]
    counters["arch.noc_bytes"] += raw.noc["bytes"]
    counters["arch.noc_byte_hops"] += raw.noc["byte_hops"]
    counters["arch.gmem_bytes"] += raw.noc["gmem_read"] \
        + raw.noc["gmem_written"]
    counters["arch.flow_stalls"] += raw.flow_stalls
    counters["arch.fast_analytic_runs"] += \
        raw.meta.get("analytic_runs", 0)
    counters["arch.fast_fallback_events"] += \
        raw.meta.get("fallback_events", 0)


def _traced_pass(stages: Stages, jobs, *, cold: str | None) -> dict:
    """One pass of the job list through the benchmark-driven stages.

    Returns cycles by job key, the modelled-component counters summed
    over the pass, the fast-vs-cycle errors, and per job key the traced
    wall without its ``extra`` spans (what ``Engine.run`` would have
    done)."""
    if cold == "pass":
        stages.clear()
    spans = stages.tracer.spans
    out = {"cycles": {}, "counters": defaultdict(int), "errors": [],
           "walls": {}}
    for job in jobs:
        if job.repeat_of is not None:
            continue  # the store's answer, not a computation
        if cold == "job":
            stages.clear()
        at = len(spans)
        report, error = stages.run(
            job.spec, on_raw=lambda raw: _count(out["counters"], raw))
        out["cycles"][job.key] = report.cycles
        if error is not None:
            out["errors"].append(error)
        extra = sum(s["end"] - s["start"] for s in spans[at:] if s["extra"])
        out["walls"][job.key] = spans[at]["end"] - spans[at]["start"] - extra
    out["span_end"] = len(spans)
    return out


def _compile_counts(spans: list[dict], stats: dict) -> dict[str, float]:
    """Instructions emitted / compile rate over one cold pass, and the
    engine's cache hit ratios over the untraced passes."""
    points = [s for s in spans if s["name"] == "compile"]
    emitted = sum(s["instructions"] for s in points)
    seconds = sum(s["end"] - s["start"] for s in points)

    def ratio(hits: str, misses: str) -> float:
        lookups = stats.get(hits, 0) + stats.get(misses, 0)
        return stats.get(hits, 0) / lookups if lookups else 0.0

    return {
        "compiler.emitted_insts": emitted,
        "compiler.insts_per_s": emitted / seconds if seconds else 0.0,
        "compiler.cache_hit_ratio": ratio("hits", "misses"),
        "compiler.template_hit_ratio": ratio("template_hits",
                                             "template_misses"),
    }


def _engine_vs_stages(untraced_ms: dict[str, list[float]],
                      traced: dict, pass_walls: list[float],
                      ) -> tuple[dict[str, float], dict]:
    """``engine.*`` / ``trace.overhead_pct`` and the consistency record:
    the traced job walls against the untraced ``Engine.run`` ones."""
    ratios, overheads = [], []
    for key, wall in traced["walls"].items():
        base = statistics.median(untraced_ms[key])
        ratios.append(wall * 1e3 / base)
        overheads.append(base - wall * 1e3)
    traced_pass = sum(traced["walls"].values())
    untraced_pass = statistics.median(pass_walls)
    values = {
        "engine.run_warm_ms": statistics.median(
            [ms for series in untraced_ms.values() for ms in series]),
        "engine.overhead_ms": statistics.median(overheads),
        "trace.overhead_pct": (traced_pass / untraced_pass - 1.0) * 100.0,
    }
    consistency = {
        "traced_over_untraced_job_wall": {
            "median": statistics.median(ratios),
            "min": min(ratios), "max": max(ratios)},
        "traced_pass_s": traced_pass,
        "untraced_median_pass_s": untraced_pass}
    return values, consistency


def _served_values(tracer: Tracer, last_pass: list[Outcome],
                   flat: list[Outcome], dedupe: int,
                   pass_walls: list[float]) -> dict[str, float]:
    """Client-side spans of the last served pass and the ``serve.*``
    numbers read off them."""
    good = [o for o in last_pass if o.error is None]
    for outcome in good:
        job_id = outcome.job.spec.job_id()
        posted = outcome.started_at + outcome.post_s
        root = tracer.add("job", "serve", outcome.started_at,
                          outcome.started_at + outcome.wall_s, job=job_id)
        tracer.add("http_post", "serve", outcome.started_at, posted,
                   parent=root, job=job_id)
        tracer.add("result_wait", "serve", posted, posted + outcome.wait_s,
                   parent=root, job=job_id, polls=outcome.polls)
    return {
        "serve.http_post_ms": _median_ms([o.post_s for o in good]),
        "serve.result_wait_ms": _median_ms(
            [o.wait_s for o in good if o.job.repeat_of is None]),
        "serve.polls_per_job":
            statistics.mean(o.polls for o in good) if good else 0.0,
        "serve.dedupe_hits": dedupe,
        "serve.refused": sum(1 for o in flat if o.refused),
        # spans are synthesised after the fact, so the "traced" pass is
        # the last untraced one: this reads the pass-to-pass noise
        "trace.overhead_pct":
            (pass_walls[-1] / statistics.median(pass_walls[:-1]) - 1.0)
            * 100.0,
    }


def run_traced(name: str, seed: int) -> dict:
    """The per-layer run: a few untraced passes (the baseline the traced
    ones are compared with), the same job list driven stage by stage
    under the tracer, then the workload's layer probes."""
    workload = make_workload(name)
    is_served = name == "serve_small_http"
    deadline = Deadline(150.0)
    tracer = Tracer()
    values: dict[str, float] = {m.name: 0.0 for m in LAYER_METRICS}

    state = workload.setup(seed)
    try:
        passes, pass_walls = _timed_passes(
            workload, state, seed, 0.0, deadline,
            max_passes=BASELINE_PASSES + (1 if is_served else 0))
        if is_served:
            values.update(probes.http_roundtrip(state.port))
        stats = {} if is_served else workload.pass_compile_stats
    finally:
        workload.teardown(state)
    flat = _flat(passes)

    jobs = [job for lane in workload.jobs(seed, 0) for job in lane]
    stages = Stages(tracer, get_preset(PRESET))
    cold = None if is_served else workload.cold
    # rob_sweep_cycle compiles and warms in set-up: trace that pass too
    # (it is where this workload's compile spans come from)
    first = _traced_pass(stages, jobs, cold=None) \
        if name == "rob_sweep_cycle" else None
    # counts and walls come from the first traced pass; the later ones
    # only add samples to the span medians
    traced, *_ = [_traced_pass(stages, jobs, cold=cold)
                  for _ in range(TRACED_PASSES)]
    first = first or traced
    values.update(_span_metrics(tracer.spans))
    values.update(traced["counters"])
    values.update(_compile_counts(tracer.spans[:first["span_end"]], stats))

    error_pct, dedupe = _run_checks(workload, _reference_engine(state),
                                    seed, passes)
    untraced_ms: dict[str, list[float]] = defaultdict(list)
    for outcome in flat:
        mine = traced["cycles"].get(outcome.job.key)
        if outcome.view is not None and mine is not None \
                and outcome.view["cycles"] != mine:
            outcome.fail(f"stage-by-stage run reports {mine} cycles, "
                         f"Engine.run {outcome.view['cycles']}")
        if outcome.error is None and outcome.job.repeat_of is None:
            untraced_ms[outcome.job.key].append(outcome.wall_s * 1e3)
    failed = sum(1 for o in flat if o.error is not None)

    consistency: dict = {}
    if is_served:
        values.update(_served_values(tracer, _flat(passes[-1:]), flat,
                                     dedupe, pass_walls))
    elif all(key in untraced_ms for key in traced["walls"]):
        engine_values, consistency = _engine_vs_stages(untraced_ms, traced,
                                                       pass_walls)
        values.update(engine_values)
    values.update(probes.run_for(name, stages))
    values["fast_vs_cycle_err_pct"] = max([error_pct, *traced["errors"]])
    values["failed_share"] = failed / len(flat)

    skipped = {m.name: "probe runs on " + ", ".join(m.probe_on)
               for m in LAYER_METRICS
               if m.probe_on and name not in m.probe_on}
    span_file = served.scratch_dir() / f"trace_{name}_seed{seed}.json"
    tracer.write(span_file)
    return {
        "workload": name, "traced": True, "provenance": provenance(seed),
        "passes": len(pass_walls), "traced_passes": TRACED_PASSES,
        "attempted": len(flat), "failed": failed,
        "failures": sorted({o.error for o in flat if o.error})[:20],
        "span_file": str(span_file), "spans": len(tracer.spans),
        "consistency": consistency, "skipped": skipped,
        "metrics": {m.name: _value(m, float(values[m.name]))
                    for m in contract_layer_metrics()},
    }


def contract_line(record: dict) -> dict:
    """The driver-facing result: exactly correct/attempted/failed/metrics,
    the metrics being BENCHMARK.json's end_to_end (untraced) or per_layer
    (traced) set."""
    if record["traced"]:
        names = list(record["metrics"])
    else:
        names = [m.name for m in contract_e2e_metrics()]
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {n: record["metrics"][n] for n in names}}
