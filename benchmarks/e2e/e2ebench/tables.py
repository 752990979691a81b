"""Declared workloads and metrics — what the benchmark measures, as data.

Everything that names a workload or a metric reads these tables: the
runner (which numbers to produce), ``--compare`` (which bound applies),
the README tables and ``BENCHMARK.json`` (:func:`benchmark_json` renders
the file; ``test_harness.py`` pins the two against each other).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Metric", "WorkloadDecl", "WORKLOADS", "E2E_METRICS",
           "LAYER_METRICS", "RUN_SECONDS", "DEFAULT_SEED", "MIN_PASSES",
           "P95_MIN_SAMPLES", "benchmark_json", "e2e_metric",
           "contract_e2e_metrics", "contract_layer_metrics"]

#: seconds of timed passes per run (the ``--seconds`` default and
#: ``BENCHMARK.json``'s ``run_seconds``).
RUN_SECONDS = 20
DEFAULT_SEED = 11
#: a run always times at least this many passes, whatever the budget.
MIN_PASSES = 3
#: p95 needs >= 10 samples beyond it: 10 / 0.05.
P95_MIN_SAMPLES = 200


@dataclass(frozen=True)
class Metric:
    """One reported number: its unit, direction and regression bound.

    ``bound`` is the share of the base median a metric may worsen by;
    ``abs_floor`` widens it to an absolute amount (``setup_s``: 0.15 s);
    ``cap`` is a hard ceiling the value itself may never exceed.
    ``bound is None`` marks a per-layer metric (no bound).  ``layer`` and
    ``moves`` record, for per-layer metrics, the package measured and the
    end-to-end metric it is expected to move (README interaction list).
    """

    name: str
    unit: str
    better: str
    doc: str
    bound: float | None = None
    abs_floor: float = 0.0
    cap: float | None = None
    #: end-to-end metrics that can legitimately read 0 are printed and
    #: compared, but cannot carry a relative bound in BENCHMARK.json;
    #: the driver-facing output reports them with the per-layer set.
    may_be_zero: bool = False
    layer: str = ""
    moves: str = ""
    #: workloads whose traced run executes this metric's probe; empty for
    #: metrics derived from whatever spans/reports the traced pass made.
    probe_on: tuple[str, ...] = ()


@dataclass(frozen=True)
class WorkloadDecl:
    name: str
    #: one line: why this workload is in the benchmark (BENCHMARK.json).
    why: str
    what: str
    jobs_per_pass: int


WORKLOADS: tuple[WorkloadDecl, ...] = (
    WorkloadDecl(
        "dse_cold_fast",
        "every job is a compile-cache miss and a first run of a fresh "
        "program, so compiler + isa preparation dominate and the event "
        "model does ~15%; a simulate-only speed-up should barely move it",
        "17 distinct compile points on the small chip ({vgg8, vit_tiny, "
        "squeezenet, bert_tiny, alexnet, lenet5} x both mappings, "
        "{vit_tiny, bert_tiny} x attention_shards {2, 4}, resnet18 "
        "performance_first), Engine.run at fidelity=fast in-process, "
        "engine.clear_caches() before every pass",
        17),
    WorkloadDecl(
        "rob_sweep_cycle",
        "compile-cache hit ratio 1.0 and steady-state arch/sim event "
        "processing >= 95% of every job: kernel/ROB/NoC work shows here, "
        "compiler work predicts no change (bypass for dse_cold_fast)",
        "the paper's Fig. 4 sweep: {vgg8, vit_tiny} x rob_size "
        "{1,2,4,8,16,32} + resnet18 x {4,16} at fidelity=cycle, "
        "in-process; compile and one untimed warm pass are set-up",
        14),
    WorkloadDecl(
        "decode_sessions",
        "576 tiny programs per pass: StepTemplate.resolve instead of "
        "codegen and per-run fixed cost (chip construction, a blocker "
        "table per resolved program) dominate, so fatter set-up shows "
        "as a loss",
        "12 JobSpec('gpt_tiny', decode_steps=48, kv_tokens in 1..16) "
        "sessions per pass, 8 cycle + 4 fast, Engine.run in-process, "
        "engine.clear_caches() before every session so each one compiles "
        "its template and resolves its steps afresh",
        12),
    WorkloadDecl(
        "serve_small_http",
        "1-5 ms jobs behind a real pimsim serve subprocess: store fsync, "
        "HTTP, pool IPC and report serialisation are the whole latency, "
        "compiler/arch almost none",
        "python -m repro.runner.cli serve --workers 2 --preset small; 2 "
        "closed-loop keep-alive clients; per pass the 48 points {lenet5, "
        "mlp, gpt_tiny, bert_tiny} x mapping x rob_size at fidelity=fast "
        "plus 12 repeat submissions (20%) the store must answer without "
        "recomputing",
        60),
)

#: the 9 end-to-end metrics, reported per workload (host time unless the
#: doc says simulated).  The timing bounds are three times the widest
#: ten-seed interquartile spread measured on the 2-core shared VM this
#: was sized on (jobs_per_s 6.5%, p50 6.6%, p95 6.1% in quiet periods;
#: interference episodes there double pass times for a minute at a time).
E2E_METRICS: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower",
           "process start to first timed op: import, engine/server start, "
           "declared warm-ups (median of 3 set-ups per run)",
           bound=0.25, abs_floor=0.15),
    Metric("jobs_per_s", "jobs/s", "higher",
           "jobs in one pass / median pass wall", bound=0.20),
    Metric("job_wall_p50_ms", "ms", "lower",
           "per-job wall, submit -> validated report in the caller's hands",
           bound=0.20),
    Metric("job_wall_p95_ms", "ms", "lower",
           "same, nearest-rank p95 over the pooled samples", bound=0.25),
    Metric("sim_cycles", "cycles", "lower",
           "simulated: sum of reported cycles over one pass; deterministic, "
           "a simulator-only change must leave it identical", bound=1e-9),
    Metric("sim_energy_uj", "uJ", "lower",
           "simulated: sum of reported energy over one pass", bound=1e-9),
    Metric("fast_vs_cycle_err_pct", "%", "lower",
           "max over the fast jobs of |fast - cycle| / cycle against an "
           "untimed cycle-accurate run of the same spec; the model is "
           "unvalidated against silicon, so no hardware error is given",
           bound=0.0, abs_floor=0.1, cap=2.0, may_be_zero=True),
    Metric("peak_rss_mb", "MiB", "lower",
           "ru_maxrss of the benchmark process; serve: sum of VmHWM of "
           "the server and its workers", bound=0.10),
    Metric("failed_share", "fraction", "lower",
           "ops that raised, timed out, were refused or failed an output "
           "check / ops attempted", bound=0.0, may_be_zero=True),
)


def _layer(layer: str, moves: str, rows, probe_on=()) -> list[Metric]:
    return [Metric(f"{layer}.{name}", unit, better, doc, layer=layer,
                   moves=moves, probe_on=tuple(probe_on))
            for name, unit, better, doc in rows]


DSE, ROB, DEC, SRV = (w.name for w in WORKLOADS)

LAYER_METRICS: tuple[Metric, ...] = tuple(
    _layer("models", f"{DSE}.job_wall_p50_ms", [
        ("build_ms", "ms", "lower", "build_model per network"),
    ])
    + _layer("compiler", f"{DSE}.jobs_per_s, {DSE}.job_wall_p95_ms", [
        ("frontend_ms", "ms", "lower", "build_pipeline"),
        ("mapping_ms", "ms", "lower", "map_network"),
        ("codegen_ms", "ms", "lower", "generate_code"),
        ("verify_ms", "ms", "lower", "verify_program"),
        ("total_ms", "ms", "lower", "the four stages, per compile point"),
        ("emitted_insts", "count", "lower",
         "instructions emitted over one pass"),
        ("insts_per_s", "1/s", "higher", "emitted_insts / compile time"),
        ("cache_hit_ratio", "fraction", "higher",
         "Engine.compile_stats hits / lookups over the untraced passes"),
    ])
    + _layer("compiler", f"{DEC}.jobs_per_s", [
        ("template_compile_ms", "ms", "lower", "compile_step_template"),
        ("template_resolve_ms", "ms", "lower",
         "StepTemplate.resolve, first touch of an extent"),
        ("template_hit_ratio", "fraction", "higher",
         "Engine.compile_stats template hits / lookups"),
    ])
    + _layer("isa", f"{DSE}.jobs_per_s, {DEC}.jobs_per_s", [
        ("static_blockers_ms", "ms", "lower",
         "sum of Program.static_blockers(window) over a fresh program's "
         "cores"),
    ])
    + _layer("sim", f"{ROB}.jobs_per_s", [
        ("kernel_events_per_s", "1/s", "higher",
         "timer-wheel churn over repro.sim.Simulator"),
        ("kernel_switches_per_s", "1/s", "higher",
         "process ping-pong over repro.sim.Simulator"),
    ], probe_on=(ROB,))
    + _layer("arch", f"{ROB}.jobs_per_s (cycle); {DSE}, {SRV} (fast)", [
        ("run_cycle_ms", "ms", "lower", "warm run_program, cycle jobs"),
        ("run_fast_ms", "ms", "lower", "warm run_program, fast jobs"),
        ("first_run_extra_ms", "ms", "lower",
         "first run - warm run of the same program"),
        ("us_per_inst_cycle", "us", "lower",
         "warm cycle run / instructions"),
        ("us_per_inst_fast", "us", "lower", "warm fast run / instructions"),
    ])
    + _layer("arch", f"{DEC}.jobs_per_s", [
        ("small_run_ms", "ms", "lower",
         "run_program of one resolved gpt_tiny step: the per-run floor"),
    ], probe_on=(DEC,))
    + _layer("arch", "sim_cycles, sim_energy_uj, fast_vs_cycle_err_pct", [
        (name, unit, "lower", doc) for name, unit, doc in (
            ("rob_stall_cycles", "cycles", "ROB-full stalls, all cores"),
            ("hazard_stall_cycles", "cycles", "hazard stalls"),
            ("queue_stall_cycles", "cycles", "unit-queue stalls"),
            ("unit_busy_matrix_cycles", "cycles", "matrix unit busy"),
            ("unit_busy_vector_cycles", "cycles", "vector unit busy"),
            ("unit_busy_transfer_cycles", "cycles", "transfer unit busy"),
            ("noc_bytes", "bytes", "bytes sent over the mesh"),
            ("noc_byte_hops", "bytes", "bytes x hops"),
            ("gmem_bytes", "bytes", "global memory read + written"),
            ("flow_stalls", "cycles", "flow-window stall cycles"),
            ("fast_analytic_runs", "count",
             "straight-line runs the fast tier advanced analytically"),
            ("fast_fallback_events", "count",
             "instructions the fast tier sent through the event kernel "
             "(its wasted-attempt count)"),
        )
    ])
    + _layer("engine", f"{SRV}.job_wall_p50_ms, {SRV}.jobs_per_s", [
        ("run_warm_ms", "ms", "lower",
         "Engine.run per job over the untraced passes of the traced run"),
        ("overhead_ms", "ms", "lower",
         "Engine.run wall - sum of the direct stage calls, same spec"),
    ])
    + _layer("engine", f"{SRV}.setup_s, {SRV}.job_wall_p50_ms", [
        ("pool_spawn_s", "s", "lower", "2-worker pool up and answering"),
        ("pool_roundtrip_ms", "ms", "lower",
         "Engine.submit(spec).result(), warm pool, sequential"),
        ("pool_overhead_ms", "ms", "lower",
         "pool round trip - in-process run of the same spec"),
        ("report_pickle_bytes", "bytes", "lower",
         "pickled SimReport crossing the worker pipe"),
        ("pool_respawns", "count", "lower", "must be 0"),
        ("pool_retries", "count", "lower", "must be 0"),
    ], probe_on=(SRV,))
    + _layer("runner", f"{SRV}.job_wall_p50_ms", [
        ("report_build_ms", "ms", "lower", "SimReport.from_raw"),
        ("report_json_ms", "ms", "lower", "json.dumps(report.to_dict())"),
        ("report_json_bytes", "bytes", "lower", "that JSON's size"),
    ])
    + _layer("serve", f"{SRV}.job_wall_p50_ms, {SRV}.job_wall_p95_ms", [
        ("store_submit_ms", "ms", "lower", "fsync'd JobStore.submit"),
        ("store_settle_ms", "ms", "lower",
         "fsync'd mark_running + settle"),
        ("store_bytes_per_job", "bytes", "lower",
         "journal bytes per settled job"),
        ("http_roundtrip_ms", "ms", "lower", "GET /healthz, keep-alive"),
    ], probe_on=(SRV,))
    + _layer("serve", f"{SRV}.job_wall_p50_ms, {SRV}.job_wall_p95_ms", [
        ("http_post_ms", "ms", "lower", "POST /jobs to its 201/200"),
        ("result_wait_ms", "ms", "lower", "201 to the result's 200"),
        ("polls_per_job", "count", "lower", "GET .../result per job"),
        ("dedupe_hits", "count", "higher",
         "repeat submissions answered 200 from the store; must equal "
         "the generated repeat count"),
        ("refused", "count", "lower", "503s; must be 0 at this load"),
    ])
    + _layer("tune", "none directly (the before for ROADMAP item 2)", [
        ("cost_estimate_ms", "ms", "lower",
         "CostModel().estimate(compiled, config) per compile point"),
    ], probe_on=(DSE,))
    + _layer("trace", "harness", [
        ("overhead_pct", "%", "lower",
         "traced pass wall vs the untraced median pass of the same run"),
    ])
)


def e2e_metric(name: str) -> Metric:
    for metric in E2E_METRICS:
        if metric.name == name:
            return metric
    raise KeyError(name)


def contract_e2e_metrics() -> list[Metric]:
    """End-to-end metrics that are never 0, so can carry a relative bound."""
    return [m for m in E2E_METRICS if not m.may_be_zero]


def contract_layer_metrics() -> list[Metric]:
    """What ``--trace 1`` reports: the per-layer metrics, preceded by the
    end-to-end ones that can read 0 (``failed_share``,
    ``fast_vs_cycle_err_pct``) — a bound relative to a base of 0 means
    nothing, so they are enforced as output checks instead (see README)."""
    return [*(m for m in E2E_METRICS if m.may_be_zero), *LAYER_METRICS]


def benchmark_json() -> dict:
    """The content of the root ``BENCHMARK.json``, rendered from the tables."""
    def row(metric: Metric, bounded: bool) -> dict:
        entry = {"name": metric.name, "unit": metric.unit,
                 "better": metric.better}
        if bounded:
            entry["bound"] = metric.bound
        return entry

    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [row(m, True) for m in contract_e2e_metrics()],
        "per_layer": [row(m, False) for m in contract_layer_metrics()],
    }
