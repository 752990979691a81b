"""Public-API snapshot: pins the exported surface against silent drift.

If a PR intentionally changes the public surface, update the snapshots
here *in the same PR* — that is the point: the diff makes the surface
change visible and reviewed instead of accidental.
"""

import repro
import repro.engine
import repro.runner
import repro.serve

ROOT_ALL = [
    "ArchConfig",
    "Engine",
    "JobSpec",
    "MODELS",
    "SimReport",
    "__version__",
    "build_model",
    "compare_mappings",
    "compare_with_baseline",
    "compile_model",
    "default_engine",
    "get_preset",
    "mnsim_like_chip",
    "paper_chip",
    "simulate",
    "small_chip",
    "sweep_rob",
    "tiny_chip",
]

ENGINE_ALL = [
    "DecodeSession",
    "Engine",
    "InvalidJobSpec",
    "JobFailed",
    "JobPoisoned",
    "JobSpec",
    "JobTimeout",
    "PoolUnavailable",
    "WorkerPool",
    "default_engine",
    "load_specs",
    "resolve_engine",
    "save_specs",
]

RUNNER_ALL = [
    "BaselineComparison",
    "MappingComparison",
    "MixReport",
    "RobSweep",
    "SimReport",
    "compare_mappings",
    "compare_with_baseline",
    "compile_model",
    "simulate",
    "sweep_rob",
]

TUNE_ALL = [
    "Candidate",
    "CostEstimate",
    "CostModel",
    "OBJECTIVES",
    "TuneEntry",
    "TuneReport",
    "Tuner",
]

SERVE_ALL = [
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

#: every ``ServeService(...)`` parameter, in declaration order — what an
#: operator can set on a ``pimsim serve`` process besides its store.
SERVE_SERVICE_INIT_PARAMS = [
    "store",
    "config",
    "workers",
    "max_retries",
    "job_timeout",
    "max_backlog",
]

#: the ``GET /readyz`` payload (``ServeService.status()``), sorted.
READYZ_KEYS = [
    "backlog",
    "counts",
    "draining",
    "max_backlog",
    "pool",
    "ready",
]

#: the Engine's service surface; future PRs must not silently drop any.
ENGINE_METHODS = [
    "as_completed",
    "clear_caches",
    "close",
    "compile",
    "compile_for",
    "compile_stats",
    "decode_session",
    "map",
    "pool_size",
    "pool_stats",
    "resolve_network",
    "run",
    "serve_mix",
    "simulate",
    "step_template",
    "submit",
    "terminate",
]

#: every ``Engine(...)`` parameter, in declaration order — each one is
#: an independently settable value of every session.
ENGINE_INIT_PARAMS = [
    "config",
    "workers",
    "max_retries",
    "job_timeout",
    "fidelity",
]

#: every JobSpec field, in declaration order — the JSON schema of
#: ``pimsim batch`` / ``pimsim serve`` job files.
JOBSPEC_FIELDS = [
    "network",
    "config",
    "mapping",
    "rob_size",
    "imagenet",
    "batch",
    "max_cycles",
    "tag",
    "attention_shards",
    "timeout",
    "faults",
    "decode_steps",
    "kv_tokens",
    "fidelity",
]

#: every pool-telemetry key ``Engine.pool_stats()`` reports, pooled or
#: not — admission control and ``/readyz`` build on these.
POOL_STATS_KEYS = [
    "broken",
    "ewma_service_s",
    "in_flight",
    "poisoned",
    "queue_depth",
    "respawns",
    "retries",
    "size",
    "timeouts",
]


def test_root_all_pinned():
    assert sorted(repro.__all__) == ROOT_ALL


def test_engine_all_pinned():
    assert sorted(repro.engine.__all__) == ENGINE_ALL


def test_runner_all_pinned():
    assert sorted(repro.runner.__all__) == RUNNER_ALL


def test_root_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_engine_names_resolve():
    for name in repro.engine.__all__:
        assert getattr(repro.engine, name) is not None, name


def test_serve_all_pinned():
    assert sorted(repro.serve.__all__) == sorted(SERVE_ALL)


def test_tune_all_pinned():
    import repro.tune
    assert sorted(repro.tune.__all__) == sorted(TUNE_ALL)


def test_tune_names_resolve():
    import repro.tune
    for name in repro.tune.__all__:
        assert getattr(repro.tune, name) is not None, name


def test_serve_names_resolve():
    for name in repro.serve.__all__:
        assert getattr(repro.serve, name) is not None, name


def test_engine_service_surface():
    for name in ENGINE_METHODS:
        assert hasattr(repro.Engine, name), name


def test_pool_stats_keys_pinned():
    engine = repro.Engine(repro.tiny_chip())
    try:
        assert sorted(engine.pool_stats()) == POOL_STATS_KEYS
    finally:
        engine.close()


def test_engine_init_parameters_pinned():
    import inspect
    params = list(inspect.signature(repro.Engine.__init__).parameters)
    assert params == ["self"] + ENGINE_INIT_PARAMS


def test_serve_service_init_parameters_pinned():
    import inspect
    from repro.serve import ServeService
    params = list(inspect.signature(ServeService.__init__).parameters)
    assert params == ["self"] + SERVE_SERVICE_INIT_PARAMS


def test_readyz_keys_pinned(tmp_path):
    from repro.serve import JobStore, ServeService
    service = ServeService(JobStore(tmp_path / "store.jsonl", fsync=False))
    try:
        status = service.status()
    finally:
        service.close()
    assert sorted(status) == READYZ_KEYS
    assert sorted(status["pool"]) == POOL_STATS_KEYS


def test_jobspec_fields_pinned():
    from dataclasses import fields
    assert [f.name for f in fields(repro.JobSpec)] == JOBSPEC_FIELDS


def test_fidelities_pinned():
    """The fidelity enum is API surface: job files, CLI flags and the
    config schema all validate against it."""
    from repro.config import FIDELITIES
    assert FIDELITIES == ("cycle", "fast")


def test_simreport_carries_fidelity():
    from dataclasses import fields
    names = [f.name for f in fields(repro.SimReport)]
    assert "fidelity" in names
    for prop in ("analytic_runs", "fallback_events"):
        assert isinstance(getattr(repro.SimReport, prop), property), prop
