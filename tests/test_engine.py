"""Tests for the Engine/session service layer (repro.engine).

Covers the acceptance criteria of the engine redesign: engine-vs-legacy
bit-identical reports for every rebuilt sweep helper, warm-pool reuse
across back-to-back ``engine.map`` calls (zero recompiles on the second),
``as_completed`` ordering/tag fidelity, error capture, and cache isolation
between engines.
"""

import pytest

from repro import Engine, JobSpec, simulate
from repro.config import ConfigError, small_chip, tiny_chip
from repro.engine import JobFailed, default_engine
from repro.explore import explore
from repro.models import bert_tiny
from repro.runner import compare_mappings, compare_with_baseline, sweep_rob
from tests.conftest import build_chain_net


def _strip_counters(report) -> dict:
    """Report dict minus the process-history-dependent cache counters."""
    data = report.to_dict()
    for key in ("compile_cache_hits", "compile_cache_misses"):
        data["meta"].pop(key, None)
    return data


@pytest.fixture
def engine():
    with Engine(tiny_chip()) as eng:
        yield eng


class TestEngineSimulate:
    def test_matches_legacy_simulate_bit_identically(self):
        net = build_chain_net()
        with Engine() as eng:
            ours = eng.simulate(net, tiny_chip())
        legacy = simulate(net, tiny_chip())
        assert _strip_counters(ours) == _strip_counters(legacy)

    def test_accepts_spec_directly(self, engine):
        report = engine.simulate(JobSpec("mlp", tag="labelled"))
        assert report.network == "mlp"
        assert report.meta["sweep_tag"] == "labelled"

    def test_spec_with_extra_config_rejected(self, engine):
        with pytest.raises(TypeError):
            engine.simulate(JobSpec("mlp"), tiny_chip())

    def test_spec_with_stray_overrides_rejected(self, engine):
        """Overrides alongside a spec fail loudly, never silently drop."""
        with pytest.raises(TypeError, match="rob_size"):
            engine.simulate(JobSpec("mlp"), rob_size=8)

    def test_engine_default_config_applies(self, engine):
        assert engine.simulate("mlp").config_name == tiny_chip().name

    def test_spec_config_overrides_engine_default(self, engine):
        report = engine.simulate(JobSpec("mlp", small_chip()))
        assert report.config_name == small_chip().name

    def test_warm_caches_in_process(self, engine):
        first = engine.simulate("mlp")
        second = engine.simulate("mlp")
        assert second.compile_cache_misses == first.compile_cache_misses
        assert second.compile_cache_hits == first.compile_cache_hits + 1
        assert second.cycles == first.cycles


class TestAttentionShards:
    def test_override_equals_hand_built_config(self):
        net = bert_tiny(seq_len=32, depth=1)
        with Engine(small_chip()) as eng:
            via_spec = eng.simulate(net, attention_shards=2)
            via_config = eng.simulate(
                JobSpec(net, small_chip().with_attention_shards(2)))
        assert via_spec.cycles == via_config.cycles
        assert via_spec.total_energy_pj == via_config.total_energy_pj

    def test_invalid_shards_fail_loudly(self, engine):
        with pytest.raises(ConfigError):
            engine.simulate("mlp", attention_shards=999)

    def test_legacy_simulate_kwarg(self):
        net = bert_tiny(seq_len=32, depth=1)
        direct = simulate(net, small_chip(), attention_shards=2)
        explicit = simulate(net, small_chip().with_attention_shards(2))
        assert direct.cycles == explicit.cycles


class TestEngineIsolation:
    def test_engines_have_private_caches(self):
        net = build_chain_net()
        before = default_engine().compile_stats()
        with Engine() as a, Engine() as b:
            ra = a.simulate(net, tiny_chip())
            rb = b.simulate(net, tiny_chip())
            assert a.compile_stats()["misses"] == 1
            assert b.compile_stats()["misses"] == 1
        assert ra.cycles == rb.cycles
        assert default_engine().compile_stats() == before

    def test_default_engine_owns_private_caches(self):
        """The one-call surface runs on a plain Engine: its caches are
        its own, and a repeated point is a compile-cache hit on them."""
        eng = default_engine()
        assert eng is default_engine()
        with Engine() as other:
            assert eng._compile_cache is not other._compile_cache
            assert eng._models is not other._models
        net = build_chain_net(channels=12)
        first = simulate(net, tiny_chip())
        stats = eng.compile_stats()
        assert first.compile_cache_misses == stats["misses"]
        second = simulate(net, tiny_chip())
        assert second.compile_cache_hits == stats["hits"] + 1
        assert second.compile_cache_misses == stats["misses"]
        assert eng.compile_stats()["hits"] == stats["hits"] + 1

    def test_clear_caches(self, engine):
        engine.simulate("mlp")
        engine.clear_caches()
        assert engine.compile_stats() == {
            "hits": 0, "misses": 0, "entries": 0,
            "template_hits": 0, "template_misses": 0, "template_entries": 0}


class TestEngineMap:
    def test_order_and_tags(self, engine):
        specs = [JobSpec("mlp", rob_size=size, tag=size) for size in (1, 4)]
        reports = engine.map(specs, workers=1)
        assert [r.meta["sweep_tag"] for r in reports] == [1, 4]
        assert reports[0].cycles >= reports[1].cycles

    def test_parallel_matches_serial(self):
        specs = [JobSpec("mlp", rob_size=size) for size in (1, 2, 4)]
        with Engine(tiny_chip()) as serial_eng:
            serial = serial_eng.map(specs, workers=1)
        with Engine(tiny_chip()) as parallel_eng:
            parallel = parallel_eng.map(specs, workers=2)
        assert ([(r.cycles, r.total_energy_pj) for r in serial]
                == [(r.cycles, r.total_energy_pj) for r in parallel])

    def test_empty_batch(self, engine):
        assert engine.map([]) == []

    def test_warm_pool_zero_recompiles_on_second_map(self):
        specs = [JobSpec("mlp", rob_size=size) for size in (1, 4)]
        with Engine(tiny_chip()) as eng:
            first = eng.map(specs, workers=2)
            pool = eng._pool
            second = eng.map(specs, workers=2)
            # Same persistent pool, deterministically dealt: every worker
            # answers from its warm compile cache — zero new misses.
            assert eng._pool is pool
            assert eng.pool_size == 2
            assert ([r.compile_cache_misses for r in second]
                    == [r.compile_cache_misses for r in first])
            assert ([r.compile_cache_hits for r in second]
                    == [r.compile_cache_hits + 1 for r in first])
            assert ([r.cycles for r in second] == [r.cycles for r in first])

    def test_errors_capture(self, engine):
        outcomes = engine.map([JobSpec("mlp"), JobSpec("nosuch_net")],
                              errors="capture")
        assert outcomes[0].cycles > 0
        assert isinstance(outcomes[1], JobFailed)
        assert outcomes[1].kind == "KeyError"
        assert "nosuch_net" in outcomes[1].message

    def test_errors_raise_serial(self, engine):
        with pytest.raises(KeyError):
            engine.map([JobSpec("nosuch_net")], workers=1)

    def test_errors_raise_parallel_preserves_type(self):
        """The pool re-raises the worker's original exception type."""
        with Engine(tiny_chip()) as eng:
            with pytest.raises(KeyError):
                eng.map([JobSpec("nosuch_net"), JobSpec("mlp")], workers=2)

    def test_bad_errors_mode_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.map([JobSpec("mlp")], errors="ignore")


class TestAsCompleted:
    def test_serial_order_and_tags(self, engine):
        specs = [JobSpec("mlp", rob_size=size, tag=f"rob{size}")
                 for size in (1, 4)]
        seen = list(engine.as_completed(specs, workers=1))
        assert [index for index, _ in seen] == [0, 1]
        for index, report in seen:
            assert report.meta["sweep_tag"] == specs[index].tag

    def test_parallel_tag_fidelity(self):
        specs = [JobSpec("mlp", rob_size=size, tag=f"rob{size}")
                 for size in (1, 2, 4)]
        with Engine(tiny_chip()) as eng:
            seen = dict(eng.as_completed(specs, workers=2))
        assert sorted(seen) == [0, 1, 2]
        for index, report in seen.items():
            assert report.meta["sweep_tag"] == specs[index].tag

    def test_progress_callback(self, engine):
        specs = [JobSpec("mlp", rob_size=size) for size in (1, 4)]
        calls = []
        list(engine.as_completed(
            specs, workers=1,
            progress=lambda done, total, report: calls.append((done, total))))
        assert calls == [(1, 2), (2, 2)]

    def test_bad_errors_mode_rejected_at_call(self, engine):
        """Validation is eager — no generator that fails on first next()."""
        with pytest.raises(ValueError):
            engine.as_completed([JobSpec("mlp")], errors="oops")

    def test_capture_yields_failures(self, engine):
        outcomes = dict(engine.as_completed(
            [JobSpec("nosuch_net"), JobSpec("mlp")], workers=1,
            errors="capture"))
        assert isinstance(outcomes[0], JobFailed)
        assert outcomes[1].cycles > 0


class TestSubmit:
    def test_future_resolves(self):
        with Engine(tiny_chip()) as eng:
            future = eng.submit(JobSpec("mlp", tag="bg"))
            report = future.result(timeout=120)
        assert report.cycles > 0
        assert report.meta["sweep_tag"] == "bg"

    def test_failure_propagates_through_future(self):
        with Engine(tiny_chip()) as eng:
            future = eng.submit(JobSpec("nosuch_net"))
            with pytest.raises(KeyError):
                future.result(timeout=120)

    def test_pool_sized_by_engine_default_workers(self):
        with Engine(tiny_chip(), workers=2) as eng:
            futures = [eng.submit(JobSpec("mlp", rob_size=size))
                       for size in (1, 4)]
            reports = [f.result(timeout=120) for f in futures]
            assert eng.pool_size == 2
        assert [r.cycles for r in reports] == sorted(
            (r.cycles for r in reports), reverse=True)

    def test_submit_after_close_respawns_at_last_width(self):
        """A closed engine's next submit must not silently fork a pool
        wider than the session ever asked for."""
        eng = Engine(tiny_chip())
        eng.map([JobSpec("mlp"), JobSpec("mlp")], workers=2)
        eng.close()
        try:
            assert eng.submit(JobSpec("mlp")).result(timeout=120).cycles > 0
            assert eng.pool_size == 2
        finally:
            eng.close()

    def test_submit_reuses_existing_warm_pool(self):
        """A submit after map must not cold-restart the warm pool."""
        with Engine(tiny_chip(), workers=8) as eng:
            eng.map([JobSpec("mlp", rob_size=size) for size in (1, 4)],
                    workers=2)
            pool = eng._pool
            report = eng.submit(JobSpec("mlp")).result(timeout=120)
            assert report.cycles > 0
            assert eng._pool is pool
            assert eng.pool_size == 2


def _wait_until(predicate, timeout=20.0):
    import time
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


class TestPoolRobustness:
    def test_large_batch_backpressure(self):
        """A batch far larger than the task-pipe buffer must not deadlock:
        submits block on pipe backpressure while the collector keeps
        draining results (regression for send-under-lock)."""
        with Engine(tiny_chip()) as eng:
            specs = [JobSpec("mlp", tag=f"{i}-" + "x" * 1000)
                     for i in range(300)]
            reports = eng.map(specs, workers=2)
        assert [r.meta["sweep_tag"] for r in reports] == [s.tag
                                                          for s in specs]

    def test_dropped_engine_releases_idle_pool(self):
        """An Engine discarded without close() must not pin its idle
        workers for the rest of the process."""
        import gc

        eng = Engine(tiny_chip())
        eng.map([JobSpec("mlp"), JobSpec("mlp")], workers=2)
        pool = eng._pool
        del eng
        gc.collect()
        assert _wait_until(lambda: pool._closed)

    def test_remote_failure_carries_traceback(self):
        """A picklable worker-side exception still surfaces the remote
        traceback through capture records."""
        with Engine(tiny_chip()) as eng:
            outcomes = eng.map([JobSpec("nosuch_net"), JobSpec("mlp")],
                               workers=2, errors="capture")
        assert isinstance(outcomes[0], JobFailed)
        assert "Traceback" in (outcomes[0].details or "")

    def test_cancelled_future_does_not_kill_collector(self):
        """Cancelling a submitted future must not take the pool down:
        later jobs on the same pool still resolve."""
        with Engine(tiny_chip(), workers=1) as eng:
            cancelled = eng.submit(JobSpec("mlp"))
            cancelled.cancel()
            report = eng.submit(JobSpec("mlp", tag="after")).result(
                timeout=120)
            assert report.meta["sweep_tag"] == "after"
            assert not eng._pool.broken
            assert _wait_until(lambda: not eng._pool._pending)

    def test_unpicklable_spec_captured_without_poisoning_pool(self):
        """A spec that cannot cross the process boundary becomes one
        JobFailed record; the pool stays healthy and leaks no pending
        futures."""
        specs = [JobSpec("mlp", tag=lambda: 1), JobSpec("mlp", tag="ok")]
        with Engine(tiny_chip()) as eng:
            outcomes = eng.map(specs, workers=2, errors="capture")
            assert isinstance(outcomes[0], JobFailed)
            assert outcomes[1].meta["sweep_tag"] == "ok"
            assert not eng._pool.broken
            assert not eng._pool._pending
            # and the pool still works
            assert eng.map([JobSpec("mlp"), JobSpec("mlp")],
                           workers=2)[0].cycles > 0

    def test_pool_breakage_mid_dealing_is_captured(self, monkeypatch):
        """errors='capture' holds even when the pool breaks while the
        batch is still being dealt: queued jobs resolve, the rest become
        JobFailed records instead of aborting the whole batch."""
        with Engine(tiny_chip()) as eng:
            eng.map([JobSpec("mlp"), JobSpec("mlp")],
                    workers=2)  # build + warm the pool
            pool = eng._pool
            real_submit = pool.submit
            dealt = []

            def submit_then_break(spec, *, worker=None):
                if dealt:
                    raise RuntimeError("worker pool is broken (simulated)")
                dealt.append(spec)
                return real_submit(spec, worker=worker)

            monkeypatch.setattr(pool, "submit", submit_then_break)
            specs = [JobSpec("mlp", tag=i) for i in range(3)]
            outcomes = eng.map(specs, workers=2, errors="capture")
            assert outcomes[0].meta["sweep_tag"] == 0
            assert all(isinstance(o, JobFailed) for o in outcomes[1:])
            with pytest.raises(RuntimeError):  # default still raises
                eng.map(specs, workers=2)

    def test_worker_death_respawns_lane_and_retries_job(self):
        """A killed worker no longer condemns the pool: the lane is
        respawned in place and the in-flight job replays successfully."""
        from repro.engine.pool import WorkerPool

        pool = WorkerPool(1, tiny_chip())
        try:
            future = pool.submit(JobSpec("vgg8", small_chip()))
            pool._lanes[0].worker.terminate()
            report = future.result(timeout=120)
            assert report.cycles > 0
            assert not pool.broken
            assert pool.stats()["respawns"] >= 1
            # ...and the healed pool keeps serving.
            assert pool.submit(JobSpec("mlp")).result(timeout=120).cycles > 0
        finally:
            pool.close()

    def test_engine_keeps_pool_across_worker_death(self):
        """Self-healing means the engine never cold-restarts the pool on
        a worker crash — the same pool object answers the next batch."""
        specs = [JobSpec("mlp", rob_size=size) for size in (1, 4)]
        with Engine(tiny_chip()) as eng:
            healthy = eng.map(specs, workers=2)
            pool = eng._pool
            pool._lanes[0].worker.terminate()
            assert _wait_until(lambda: pool.stats()["respawns"] >= 1)
            reports = eng.map(specs, workers=2)  # same pool, same answers
            assert eng._pool is pool
            assert not pool.broken
            assert ([r.cycles for r in reports]
                    == [r.cycles for r in healthy])


class TestGraphMemo:
    """Content-addressed graph memoization: equal graph *content* shares
    one canonical graph, so the identity-keyed compile cache hits."""

    def test_equal_content_graphs_share_compiled_program(self):
        from repro.graph.serialize import graph_from_dict, graph_to_dict
        base = build_chain_net()
        twin = graph_from_dict(graph_to_dict(base))
        assert twin is not base
        with Engine(tiny_chip()) as eng:
            first = eng.run(JobSpec(base))
            second = eng.run(JobSpec(twin))
            stats = eng.compile_stats()
            assert stats["misses"] == 1, "one compile for both copies"
            assert stats["hits"] == 1, \
                "the twin graph must hit the first graph's cache entry"
        assert first.cycles == second.cycles

    def test_digest_tracks_content_not_identity(self):
        from repro.graph.serialize import graph_digest, graph_from_dict, \
            graph_to_dict
        base = build_chain_net()
        twin = graph_from_dict(graph_to_dict(base))
        other = build_chain_net(channels=16)
        assert graph_digest(base) == graph_digest(twin)
        assert graph_digest(base) != graph_digest(other)

    def test_clear_caches_drops_the_memo(self):
        base = build_chain_net()
        with Engine(tiny_chip()) as eng:
            eng.run(JobSpec(base))
            eng.clear_caches()
            assert eng._graph_memo == {}


class TestLegacyHelpersOnEngine:
    """Each rebuilt sweep helper: explicit engine == default-engine path."""

    def test_compare_mappings_parity(self):
        net = build_chain_net()
        legacy = compare_mappings(net, tiny_chip())
        with Engine() as eng:
            ours = compare_mappings(net, tiny_chip(), engine=eng)
        assert _strip_counters(ours.utilization) == _strip_counters(
            legacy.utilization)
        assert _strip_counters(ours.performance) == _strip_counters(
            legacy.performance)

    def test_sweep_rob_parity(self):
        net = build_chain_net()
        legacy = sweep_rob(net, tiny_chip(), sizes=(1, 4))
        with Engine() as eng:
            ours = sweep_rob(net, tiny_chip(), sizes=(1, 4), engine=eng)
        assert ({k: _strip_counters(v) for k, v in ours.reports.items()}
                == {k: _strip_counters(v) for k, v in legacy.reports.items()})

    def test_compare_with_baseline_parity(self):
        net = build_chain_net()
        legacy = compare_with_baseline(net, tiny_chip())
        with Engine() as eng:
            ours = compare_with_baseline(net, tiny_chip(), engine=eng)
        assert _strip_counters(ours.ours) == _strip_counters(legacy.ours)
        assert ours.baseline_cycles == legacy.baseline_cycles
        assert ours.baseline_comm_ratio == legacy.baseline_comm_ratio

    def test_explore_parity(self):
        space = {"core.rob_size": [1, 8]}
        legacy = explore("mlp", tiny_chip(), space)
        with Engine() as eng:
            ours = explore("mlp", tiny_chip(), space, engine=eng)
        assert ([(p.params, p.latency, p.energy) for p in ours.points]
                == [(p.params, p.latency, p.energy) for p in legacy.points])
        assert ours.failures == legacy.failures
