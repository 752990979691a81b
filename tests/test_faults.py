"""Chaos suite: every self-healing path of the supervised WorkerPool.

Faults are deterministic directives embedded in the JobSpec
(:mod:`repro.engine.faults`), so each recovery path — in-place respawn,
crash retry, poison quarantine, timeout watchdog, undecodable-result
condemnation, warm growth — is provoked on purpose and pinned, not left
to luck.  Directives trip only inside pool workers; the serial path is
immune by construction.
"""

import pytest

from repro import Engine, JobSpec
from repro.config import tiny_chip
from repro.engine import JobFailed, JobPoisoned, JobTimeout
from repro.engine.faults import (
    FAULT_MODES,
    FaultError,
    directive_for,
    trip,
)


def _engine(**kw):
    return Engine(tiny_chip(), **kw)


class TestDirectives:
    def test_no_faults_is_no_directive(self):
        assert directive_for(JobSpec("mlp"), 0) is None

    def test_attempt_filter(self):
        spec = JobSpec("mlp", faults={"mode": "raise", "attempts": [0]})
        assert directive_for(spec, 0) == spec.faults
        assert directive_for(spec, 1) is None

    def test_unfiltered_directive_applies_to_every_attempt(self):
        spec = JobSpec("mlp", faults={"mode": "raise"})
        for attempt in (0, 1, 5):
            assert directive_for(spec, attempt) == spec.faults

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="frobnicate"):
            directive_for(JobSpec("mlp", faults={"mode": "frobnicate"}), 0)

    def test_non_dict_directive_rejected(self):
        with pytest.raises(ValueError, match="dict"):
            directive_for(JobSpec("mlp", faults="crash"), 0)

    def test_trip_raise_mode(self):
        with pytest.raises(FaultError, match="injected"):
            trip({"mode": "raise"})

    def test_trip_none_is_noop(self):
        trip(None)

    def test_modes_are_pinned(self):
        assert FAULT_MODES == ("crash", "exit", "hang", "raise", "garbage")

    def test_serial_path_never_trips_faults(self):
        """In-process execution ignores directives — a chaos spec can
        never take down the caller."""
        with _engine() as eng:
            report = eng.simulate(JobSpec("mlp", faults={"mode": "raise"}))
            assert report.cycles > 0

    def test_faults_round_trip_through_json(self):
        spec = JobSpec("mlp", timeout=2.5,
                       faults={"mode": "crash", "attempts": [0]})
        assert JobSpec.from_json(spec.to_json()) == spec


class TestCrashRecovery:
    def test_sigkill_one_of_four_mid_batch(self):
        """The acceptance scenario: killing 1 of 4 workers mid-batch
        still yields N results, leaves the pool serviceable, and a second
        identical batch recompiles nothing on the surviving lanes."""
        specs = [JobSpec("mlp", tag=i) for i in range(8)]
        with _engine() as eng:
            warm = eng.map(specs, workers=4)
            pool = eng._pool
            # Job 1 (lane 1) SIGKILLs its worker on attempt 0 only.
            chaos = list(specs)
            chaos[1] = JobSpec("mlp", tag=1,
                               faults={"mode": "crash", "attempts": [0]})
            out = eng.map(chaos, workers=4, errors="capture")
            assert [r.cycles for r in out] == [r.cycles for r in warm]
            assert eng._pool is pool and not pool.broken
            stats = eng.pool_stats()
            assert stats["respawns"] == 1
            assert stats["retries"] >= 1
            assert stats["poisoned"] == 0
            # Third identical batch: every lane answers from its warm
            # cache — zero new compiles anywhere (lane 1's fresh worker
            # compiled during the chaos batch's retry).
            third = eng.map(specs, workers=4)
            assert [r.compile_cache_misses for r in third] == [1] * 8
            assert [r.cycles for r in third] == [r.cycles for r in warm]

    def test_exit_nonzero_is_a_crash_and_retries(self):
        with _engine() as eng:
            fut = eng.submit(JobSpec(
                "mlp", faults={"mode": "exit", "code": 3, "attempts": [0]}))
            assert fut.result(timeout=120).cycles > 0
            assert eng.pool_stats()["respawns"] == 1

    def test_job_raised_exception_is_never_retried(self):
        """A job that *raises* is a result, not a crash: original type
        re-raised, zero respawns, zero retries."""
        with _engine() as eng:
            fut = eng.submit(JobSpec("mlp", faults={"mode": "raise"}))
            with pytest.raises(FaultError):
                fut.result(timeout=120)
            stats = eng.pool_stats()
            assert stats["respawns"] == 0
            assert stats["retries"] == 0

    def test_respawn_survives_future_batches(self):
        """After healing, the pool keeps its deterministic dealing: a
        later batch still lands warm on every lane."""
        specs = [JobSpec("mlp", tag=i) for i in range(4)]
        with _engine() as eng:
            eng.map(specs, workers=2)
            eng.map([JobSpec("mlp", tag=0,
                             faults={"mode": "crash", "attempts": [0]}),
                     JobSpec("mlp", tag=1)], workers=2, errors="capture")
            after = eng.map(specs, workers=2)
            assert all(r.cycles > 0 for r in after)
            assert eng.pool_stats()["respawns"] == 1


class TestPoisonQuarantine:
    def test_poison_job_is_quarantined_not_retried_forever(self):
        with _engine() as eng:
            outcomes = eng.map(
                [JobSpec("mlp", tag="a"),
                 JobSpec("mlp", tag="bad", faults={"mode": "crash"}),
                 JobSpec("mlp", tag="c")],
                workers=3, errors="capture")
            assert outcomes[0].cycles > 0
            assert isinstance(outcomes[1], JobPoisoned)
            assert outcomes[1].kind == "JobPoisoned"
            assert "quarantined" in outcomes[1].message
            assert outcomes[2].cycles > 0
            stats = eng.pool_stats()
            assert stats["poisoned"] == 1
            # max_retries=1: initial attempt + one retry = 2 crashes.
            assert stats["respawns"] == 2
            assert not eng._pool.broken

    def test_max_retries_zero_quarantines_on_first_crash(self):
        with _engine(max_retries=0) as eng:
            fut = eng.submit(JobSpec("mlp", faults={"mode": "crash"}))
            with pytest.raises(JobPoisoned):
                fut.result(timeout=120)
            assert eng.pool_stats()["respawns"] == 1

    def test_poisoned_is_a_jobfailed(self):
        """Capture paths classify quarantine like any other job failure."""
        assert issubclass(JobPoisoned, JobFailed)
        assert issubclass(JobTimeout, JobFailed)

    def test_pool_serves_identically_after_quarantine(self):
        specs = [JobSpec("mlp", tag=i) for i in range(4)]
        with _engine() as eng:
            before = eng.map(specs, workers=2)
            eng.map([JobSpec("mlp", faults={"mode": "crash"})] + specs[1:],
                    workers=2, errors="capture")
            after = eng.map(specs, workers=2)
            assert [r.cycles for r in after] == [r.cycles for r in before]


class TestTimeouts:
    def test_hung_job_times_out_and_worker_respawns(self):
        with _engine() as eng:
            fut = eng.submit(JobSpec("mlp", timeout=0.4,
                                     faults={"mode": "hang",
                                             "seconds": 60.0}))
            with pytest.raises(JobTimeout, match="0.4"):
                fut.result(timeout=60)
            stats = eng.pool_stats()
            assert stats["timeouts"] == 1
            assert stats["respawns"] == 1
            # The lane healed: the next job on the pool completes.
            assert eng.submit(JobSpec("mlp")).result(timeout=120).cycles > 0

    def test_engine_default_timeout_applies(self):
        with _engine(job_timeout=0.4) as eng:
            fut = eng.submit(JobSpec("mlp",
                                     faults={"mode": "hang",
                                             "seconds": 60.0}))
            with pytest.raises(JobTimeout):
                fut.result(timeout=60)

    def test_spec_timeout_overrides_engine_default(self):
        """A generous spec timeout must win over a tight engine default:
        the job completes."""
        with _engine(job_timeout=0.2) as eng:
            fut = eng.submit(JobSpec("mlp", timeout=120.0))
            assert fut.result(timeout=120).cycles > 0
            assert eng.pool_stats()["timeouts"] == 0

    def test_fast_job_with_timeout_unaffected(self):
        with _engine() as eng:
            fut = eng.submit(JobSpec("mlp", timeout=120.0))
            assert fut.result(timeout=120).cycles > 0
            assert eng.pool_stats()["respawns"] == 0


class TestUndecodableResults:
    def test_garbage_result_condemns_worker_once_and_retries(self):
        """Garbage on a result pipe blames the running job and replaces
        the worker exactly once — no condemnation loop (regression for
        the old `remaining` leak) — and the retry succeeds."""
        with _engine() as eng:
            fut = eng.submit(JobSpec(
                "mlp", faults={"mode": "garbage", "attempts": [0]}))
            assert fut.result(timeout=120).cycles > 0
            stats = eng.pool_stats()
            assert stats["respawns"] == 1
            assert stats["retries"] == 1
            assert not eng._pool.broken
            # Further traffic on the same pool stays healthy.
            reports = eng.map([JobSpec("mlp", tag=i) for i in range(4)],
                              workers=2)
            assert all(r.cycles > 0 for r in reports)
            assert eng.pool_stats()["respawns"] == 1

    def test_always_garbage_job_is_quarantined(self):
        with _engine() as eng:
            fut = eng.submit(JobSpec("mlp", faults={"mode": "garbage"}))
            with pytest.raises(JobPoisoned):
                fut.result(timeout=120)


class TestGrowablePool:
    def test_grow_spawns_delta_keeping_warm_lanes(self):
        """Asking for more workers widens the pool in place: the original
        lanes keep their compile caches (zero new misses on their jobs)."""
        with _engine() as eng:
            two = eng.map([JobSpec("mlp", tag=i) for i in range(2)],
                          workers=2)
            pool = eng._pool
            four = eng.map([JobSpec("mlp", tag=i) for i in range(4)],
                           workers=4)
            assert eng._pool is pool
            assert pool.size == 4 and eng.pool_size == 4
            # Jobs 0/1 land on the original lanes: warm (1 old miss, new
            # hits); jobs 2/3 on the fresh lanes compile once.
            assert [r.compile_cache_misses for r in four] == [1, 1, 1, 1]
            assert four[0].compile_cache_hits == two[0].compile_cache_hits + 1
            assert four[1].compile_cache_hits == two[1].compile_cache_hits + 1
            assert [r.cycles for r in four[:2]] == [r.cycles for r in two]

    def test_grow_is_noop_when_not_wider(self):
        from repro.engine.pool import WorkerPool

        pool = WorkerPool(2, tiny_chip())
        try:
            pool.grow(1)
            pool.grow(2)
            assert pool.size == 2
            with pytest.raises(ValueError):
                pool.grow(0)
        finally:
            pool.close()

    def test_grow_after_close_rejected(self):
        from repro.engine.pool import PoolUnavailable, WorkerPool

        pool = WorkerPool(1, tiny_chip())
        pool.close()
        with pytest.raises(PoolUnavailable):
            pool.grow(2)


class TestTelemetry:
    def test_pool_stats_before_any_pool(self):
        with _engine() as eng:
            assert eng.pool_stats() == {
                "size": 0, "respawns": 0, "retries": 0,
                "timeouts": 0, "poisoned": 0, "broken": False,
                "queue_depth": 0, "in_flight": 0, "ewma_service_s": 0.0}

    def test_stats_keys_pinned(self):
        with _engine() as eng:
            eng.map([JobSpec("mlp"), JobSpec("mlp")], workers=2)
            assert sorted(eng.pool_stats()) == [
                "broken", "ewma_service_s", "in_flight", "poisoned",
                "queue_depth", "respawns", "retries", "size", "timeouts"]
