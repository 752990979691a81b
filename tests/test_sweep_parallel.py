"""Tests for sweeps over ``Engine.map`` and the compilation cache."""


from repro import JobSpec, default_engine, simulate
from repro.compiler import CompileCache, config_fingerprint
from repro.config import small_chip, tiny_chip
from repro.runner import compare_mappings, compare_with_baseline, sweep_rob
from tests.conftest import build_chain_net


def _fingerprint_reports(reports):
    return [(r.cycles, r.total_energy_pj, r.mapping) for r in reports]


class TestRunSweep:
    def test_serial_order_and_tags(self):
        config = tiny_chip()
        jobs = [JobSpec(build_chain_net(), config, rob_size=size, tag=size)
                for size in (1, 4)]
        reports = default_engine().map(jobs, workers=1)
        assert [r.meta["sweep_tag"] for r in reports] == [1, 4]
        assert reports[0].cycles >= reports[1].cycles

    def test_parallel_matches_serial(self):
        config = tiny_chip()
        jobs = [JobSpec(build_chain_net(), config, rob_size=size)
                for size in (1, 2, 4)]
        serial = default_engine().map(jobs, workers=1)
        parallel = default_engine().map(jobs, workers=2)
        assert _fingerprint_reports(serial) == _fingerprint_reports(parallel)

    def test_parallel_accepts_graph_and_name(self):
        config = small_chip()
        jobs = [JobSpec(build_chain_net(), config), JobSpec("vgg8", config)]
        reports = default_engine().map(jobs, workers=2)
        assert [r.network for r in reports] == ["chain", "vgg8"]

    def test_workers_none_uses_cpu_count(self):
        config = tiny_chip()
        reports = default_engine().map([JobSpec(build_chain_net(), config)],
                                       workers=None)
        assert len(reports) == 1


class TestSweepCrossProduct:
    def test_config_major_order(self):
        small, tiny = small_chip(), tiny_chip()
        networks = [build_chain_net()]
        reports = default_engine().map(
            [JobSpec(network, config)
             for config in (tiny, small) for network in networks], workers=1)
        assert [r.config_name for r in reports] == [tiny.name, small.name]

    def test_overrides_forwarded(self):
        reports = default_engine().map(
            [JobSpec(build_chain_net(), tiny_chip(),
                     mapping="utilization_first")], workers=1)
        assert reports[0].mapping == "utilization_first"


class TestFigureSweepsParallel:
    def test_sweep_rob_parallel_identical(self):
        net = build_chain_net()
        serial = sweep_rob(net, tiny_chip(), sizes=(1, 4), workers=1)
        parallel = sweep_rob(net, tiny_chip(), sizes=(1, 4), workers=2)
        assert ({k: v.cycles for k, v in serial.reports.items()}
                == {k: v.cycles for k, v in parallel.reports.items()})
        assert ({k: v.total_energy_pj for k, v in serial.reports.items()}
                == {k: v.total_energy_pj for k, v in parallel.reports.items()})

    def test_compare_mappings_parallel_identical(self):
        net = build_chain_net()
        serial = compare_mappings(net, tiny_chip(), workers=1)
        parallel = compare_mappings(net, tiny_chip(), workers=2)
        assert serial.utilization.cycles == parallel.utilization.cycles
        assert serial.performance.cycles == parallel.performance.cycles
        assert serial.latency_ratio == parallel.latency_ratio

    def test_compare_with_baseline_workers(self):
        cmp = compare_with_baseline(build_chain_net(), tiny_chip(), workers=2)
        assert cmp.ours.cycles > 0 and cmp.baseline_cycles > 0


class TestCompileCache:
    def test_repeated_simulate_hits(self):
        config = tiny_chip()
        net = build_chain_net()
        first = simulate(net, config)
        hits0, misses0 = first.compile_cache_hits, first.compile_cache_misses
        second = simulate(net, config)
        assert second.compile_cache_hits == hits0 + 1
        assert second.compile_cache_misses == misses0
        assert second.cycles == first.cycles
        assert default_engine().compile_stats()["entries"] >= 1

    def test_rob_size_shares_compilation(self):
        config = tiny_chip()
        net = build_chain_net()
        baseline = simulate(net, config, rob_size=1)
        swept = simulate(net, config, rob_size=8)
        assert swept.compile_cache_misses == baseline.compile_cache_misses
        assert swept.compile_cache_hits == baseline.compile_cache_hits + 1

    def test_mapping_change_recompiles(self):
        config = tiny_chip()
        # Graphs are content-addressed into the compile cache, so this
        # net must differ from every other test's chain net or an earlier
        # test's compilation would satisfy the miss this asserts on.
        net = build_chain_net(channels=24)
        perf = simulate(net, config, mapping="performance_first")
        util = simulate(net, config, mapping="utilization_first")
        assert util.compile_cache_misses == perf.compile_cache_misses + 1

    def test_cache_disabled_matches(self):
        config = tiny_chip()
        net = build_chain_net()
        cached = simulate(net, config)
        uncached = simulate(net, config, compile_cache=False)
        assert uncached.cycles == cached.cycles
        assert uncached.total_energy_pj == cached.total_energy_pj
        assert "compile_cache_hits" not in uncached.meta

    def test_fingerprint_normalizes_rob_and_sim(self):
        config = tiny_chip()
        assert (config_fingerprint(config)
                == config_fingerprint(config.with_rob_size(12)))
        assert (config_fingerprint(config)
                != config_fingerprint(config.with_mapping("utilization_first")))

    def test_eviction_bounds_entries(self):
        cache = CompileCache(maxsize=1)
        net = build_chain_net()
        cache.get_or_compile(net, tiny_chip())
        cache.get_or_compile(net, tiny_chip().with_mapping("utilization_first"))
        assert len(cache) == 1
        assert cache.stats()["misses"] == 2

    def test_distinct_graphs_do_not_collide(self):
        cache = CompileCache()
        net_a = build_chain_net(channels=8)
        net_b = build_chain_net(channels=16)
        ra = cache.get_or_compile(net_a, tiny_chip())
        rb = cache.get_or_compile(net_b, tiny_chip())
        assert ra is not rb
        assert cache.stats()["misses"] == 2
        assert cache.get_or_compile(net_a, tiny_chip()) is ra
