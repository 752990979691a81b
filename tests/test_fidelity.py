"""Fast-fidelity executor (ROADMAP 3a): bounded error, one knob, same API.

``fidelity="fast"`` replaces each straight-line core's event-driven
processes with one analytic walker (``repro.arch.fast``).  Its contract:

* total cycles within 2% of cycle-accurate on every zoo model (the CI
  gate ``tools/check_fidelity.py`` sweeps the full zoo; here a
  representative cross-section runs under pytest);
* below the totals the two tiers agree *exactly*: both read each
  instruction's latency and energy from one cost table
  (``repro.arch.units.instruction_costs``), and this file gates what
  they schedule differently — every energy category (float
  reassociation only), per-core unit busy/ops/ROB-stall cycles and
  per-layer busy cycles, via ``tools/check_fidelity.py``'s
  ``breakdown_mismatches`` (the CI gate prints the same comparison);
* the same report shape, fault-tolerance behaviour and API surface —
  a fast job is just a job.
"""

import functools
import importlib.util
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import Engine, JobSpec, simulate
from repro.arch import run_program
from repro.compiler import compile_network, compile_step_template
from repro.config import (
    ConfigError,
    small_chip,
    tiny_chip,
    validate,
    with_param,
)
from repro.engine import JobPoisoned
from repro.models import build_model
from repro.sim import DeadlockError


def _load_check_fidelity():
    path = Path(__file__).parent.parent / "tools" / "check_fidelity.py"
    spec = importlib.util.spec_from_file_location("check_fidelity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


breakdown_mismatches = _load_check_fidelity().breakdown_mismatches

#: relative cycle tolerance of the fast executor (same bound as the CI
#: gate).  The walker is exact on the current zoo; the slack only covers
#: the documented pending-SEND-wait deviation.
TOLERANCE = 0.02

#: (model, config factory, attention_shards) cross-section: small CNN,
#: tiny-chip MLP, both transformers, and token-sharded variants.
POINTS = [
    ("mlp", tiny_chip, None),
    ("lenet5", tiny_chip, None),
    ("squeezenet", small_chip, None),
    ("vgg8", small_chip, None),
    ("vit_tiny", small_chip, None),
    ("vit_tiny", small_chip, 4),
    ("bert_tiny", small_chip, None),
    ("bert_tiny", small_chip, 4),
]


@functools.lru_cache(maxsize=None)
def _pair(model, config_factory, shards):
    """(cycle report, fast report) for one zoo point (simulated once)."""
    config = config_factory()
    cycle = simulate(model, config, attention_shards=shards)
    fast = simulate(model, config, attention_shards=shards,
                    fidelity="fast")
    return cycle, fast


class TestBoundedError:
    @pytest.mark.parametrize("model,config_factory,shards", POINTS,
                             ids=[f"{m}-sh{s or 1}" for m, _c, s in POINTS])
    def test_cycles_within_tolerance(self, model, config_factory, shards):
        cycle, fast = _pair(model, config_factory, shards)
        assert cycle.cycles > 0
        err = abs(fast.cycles - cycle.cycles) / cycle.cycles
        assert err <= TOLERANCE, (
            f"{model} shards={shards}: fast={fast.cycles} "
            f"cycle={cycle.cycles} err={err:.4%}")

    def test_decode_steps_within_tolerance(self):
        with Engine(small_chip()) as engine:
            cycle = engine.run(JobSpec("gpt_tiny", decode_steps=4))
            fast = engine.run(JobSpec("gpt_tiny", decode_steps=4,
                                      fidelity="fast"))
        err = abs(fast.cycles - cycle.cycles) / cycle.cycles
        assert err <= TOLERANCE
        assert fast.fidelity == "fast"
        assert fast.analytic_runs > 0  # summed across the 4 steps

    def test_energy_close(self):
        cycle, fast = _pair("vgg8", small_chip, None)
        assert not [line for line in breakdown_mismatches(cycle, fast)
                    if line.startswith("energy_pj")]


class TestBreakdownEqual:
    """fast == cycle below the totals (see the module docstring)."""

    @pytest.mark.parametrize("model,config_factory,shards", POINTS,
                             ids=[f"{m}-sh{s or 1}" for m, _c, s in POINTS])
    def test_zoo_point(self, model, config_factory, shards):
        cycle, fast = _pair(model, config_factory, shards)
        assert breakdown_mismatches(cycle, fast) == []

    def test_decode_step(self):
        config = validate(small_chip())
        step = compile_step_template(build_model("gpt_tiny"),
                                     config).resolve(8)
        assert breakdown_mismatches(
            run_program(step, config),
            run_program(step, config.with_fidelity("fast"))) == []

    def test_mismatches_are_reported(self):
        """The comparison itself: a perturbed copy must be flagged in
        every section, so an empty list really means equal."""
        cycle, fast = _pair("mlp", tiny_chip, None)
        core = next(iter(fast.per_core))
        layer = next(iter(fast.layer_busy))
        bent = SimpleNamespace(
            energy_pj={**fast.energy_pj,
                       "vector": fast.energy_pj["vector"] * 1.001},
            per_core={**fast.per_core, core: {
                **fast.per_core[core], "rob_stall_cycles": -1}},
            layer_busy={**fast.layer_busy, layer: {}})
        found = breakdown_mismatches(cycle, bent)
        assert [line.split("[")[0] for line in found] \
            == ["energy_pj", "per_core", "layer_busy"]


class TestSharedCoreContract:
    """Both tiers' cores report through one per-core ``stats()`` contract.

    The e2e harness reads ``rob_stall_cycles`` / ``hazard_stall_cycles``
    / ``queue_stall_cycles`` and ``unit_busy[...]`` from ``per_core``, so
    the key names are pinned here, not only compared across tiers.
    """

    KEYS = {"issued", "halt_time", "rob_stall_cycles", "hazard_stall_cycles",
            "queue_stall_cycles", "rob_peak", "unit_busy", "unit_ops"}
    UNITS = {"matrix", "vector", "transfer", "scalar"}

    def test_same_keys_and_values_on_one_program(self):
        config = validate(small_chip())
        program = compile_network(build_model("vgg8"), config).program
        cycle = run_program(program, config)
        fast = run_program(program, config.with_fidelity("fast"))
        assert fast.meta["analytic_runs"] > 0  # walker cores, not fallbacks
        assert set(fast.per_core) == set(cycle.per_core)
        for core, stats in cycle.per_core.items():
            walker = fast.per_core[core]
            assert set(stats) == set(walker) == self.KEYS
            for counts in ("unit_busy", "unit_ops"):
                assert set(stats[counts]) == set(walker[counts]) == self.UNITS
            assert walker == stats, core

    def test_max_cycles_diagnosis_counts_walker_issue(self):
        """A walker core stopped by ``max_cycles`` reports how far it got
        (its issue count is kept current at every kernel yield)."""
        _cycle, fast = _pair("vgg8", small_chip, None)
        with pytest.raises(DeadlockError, match="max_cycles") as info:
            simulate("vgg8", small_chip(), fidelity="fast",
                     max_cycles=fast.cycles // 2)
        issued = [int(n) for n in re.findall(r"issued=(\d+)/",
                                             str(info.value))]
        assert issued and all(n > 0 for n in issued), str(info.value)


class TestReportPlumbing:
    def test_cycle_is_the_default_and_unmarked(self):
        report = simulate("mlp", tiny_chip())
        assert report.fidelity == "cycle"
        assert report.analytic_runs == 0
        assert report.fallback_events == 0
        assert "fidelity" not in report.meta

    def test_fast_report_carries_counters(self):
        report = simulate("mlp", tiny_chip(), fidelity="fast")
        assert report.fidelity == "fast"
        assert report.analytic_runs > 0
        # every transfer instruction is a kernel fallback event
        assert report.fallback_events > 0
        data = report.to_dict()
        assert data["fidelity"] == "fast"
        assert data["meta"]["analytic_runs"] == report.analytic_runs

    def test_compile_cache_shared_across_fidelities(self):
        # config_fingerprint drops the sim section, so switching
        # fidelity must not recompile.
        with Engine(tiny_chip()) as engine:
            first = engine.run(JobSpec("mlp"))
            second = engine.run(JobSpec("mlp", fidelity="fast"))
        assert first.compile_cache_misses == 1
        assert second.compile_cache_misses == 1
        assert second.compile_cache_hits >= 1


class TestKnobPrecedence:
    def test_spec_overrides_engine_default(self):
        with Engine(validate(tiny_chip().with_fidelity("fast"))) as engine:
            defaulted = engine.run(JobSpec("mlp"))
            pinned = engine.run(JobSpec("mlp", fidelity="cycle"))
        assert defaulted.fidelity == "fast"
        assert pinned.fidelity == "cycle"

    def test_config_level_fidelity_applies(self):
        config = validate(tiny_chip().with_fidelity("fast"))
        assert simulate("mlp", config).fidelity == "fast"

    def test_invalid_config_fidelity_rejected(self):
        with pytest.raises(ConfigError, match="fidelity"):
            validate(tiny_chip().with_fidelity("approximate"))

    def test_invalid_spec_fidelity_rejected(self):
        with Engine(tiny_chip()) as engine:
            with pytest.raises(ConfigError, match="fidelity"):
                engine.run(JobSpec("mlp", fidelity="approximate"))


class TestFaultToleranceParity:
    """A fast job rides the same retry / quarantine machinery."""

    def test_fast_job_crash_is_retried(self):
        with Engine(validate(tiny_chip().with_fidelity("fast")),
                    max_retries=1) as engine:
            clean = engine.map([JobSpec("mlp", tag=i) for i in range(3)],
                               workers=2)
            chaos = [JobSpec("mlp", tag=0),
                     JobSpec("mlp", tag=1,
                             faults={"mode": "crash", "attempts": [0]}),
                     JobSpec("mlp", tag=2)]
            out = engine.map(chaos, workers=2, errors="capture")
            assert [r.cycles for r in out] == [r.cycles for r in clean]
            assert all(r.fidelity == "fast" for r in out)
            stats = engine.pool_stats()
            assert stats["retries"] >= 1
            assert stats["poisoned"] == 0

    def test_fast_job_poisons_identically(self):
        with Engine(tiny_chip(), max_retries=1) as engine:
            out = engine.map(
                [JobSpec("mlp", tag="a", fidelity="fast"),
                 JobSpec("mlp", tag="bad", fidelity="fast",
                         faults={"mode": "crash"}),
                 JobSpec("mlp", tag="c", fidelity="fast")],
                workers=2, errors="capture")
            assert out[0].cycles > 0 and out[0].fidelity == "fast"
            assert isinstance(out[1], JobPoisoned)
            assert out[2].cycles > 0 and out[2].fidelity == "fast"
            assert engine.pool_stats()["poisoned"] == 1


@pytest.mark.parametrize("fidelity", ["cycle", "fast"])
def test_vit_tiny_imagenet_on_the_small_chip_completes(fidelity):
    """Seed counterexample to the deadlock-freedom argument (DESIGN.md
    "Ring safety"): token tiles used to clamp onto every producer row of
    ``patch_embed``, and rings sized from the highest tile an item reads
    were too short for that span; the job deadlocked at cycle 276,844 at
    both fidelities."""
    with Engine(small_chip()) as engine:
        report = engine.run(JobSpec("vit_tiny", config=small_chip(),
                                    imagenet=True, fidelity=fidelity))
    assert report.cycles > 0


def test_resnet18_with_one_pixel_tiles_on_the_small_chip_completes():
    """Second seed counterexample, same cause: resnet18 with
    ``compiler.tile_pixels=1`` deadlocked on the small chip (the fast tier
    stopped at cycle 344,454) while input rings counted from the highest
    tile an item reads instead of the lowest."""
    config = with_param(small_chip(), "compiler.tile_pixels", 1)
    with Engine(config) as engine:
        report = engine.run(JobSpec("resnet18", config=config,
                                    fidelity="fast"))
    assert report.cycles > 0
