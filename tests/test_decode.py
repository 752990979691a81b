"""Autoregressive decode scenario: growable KV flows end-to-end.

Covers the decode extension at every layer: ``kv_cache`` shape
inference and executor semantics (numpy reference over a growing cache,
mirroring ``tests/test_attention.py``), the extent helpers
(:func:`kv_extent` / :func:`with_kv_extent`), compiler lowering
(capacity-sized cache allocation, extent-invariant program structure),
the step-reusable :class:`StepTemplate` (per-step programs *exactly*
equal to from-scratch compiles across 32+ extents), the Engine decode
driver and its zero-recompile counters, the continuous-batching
``serve_mix`` with p50/p99 latency distributions, the zero-work guards
in :mod:`repro.analysis`, and a golden trace pin for the decode path.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro import Engine, JobSpec, simulate
from repro.analysis import attention_share, op_class_breakdown, step_latency_stats
from repro.compiler import StepwiseError, compile_network, compile_step_template
from repro.compiler import stepwise
from repro.compiler.stepwise import PATCHABLE_FIELDS
from repro.config import small_chip, tiny_chip
from repro.engine import DecodeSession, load_specs, save_specs
from repro.engine.decode import aggregate_step_reports
from repro.graph import (
    GraphBuilder,
    GraphError,
    execute,
    kv_extent,
    random_weights,
    with_kv_extent,
)
from repro.isa import TransferInst, VerificationError, verify_program
from repro.models import DECODE_MODELS, MODELS, build_model, gpt_tiny
from repro.runner import MixReport
from repro.runner.results import nearest_rank


@pytest.fixture
def engine():
    with Engine(tiny_chip()) as eng:
        yield eng


def _decode_attn_graph(tokens, *, dim=8, heads=2, max_tokens=16):
    """Single attention-over-cache block: one query token, growing K/V."""
    b = GraphBuilder("dec", (dim, 1, 1))
    inp = b.current
    q = b.conv(dim, kernel=1, after=inp, name="q")
    k = b.conv(dim, kernel=1, after=inp, name="k")
    v = b.conv(dim, kernel=1, after=inp, name="v")
    kc = b.kv_cache(tokens, max_tokens=max_tokens, after=k, name="kcache")
    vc = b.kv_cache(tokens, max_tokens=max_tokens, after=v, name="vcache")
    scores = b.matmul(q, kc, transpose_b=True, heads=heads,
                      scale=(dim // heads) ** -0.5, name="scores")
    attn = b.softmax(heads=heads, after=scores, name="attn")
    b.matmul(attn, vc, heads=heads, name="ctx")
    return b.build()


class TestKvCacheShapes:
    def test_output_is_whole_cache(self):
        g = _decode_attn_graph(5)
        assert g.nodes["kcache"].output.shape == (8, 5, 1)
        assert g.nodes["scores"].output.shape == (2 * 5, 1, 1)
        assert g.nodes["ctx"].output.shape == (8, 1, 1)

    def test_max_tokens_defaults_to_tokens(self):
        b = GraphBuilder("d", (4, 1, 1))
        b.conv(4, kernel=1, name="k")
        b.kv_cache(3, name="c")
        g = b.build()
        assert g.nodes["c"].attr("max_tokens") == 3

    def test_rejects_multi_token_input(self):
        b = GraphBuilder("d", (4, 2, 1))
        b.conv(4, kernel=1, name="k")
        with pytest.raises(GraphError, match="one token per step"):
            b.kv_cache(3, name="c")
            b.build()

    def test_rejects_extent_over_capacity(self):
        b = GraphBuilder("d", (4, 1, 1))
        b.conv(4, kernel=1, name="k")
        with pytest.raises(GraphError, match="max_tokens"):
            b.kv_cache(9, max_tokens=4, name="c")
            b.build()

    def test_rejects_nonpositive_extent(self):
        b = GraphBuilder("d", (4, 1, 1))
        b.conv(4, kernel=1, name="k")
        with pytest.raises(GraphError, match="positive"):
            b.kv_cache(0, name="c")
            b.build()


class TestKvExtentHelpers:
    def test_kv_extent_reads_the_graph(self):
        assert kv_extent(_decode_attn_graph(5)) == (5, 16)
        assert kv_extent(build_model("gpt_tiny")) == (8, 64)

    def test_kv_extent_none_for_fixed_networks(self):
        assert kv_extent(build_model("mlp")) is None

    def test_with_kv_extent_advances_every_cache(self):
        g = _decode_attn_graph(5)
        g2 = with_kv_extent(g, 9)
        assert kv_extent(g2) == (9, 16)
        assert g2.nodes["kcache"].output.shape == (8, 9, 1)
        assert g2.nodes["vcache"].output.shape == (8, 9, 1)
        # the source graph is untouched
        assert kv_extent(g) == (5, 16)

    def test_with_kv_extent_bounds(self):
        g = _decode_attn_graph(5)
        with pytest.raises(GraphError, match="outside"):
            with_kv_extent(g, 17)
        with pytest.raises(GraphError, match="outside"):
            with_kv_extent(g, 0)
        with pytest.raises(GraphError, match="no kv_cache"):
            with_kv_extent(build_model("mlp"), 2)

    def test_gpt_tiny_validates_extent(self):
        with pytest.raises(ValueError, match="outside"):
            gpt_tiny(kv_tokens=80, max_kv_tokens=64)

    def test_gpt_tiny_registered_as_decode_model(self):
        assert "gpt_tiny" in DECODE_MODELS
        assert "gpt_tiny" in MODELS


class TestExecutorReference:
    """Numpy reference for a full autoregressive decode, step by step.

    Mirrors the einsum references of ``tests/test_attention.py``: keys
    and values accumulate in an independently-maintained cache; at every
    step the graph executor (extent advanced via ``with_kv_extent``,
    state threaded through ``execute``) must match attention computed
    from scratch over the reference cache.
    """

    def test_decode_matches_reference_cache(self):
        dim, heads, steps = 8, 2, 6
        g = _decode_attn_graph(1, dim=dim, heads=heads, max_tokens=16)
        weights = random_weights(g)
        wq = weights["q"][:, :, 0, 0]
        wk = weights["k"][:, :, 0, 0]
        wv = weights["v"][:, :, 0, 0]
        rng = np.random.default_rng(7)
        state: dict[str, np.ndarray] = {}
        ref_k: list[np.ndarray] = []
        ref_v: list[np.ndarray] = []
        for t in range(1, steps + 1):
            x = rng.normal(0.0, 1.0, (dim, 1, 1))
            vals = execute(with_kv_extent(g, t), x, weights=weights,
                           state=state)
            ref_k.append(wk @ x[:, 0, 0])
            ref_v.append(wv @ x[:, 0, 0])
            cache_k = np.stack(ref_k, axis=1)  # (dim, t)
            cache_v = np.stack(ref_v, axis=1)
            np.testing.assert_allclose(
                vals["kcache"], cache_k[:, :, None], atol=1e-12)
            np.testing.assert_allclose(
                vals["vcache"], cache_v[:, :, None], atol=1e-12)
            q = (wq @ x[:, 0, 0]).reshape(heads, dim // heads, 1)
            k = cache_k.reshape(heads, dim // heads, t)
            scores = np.einsum("hdn,hdm->hmn", q, k) * (dim // heads) ** -0.5
            np.testing.assert_allclose(
                vals["scores"], scores.reshape(heads * t, 1, 1), atol=1e-12)
            a = np.exp(scores)
            a = a / a.sum(axis=1, keepdims=True)
            ctx = np.einsum("hmn,hdm->hdn", a,
                            cache_v.reshape(heads, dim // heads, t))
            np.testing.assert_allclose(
                vals["ctx"], ctx.reshape(dim, 1, 1), atol=1e-12)
        # state carries the post-append caches for the next step
        assert state["kcache"].shape == (dim, steps, 1)

    def test_missing_past_defaults_to_zeros(self):
        g = _decode_attn_graph(4)
        vals = execute(g, np.ones((8, 1, 1)))
        np.testing.assert_array_equal(vals["kcache"][:, :3], 0.0)

    def test_stale_state_shape_rejected(self):
        g = _decode_attn_graph(4)
        state = {"kcache": np.zeros((8, 7, 1))}
        with pytest.raises(GraphError, match="cache state shape"):
            execute(g, np.ones((8, 1, 1)), state=state)


class TestCacheLowering:
    """Compiler lowering: capacity-sized buffers, extent-invariant code."""

    def test_cache_stages_allocated_at_capacity(self):
        result = compile_network(with_kv_extent(build_model("gpt_tiny"), 3),
                                 tiny_chip())
        pipeline = result.pipeline
        caches = [s for s in pipeline.stages if s.kind == "cache"]
        assert len(caches) == 4  # 2 layers x (K, V)
        for stage in caches:
            assert stage.extent_scaled
            assert stage.alloc_shape == (stage.out_channels, 64, 1)
            assert stage.alloc_pixels == 64
        assert pipeline.extent == 3
        assert pipeline.extent_capacity == 64

    def test_chip_meta_carries_the_extent(self):
        chip = compile_network(with_kv_extent(build_model("gpt_tiny"), 3),
                               tiny_chip()).program
        assert chip.meta["kv_extent"] == 3
        assert chip.meta["kv_capacity"] == 64

    def test_cache_appends_via_store_not_flows(self):
        chip = compile_network(with_kv_extent(build_model("gpt_tiny"), 3),
                               tiny_chip()).program
        cache_layers = {f"blk{i}_{kv}cache" for i in range(2)
                        for kv in "kv"}
        stores = [inst for prog in chip.programs.values()
                  for inst in prog.instructions
                  if isinstance(inst, TransferInst) and inst.op == "STORE"
                  and inst.layer in cache_layers]
        assert {inst.layer for inst in stores} == cache_layers
        # one token's worth of bytes per step, regardless of extent
        assert all(inst.bytes == stores[0].bytes for inst in stores)
        # no flow carries extent-scaled cache data
        flow_layers = {flow.layer for flow in chip.flows.values()}
        assert not (flow_layers & cache_layers)

    def test_program_structure_is_extent_invariant(self):
        g = build_model("gpt_tiny")
        cfg = tiny_chip()
        lo = compile_network(with_kv_extent(g, 3), cfg).program
        hi = compile_network(with_kv_extent(g, 40), cfg).program
        assert set(lo.programs) == set(hi.programs)
        assert set(lo.flows) == set(hi.flows)
        for core in lo.programs:
            a = lo.programs[core].instructions
            b = hi.programs[core].instructions
            assert len(a) == len(b)
            assert [type(i) for i in a] == [type(i) for i in b]

    def test_fixed_extent_transformer_unchanged(self):
        """The classic path stays bit-identical: no kv_cache, no extent."""
        result = compile_network(build_model("vit_tiny"), small_chip())
        assert result.pipeline.extent is None
        assert "kv_extent" not in result.program.meta


class TestStepTemplate:
    def test_requires_a_decode_graph(self):
        with pytest.raises(StepwiseError, match="no kv_cache"):
            compile_step_template(build_model("mlp"), tiny_chip())

    def test_resolve_bounds(self):
        template = compile_step_template(build_model("gpt_tiny"), tiny_chip())
        assert template.capacity == 64
        assert template.patched_field_count > 0
        with pytest.raises(StepwiseError, match="outside"):
            template.resolve(0)
        with pytest.raises(StepwiseError, match="outside"):
            template.resolve(65)

    def test_resolve_is_memoized(self):
        template = compile_step_template(build_model("gpt_tiny"), tiny_chip())
        assert template.resolve(5) is template.resolve(5)

    @pytest.mark.parametrize("shards", [None, 2])
    def test_every_extent_passes_full_verification(self, shards):
        """``resolve`` verifies nothing: the build verified extent 1 and
        capacity, and every patched field is affine and read by the
        verifier in linear bounds only — so each extent in between must
        pass the full verifier too."""
        cfg = small_chip()
        if shards is not None:
            cfg = cfg.replaced(compiler=dataclasses.replace(
                cfg.compiler, attention_shards=shards))
        template = compile_step_template(build_model("gpt_tiny"), cfg)
        patched = {fname for patches in template.inst_patches.values()
                   for _index, fname, _a, _b in patches}
        assert patched and patched <= set(PATCHABLE_FIELDS)
        for extent in range(1, template.capacity + 1):
            verify_program(template.resolve(extent), cfg)

    @staticmethod
    def _steepen(monkeypatch, fname, step):
        """Make the compiler add ``step * (extent - 1)`` to ``fname`` of one
        low-address LOAD (the same stream position at every probe).

        Instructions are values that codegen shares across positions, so
        the change is a new instance at that one position of a copied
        list; assigning to the field would patch every position holding
        the object."""
        real = stepwise.compile_network
        target = []

        def compile_steeper(graph, config, **kwargs):
            result = real(graph, config, **kwargs)
            extent = kv_extent(graph)[0]
            if not target:
                target.extend(next(
                    (core, index)
                    for core, prog in sorted(result.program.programs.items())
                    for index, inst in enumerate(prog.instructions)
                    if isinstance(inst, TransferInst) and inst.op == "LOAD"
                    and inst.addr + inst.bytes
                    <= config.core.local_memory_bytes // 2))
            core, index = target
            program = result.program.programs[core]
            insts = list(program.instructions)
            inst = insts[index]
            insts[index] = dataclasses.replace(inst, **{
                fname: getattr(inst, fname) + step * (extent - 1)})
            program.instructions = insts
            return result

        monkeypatch.setattr(stepwise, "compile_network", compile_steeper)

    def test_bound_broken_only_at_capacity_fails_the_build(self, monkeypatch):
        """A patched size that stays in local memory at every probe extent
        but overflows it at capacity is caught when the template is built,
        not by some later step."""
        cfg = tiny_chip()
        step = cfg.core.local_memory_bytes // 40  # +5% at probe 3, >150% at 64
        self._steepen(monkeypatch, "bytes", step)
        with pytest.raises(VerificationError, match="outside"):
            compile_step_template(build_model("gpt_tiny"), cfg)

    def test_varying_field_outside_the_patchable_set_fails_the_build(
            self, monkeypatch):
        self._steepen(monkeypatch, "addr", 64)
        with pytest.raises(StepwiseError, match="'addr'.*not one of"):
            compile_step_template(build_model("gpt_tiny"), tiny_chip())

    def test_resolved_fields_match_from_scratch_compile(self):
        """Every instruction field at a replay extent equals the program a
        from-scratch compile at that extent produces."""
        g = build_model("gpt_tiny")
        cfg = tiny_chip()
        template = compile_step_template(g, cfg)
        for extent in (8, 17, 39):
            ours = template.resolve(extent)
            ref = compile_network(with_kv_extent(g, extent), cfg).program
            assert ours.meta["kv_extent"] == extent
            for core in ref.programs:
                for mine, theirs in zip(ours.programs[core].instructions,
                                        ref.programs[core].instructions):
                    assert dataclasses.astuple(mine) == \
                        dataclasses.astuple(theirs), (core, extent)
            for fid in ref.flows:
                assert dataclasses.astuple(ours.flows[fid]) == \
                    dataclasses.astuple(ref.flows[fid])

    def test_replay_cycles_match_from_scratch_across_32_extents(self):
        """Acceptance pin: one compiled template replays 32+ decode steps
        with per-step cycle counts exactly equal to per-step from-scratch
        compiles."""
        from repro.arch import run_program
        g = build_model("gpt_tiny")
        cfg = tiny_chip()
        template = compile_step_template(g, cfg)
        for extent in range(8, 40):  # 32 extents
            ours = run_program(template.resolve(extent), cfg)
            ref_chip = compile_network(with_kv_extent(g, extent), cfg).program
            ref = run_program(ref_chip, cfg)
            assert ours.cycles == ref.cycles, extent


class TestEngineDecode:
    def test_run_decode_spec(self, engine):
        report = engine.run(JobSpec("gpt_tiny", decode_steps=32))
        decode = report.meta["decode"]
        assert decode["steps"] == 32
        assert decode["kv_tokens"] == 8
        assert len(decode["step_cycles"]) == 32
        assert report.cycles == sum(decode["step_cycles"])
        assert report.seconds == pytest.approx(sum(decode["step_seconds"]))
        # step 1 runs the same program a fixed-extent simulation would
        fixed = simulate(with_kv_extent(engine.resolve_network("gpt_tiny"), 8),
                         tiny_chip(), compile_cache=False)
        assert decode["step_cycles"][0] == fixed.cycles

    def test_zero_recompiles_after_step_one(self, engine):
        engine.run(JobSpec("gpt_tiny", decode_steps=32))
        stats = engine.compile_stats()
        assert stats["template_misses"] == 1
        assert stats["template_entries"] == 1
        # the template bypasses the program-level compile cache entirely
        assert stats["hits"] == 0 and stats["misses"] == 0
        # a second request at a different KV depth reuses the template
        engine.run(JobSpec("gpt_tiny", decode_steps=4, kv_tokens=20))
        stats = engine.compile_stats()
        assert stats["template_misses"] == 1
        assert stats["template_hits"] == 1

    def test_clear_caches_resets_template_state(self, engine):
        engine.run(JobSpec("gpt_tiny", decode_steps=2))
        engine.clear_caches()
        assert engine.compile_stats()["template_entries"] == 0
        assert engine.compile_stats()["template_misses"] == 0

    def test_template_cache_is_lru_bounded(self, engine):
        """A long-lived engine keeps at most the compile cache's number of
        templates; an evicted one is recompiled (a miss), not served."""
        engine._template_cache.maxsize = 1
        engine.step_template("gpt_tiny")
        engine.step_template("gpt_tiny", small_chip())
        stats = engine.compile_stats()
        assert stats["template_entries"] == 1
        assert stats["template_misses"] == 2
        engine.step_template("gpt_tiny")  # evicted by the small-chip one
        stats = engine.compile_stats()
        assert stats["template_entries"] == 1
        assert (stats["template_hits"], stats["template_misses"]) == (0, 3)

    def test_decode_rejects_batch(self, engine):
        with pytest.raises(ValueError, match="batch"):
            engine.run(JobSpec("gpt_tiny", decode_steps=2, batch=2))

    def test_decode_rejects_fixed_networks(self, engine):
        with pytest.raises(ValueError, match="kv_cache nodes"):
            engine.run(JobSpec("mlp", decode_steps=2))

    def test_session_steps_and_grows(self, engine):
        session = engine.decode_session("gpt_tiny")
        assert isinstance(session, DecodeSession)
        assert session.extent == 8
        first = session.step()
        assert first.meta["kv_extent"] == 8
        assert session.extent == 9
        agg = session.run(3)
        assert agg.meta["decode"]["steps"] == 3
        assert agg.meta["decode"]["kv_tokens"] == 9
        assert session.steps_run == 4
        assert [extent for extent, _ in session.history] == [8, 9, 10, 11]
        assert session.remaining_capacity == 64 - 12 + 1

    def test_sessions_share_one_template(self, engine):
        engine.decode_session("gpt_tiny")
        engine.decode_session("gpt_tiny", kv_tokens=20)
        stats = engine.compile_stats()
        assert stats["template_misses"] == 1
        assert stats["template_hits"] == 1

    def test_session_rejects_fixed_networks(self, engine):
        with pytest.raises(ValueError, match="kv_cache"):
            engine.decode_session("mlp")

    def test_session_rejects_extent_beyond_capacity(self, engine):
        with pytest.raises(ValueError, match="KV capacity of gpt_tiny"):
            engine.decode_session("gpt_tiny", kv_tokens=65)

    def test_decode_spec_roundtrips_through_job_files(self, tmp_path):
        spec = JobSpec("gpt_tiny", decode_steps=4, kv_tokens=2)
        save_specs([spec], tmp_path / "jobs.json")
        loaded = load_specs(tmp_path / "jobs.json")
        assert loaded == [spec]


class TestServeMix:
    def test_mixed_prefill_and_decode(self, engine):
        mix = engine.serve_mix([
            JobSpec("gpt_tiny", decode_steps=4, kv_tokens=4),
            JobSpec("mlp"),
            JobSpec("gpt_tiny", decode_steps=3),
        ])
        assert isinstance(mix, MixReport)
        assert mix.n_requests == 3
        assert mix.total_steps == 7
        assert len(mix.prefill_seconds) == 1
        assert mix.reports[0].meta["decode"]["steps"] == 4
        assert mix.reports[1].network == "mlp"
        assert mix.reports[2].meta["decode"]["kv_tokens"] == 8
        assert 0 < mix.p50_step_ms <= mix.p99_step_ms
        assert 0 < mix.tpot_ms
        summary = mix.summary()
        assert "p50" in summary and "p99" in summary

    def test_mix_matches_dedicated_decode_run(self, engine):
        """Interleaving requests does not change any request's latency —
        steps are independent simulations of the same resolved programs."""
        mix = engine.serve_mix([JobSpec("gpt_tiny", decode_steps=4)])
        alone = engine.run(JobSpec("gpt_tiny", decode_steps=4))
        assert mix.reports[0].meta["decode"]["step_cycles"] == \
            alone.meta["decode"]["step_cycles"]

    def test_mix_steps_replay_the_template(self, engine):
        """Decode units are one-step decode specs, so a mix compiles its
        network once — not one full program per KV extent."""
        mix = engine.serve_mix([JobSpec("gpt_tiny", decode_steps=16)],
                               workers=1)
        assert mix.total_steps == 16
        stats = engine.compile_stats()
        assert stats["misses"] == 0 and stats["entries"] == 0
        assert stats["template_misses"] == 1
        assert stats["template_hits"] == 15
        alone = engine.run(JobSpec("gpt_tiny", decode_steps=16))
        ours = mix.reports[0]
        assert ours.cycles == alone.cycles
        assert ours.energy_pj == alone.energy_pj
        assert ours.instructions == alone.instructions
        assert ours.meta["decode"]["kv_tokens"] == 8

    def test_to_dict_has_the_distribution(self, engine):
        mix = engine.serve_mix([JobSpec("gpt_tiny", decode_steps=2)])
        data = json.loads(mix.to_json())
        for key in ("n_requests", "total_steps", "p50_step_ms",
                    "p99_step_ms", "tpot_ms", "step_seconds"):
            assert key in data


class TestAnalysisGuards:
    def test_step_latency_stats_on_decode_report(self, engine):
        report = engine.run(JobSpec("gpt_tiny", decode_steps=5))
        stats = step_latency_stats(report)
        assert stats["steps"] == 5
        assert 0 < stats["p50_step_ms"] <= stats["p99_step_ms"]
        assert stats["tpot_ms"] == pytest.approx(stats["total_ms"] / 5)

    def test_step_latency_stats_zero_for_fixed_runs(self, engine):
        report = engine.run(JobSpec("mlp"))
        assert step_latency_stats(report) == {
            "steps": 0, "p50_step_ms": 0.0, "p99_step_ms": 0.0,
            "tpot_ms": 0.0, "total_ms": 0.0}

    def test_attention_share_guards_zero_work(self, engine):
        report = engine.run(JobSpec("mlp"))
        empty = dataclasses.replace(report, layer_busy={}, meta={})
        assert attention_share(empty) == 0.0
        assert op_class_breakdown(empty) == {}

    def test_nearest_rank(self):
        assert nearest_rank([], 50) == 0.0
        assert nearest_rank([10.0], 99) == 10.0
        assert nearest_rank([4.0, 1.0, 3.0, 2.0], 50) == 2.0
        assert nearest_rank([4.0, 1.0, 3.0, 2.0], 100) == 4.0
        with pytest.raises(ValueError):
            nearest_rank([1.0], 101)
        with pytest.raises(ValueError):
            nearest_rank([1.0], -1)

    def test_aggregate_requires_reports(self):
        with pytest.raises(ValueError, match="no step reports"):
            aggregate_step_reports([], kv_tokens=1)


GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "simulate_decode_small.json")
    .read_text())


class TestDecodeGolden:
    """Pin the decode replay path against a recorded trace (small_chip)."""

    def test_gpt_tiny_decode8_matches_golden(self):
        golden = GOLDEN["gpt_tiny_decode8"]
        with Engine(small_chip()) as eng:
            report = eng.run(
                JobSpec("gpt_tiny", decode_steps=len(golden["step_cycles"])))
        assert report.cycles == golden["cycles"]
        assert report.instructions == golden["instructions"]
        assert report.cores_used == golden["cores_used"]
        assert report.meta["decode"]["step_cycles"] == golden["step_cycles"]
        assert report.meta["decode"]["kv_tokens"] == golden["kv_tokens"]
        assert report.total_energy_pj == pytest.approx(
            golden["total_energy_pj"], rel=1e-12)
        for key, value in golden["noc"].items():
            assert report.noc[key] == value, key
