"""Whole-program codegen invariants across the zoo.

Heavier checks than the per-feature codegen tests: address-map
consistency, flow-window coverage, and per-layer instruction accounting,
run over several real networks and both mapping policies.
"""

import pytest

from repro.compiler import compile_network, n_tiles
from repro.isa import MvmInst, TransferInst
from repro.models import build_model
from tests.conftest import build_branch_net, build_residual_net


NETS = {
    "residual": build_residual_net,
    "branch": build_branch_net,
    "squeezenet": lambda: build_model("squeezenet"),
}


@pytest.fixture(params=list(NETS), scope="module")
def net_name(request):
    return request.param


@pytest.fixture(params=["performance_first", "utilization_first"],
                scope="module")
def mapping(request):
    return request.param


@pytest.fixture(scope="module")
def compiled(net_name, mapping, request):
    from repro.config import small_chip
    return compile_network(NETS[net_name](), small_chip().with_mapping(mapping))


class TestAddressMap:
    def test_instruction_ranges_inside_local_memory(self, compiled):
        from repro.config import small_chip
        limit = small_chip().core.local_memory_bytes
        for program in compiled.program.programs.values():
            for inst in program:
                for lo, hi in (*inst.reads_mem(), *inst.writes_mem()):
                    assert 0 <= lo < hi <= limit

    def test_mvm_destinations_stay_in_partial_or_acc_regions(self, compiled):
        """MVM writes never collide with input rings (would corrupt
        hazard semantics)."""
        for core, program in compiled.program.programs.items():
            in_ring_ranges = []
            for inst in program:
                if isinstance(inst, TransferInst) and inst.op in ("RECV",
                                                                  "LOAD"):
                    in_ring_ranges.append((inst.addr, inst.addr + inst.bytes))
            for inst in program:
                if not isinstance(inst, MvmInst):
                    continue
                dst = (inst.dst, inst.dst + inst.dst_bytes)
                for ring in in_ring_ranges:
                    assert not (dst[0] < ring[1] and ring[0] < dst[1]), \
                        f"core {core}: MVM dst {dst} overlaps input ring {ring}"


class TestFlowAccounting:
    def test_flow_bytes_consistent(self, compiled):
        chip = compiled.program
        for fid, sends in chip.sends_by_flow().items():
            info = chip.flows[fid]
            for send in sends:
                assert send.bytes <= info.bytes_per_message

    def test_flow_window_positive_and_bounded(self, compiled):
        chip = compiled.program
        for info in chip.flows.values():
            assert 1 <= info.window <= info.n_messages or info.n_messages == 0

    def test_recv_addresses_cycle_through_ring(self, compiled):
        """RECVs of one flow reuse exactly `window` distinct slots."""
        chip = compiled.program
        recvs = chip.recvs_by_flow()
        for fid, insts in recvs.items():
            info = chip.flows[fid]
            addrs = {i.addr for i in insts}
            assert len(addrs) <= max(info.window, 1)


def test_credit_window_equals_the_receiver_rings_live_slots():
    """A flow's credit window is exactly the ring slots its messages cycle
    through, on every golden compile point: a ``data`` flow's RECVs land
    in ``min(window, n_messages)`` distinct input-ring slots; ``partial``
    and ``shard`` gathers have window 2 and cycle through
    ``min(2, n_messages)`` slots of their ping-pong staging ring (the
    home core's RECV side for partial sums, the shard core's SEND side
    for token slices).  Flows with no messages carry no instruction."""
    from _compile_digests import compile_points

    checked, violations = 0, []
    for key, chip in compile_points():
        recvs = chip.recvs_by_flow()
        staged = {"data": recvs, "partial": recvs,
                  "shard": chip.sends_by_flow()}
        for fid, info in chip.flows.items():
            insts = staged[info.kind].get(fid, [])
            if info.kind != "data" and info.window != 2:
                violations.append((key, fid, info.kind, "window", info.window))
            want = min(info.window, info.n_messages)
            got = len({inst.addr for inst in insts})
            if got != want:
                violations.append((key, fid, info.kind, want, got))
            checked += 1
    assert checked > 0
    assert violations == []


def test_every_input_ring_holds_the_tiles_one_item_reads():
    """A ``RECV`` / ``LOAD`` port's ring must hold every producer tile one
    consumer item reads at once, ``max_t(req_t - lo_t + 1)`` slots;
    otherwise the item's first tiles are overwritten by its last ones
    (silent aliasing: no hazard, no deadlock, wrong data).  Rings sized
    from the highest tile an item reads failed it on lenet5 ``conv1``
    (LOAD 8 < 15) and ``conv2`` (RECV 9 < 11), alexnet ``conv1``
    (LOAD 8 < 12) and vit_tiny ``patch_embed`` (LOAD 8 < 16) on the small
    chip."""
    from repro.compiler import build_pipeline, map_network
    from repro.compiler.codegen import _CodeGenerator
    from repro.config import small_chip

    config = small_chip()
    short = []
    for net in ("lenet5", "alexnet", "vit_tiny"):
        pipeline = build_pipeline(build_model(net))
        gen = _CodeGenerator(pipeline, map_network(pipeline, config), config)
        gen.generate()
        deps = gen.deps
        for (stage, core), ports in gen.ports.items():
            for edge_idx, port in enumerate(ports):
                if port.op is None:
                    continue
                key = (stage, edge_idx)
                span = max(hi - lo + 1
                           for lo, hi in zip(deps.lo[key], deps.req[key]))
                if port.region.slots < span:
                    short.append((net, stage, core, port.op,
                                  port.region.slots, span))
    assert short == []


class _RingsShort(AssertionError):
    """The co-resident rings too shallow for one item, as known."""


#: (preset, network, consumer stage, ring slots, tiles one item needs),
#: sorted
_SHORT_CO_RESIDENT_RINGS = [
    ("paper", "googlenet", "pool3", 4, 5),
    ("paper", "googlenet", "pool4", 4, 5),
    ("paper", "resnet18", "s1b1_add", 6, 8),
    ("paper", "resnet18", "s1b2_add", 6, 8),
    ("paper", "squeezenet", "pool4", 4, 5),
    ("paper", "squeezenet", "pool8", 4, 5),
    ("small", "googlenet", "pool3", 4, 5),
]


@pytest.mark.xfail(strict=True, raises=_RingsShort, reason=(
    "co-resident output rings are sized from deps.lags, which counts from "
    "the highest tile an item reads"))
def test_every_co_resident_ring_holds_the_tiles_one_item_reads():
    """A co-resident port (``op is None``) reads the producer's output
    ring in place, so the ring must hold every producer tile from the
    lowest one an item reads to the last one emitted before it,
    ``min(skew + 1, producer tiles)`` slots.  Rings sized from ``lags``
    are short on the listed points; any other shortfall fails outright,
    and none at all turns this strict xfail into a failure."""
    from repro.compiler import build_pipeline, map_network
    from repro.compiler.codegen import _CodeGenerator
    from repro.config import paper_chip, small_chip
    from repro.models import MODELS

    short = []
    for preset, config in (("small", small_chip()), ("paper", paper_chip())):
        for net in sorted(MODELS):
            pipeline = build_pipeline(build_model(net))
            gen = _CodeGenerator(pipeline, map_network(pipeline, config),
                                 config)
            gen.generate()
            for (stage, _core), ports in gen.ports.items():
                for edge_idx, port in enumerate(ports):
                    if port.op is not None:
                        continue
                    producer = pipeline.stage(
                        pipeline.stage(stage).edges[edge_idx].producer)
                    span = min(gen.deps.skews[(stage, edge_idx)] + 1,
                               n_tiles(producer, gen.tile_pixels))
                    if port.region.slots < span:
                        short.append((preset, net, stage,
                                      port.region.slots, span))
    assert sorted(short) == _SHORT_CO_RESIDENT_RINGS
    raise _RingsShort(short)


class TestLayerAccounting:
    def test_every_compute_stage_has_mvms(self, compiled):
        chip = compiled.program
        mvm_layers = set()
        for program in chip.programs.values():
            for inst in program:
                if isinstance(inst, MvmInst):
                    mvm_layers.add(inst.layer)
        assert set(compiled.placement.plans) == mvm_layers

    def test_tile_counts_match_pipeline(self, compiled):
        """STOREs of the output stage = its tile count."""
        chip = compiled.program
        pipe = compiled.pipeline
        out_stage = pipe.output_stages[0]
        stores = [inst for p in chip.programs.values() for inst in p
                  if isinstance(inst, TransferInst) and inst.op == "STORE"]
        tp = chip.meta["tile_pixels"]
        assert len(stores) == n_tiles(out_stage, tp)
