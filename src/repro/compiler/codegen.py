"""Code generation: placement + pipeline -> per-core instruction streams.

The generator walks *work items* — (stage, output tile) pairs — in a global
dependency-level order (:func:`~repro.compiler.tiling.dependences`) and
emits, on every participating core:

1. input acquisition — ``RECV`` new producer tiles (or ``LOAD`` from global
   memory; nothing for co-resident producers, whose output ring is read
   directly through local memory),
2. compute — per weight copy, per row block: one ``MVM`` through the
   crossbar group, double-buffered into a ping-pong partial region, then a
   ``VADD`` accumulation (so MVMs of adjacent row blocks overlap while the
   accumulation chain stays ordered),
3. gathering — cores holding only part of the weight matrix ``SEND`` their
   (partial) results to the stage's home core, which ``VADD``-merges them —
   the intra-layer communication that penalizes utilization-first mapping,
4. post-ops — fused relu / pool on the home core's vector unit, writeback
   into the stage's output ring,
5. distribution — ``SEND`` the output tile to every remote consumer core
   (``STORE`` to global memory for network outputs).

Cache stages (``kv_cache``) are the decode-scenario exception to the
flow machinery: the growing K/V buffer lives in *global memory*.  The
append is a one-token ``STORE`` from the producer's output ring; every
consumer ``LOAD``s the whole buffer back like a network input, so no
flow ever carries an extent-dependent message count.  Buffers of
extent-scaled stages are provisioned at ``Stage.alloc_shape`` (the
capacity), which keeps the local-memory map — and with it every emitted
address — identical across decode extents; only transfer byte counts
and vector lengths vary, affinely, with the extent
(:mod:`repro.compiler.stepwise` exploits exactly this).

Every emitted address comes from the :class:`~repro.compiler.allocator`
regions, so the dispatch stage's hazard detection operates on a consistent
memory map.  Timing-irrelevant layout details (exact cell offsets of
non-contiguous column groups) are approximated by contiguous ranges; see
DESIGN.md "codegen granularity".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import (
    ChipProgram,
    FlowInfo,
    GroupTable,
    Instruction,
    MvmInst,
    Program,
    TransferInst,
    VectorInst,
)
from .allocator import AllocatorSet, Region
from .frontend import CompileError, Pipeline, Stage, shard_tile_ranges
from .placement import Placement, StagePlan, assign_shard_groups, stage_homes
from .tiling import dependences, n_tiles, tile_pixel_range

__all__ = ["generate_code", "ACC_BYTES"]

#: accumulator precision in the local memory (partial sums).
ACC_BYTES = 4


@dataclass(frozen=True)
class _GroupRef:
    """Resolved crossbar group + layout info for one (copy, row_block)."""

    group_id: int
    cols_cells: int
    cell_offset: int
    rows: int


@dataclass(frozen=True)
class _Port:
    """How one receiver core acquires one input edge of a stage.

    ``op`` is ``"LOAD"`` (global memory into an input ring), ``"RECV"``
    (data flow ``flow`` from the producer's home ``peer`` into an input
    ring) or ``None`` (co-resident: ``region`` is the producer's output
    ring, read in place).  ``q_lo`` is the first producer tile the core
    pulls — the start of its slice of the stream when the consumer is
    token-sharded — and RECV sequence numbers count from it.
    """

    region: Region
    op: str | None
    peer: int
    flow: int
    q_lo: int


class _CodeGenerator:
    def __init__(self, pipeline: Pipeline, placement: Placement, config) -> None:
        self.pipeline = pipeline
        self.placement = placement
        self.config = config
        self.tile_pixels = config.compiler.tile_pixels
        self.act_bytes = config.compiler.activation_bytes
        self.window = config.noc.sync_window

        self.stages = {s.name: s for s in pipeline.stages}
        self.deps = dependences(pipeline, self.tile_pixels)
        self.home: dict[str, int | None] = stage_homes(pipeline, placement)
        self.receivers: dict[str, list[int]] = {}
        self.allocs = AllocatorSet(config.core.local_memory_bytes)
        self.group_tables: dict[int, GroupTable] = {}
        #: (stage, core, copy) -> [(row block, group)], ascending row block.
        self.copy_groups: dict[tuple[str, int, int],
                               list[tuple[int, _GroupRef]]] = {}
        #: (stage, receiver core) -> one port per input edge.
        self.ports: dict[tuple[str, int], list[_Port]] = {}
        self.out_regions: dict[str, Region] = {}
        self.acc_regions: dict[tuple[str, int], Region] = {}
        self.part_regions: dict[tuple[str, int, int], Region] = {}
        #: (stage, core) -> (staging ring, flow) of the core's gather to
        #: the stage's home: split-weight partial sums (the ring is on the
        #: home core) or a token shard's output tiles (the ring is on the
        #: shard core).
        self.gathers: dict[tuple[str, int], tuple[Region, int]] = {}
        self.flows: dict[int, FlowInfo] = {}
        #: producer -> its data flows as ``(consumer core, flow id, first
        #: tile, end tile)``, in declaration order (sharded consumers slice
        #: the producer stream; message seq = tile - first).
        self.sends: dict[str, list[tuple[int, int, int, int]]] = {}
        self.output_names = {s.name for s in pipeline.output_stages}
        self.programs: dict[int, Program] = {}
        # Token sharding of dynamic attention ops (attention_shards > 1):
        # stage -> shard cores (home first), per-shard tile ranges, and a
        # tile -> shard-index map.
        self.shard_groups: dict[str, list[int]] = {}
        self.shard_ranges: dict[str, list[tuple[int, int]]] = {}
        self.shard_owner: dict[str, list[int]] = {}
        #: (class, layer, every field in declaration order) -> the one
        #: instance of that value this compile emits (see :meth:`_intern`).
        self.values: dict[tuple, Instruction] = {}

    # ------------------------------------------------------------------ setup

    def _assign_shards(self) -> None:
        """Shard groups for dynamic attention ops (after homes are known):
        placement picks the cores, this derives the per-shard tile slices."""
        if self.config.compiler.attention_shards <= 1:
            return
        assign_shard_groups(self.pipeline, self.placement, self.config,
                            self.home, self.tile_pixels)
        self.shard_groups = self.placement.shard_groups
        for name, cores in self.shard_groups.items():
            stage = self.stages[name]
            ranges = shard_tile_ranges(n_tiles(stage, self.tile_pixels),
                                       len(cores))
            self.shard_ranges[name] = ranges
            owner: list[int] = []
            for s, (lo, hi) in enumerate(ranges):
                owner.extend([s] * (hi - lo))
            self.shard_owner[name] = owner

    def _assign_receivers(self) -> None:
        for stage in self.pipeline:
            if stage.kind == "input":
                self.receivers[stage.name] = []
            elif stage.kind == "compute":
                self.receivers[stage.name] = self.placement.plan(stage.name).cores
            elif stage.name in self.shard_groups:
                self.receivers[stage.name] = list(self.shard_groups[stage.name])
            else:
                self.receivers[stage.name] = [self.home[stage.name]]

    def _shard_range_of(self, stage: Stage, core: int) -> tuple[int, int]:
        """Tile slice a shard core owns of a sharded stage."""
        cores = self.shard_groups[stage.name]
        return self.shard_ranges[stage.name][cores.index(core)]

    def _tile_exec_core(self, stage: Stage, tile: int) -> int:
        """Core computing one output tile (home unless sharded away)."""
        cores = self.shard_groups.get(stage.name)
        if cores is None:
            return self.home[stage.name]
        return cores[self.shard_owner[stage.name][tile]]

    def _tile_bytes(self, stage: Stage, tile: int) -> int:
        lo, hi = tile_pixel_range(stage, self.tile_pixels, tile)
        return (hi - lo) * stage.out_channels * self.act_bytes

    def _nominal_tile_bytes(self, stage: Stage) -> int:
        """Buffer-slot size for one tile of a stage's output.

        Sized from the *allocation* shape: for extent-scaled stages of a
        decode pipeline that is the capacity, so slot sizes (and hence
        every downstream address) do not move with the decode extent.
        Classic stages have ``alloc == out`` and are unchanged.
        """
        if stage.kind == "cache":
            px = stage.alloc_pixels  # single whole-buffer tile
        else:
            px = min(self.tile_pixels, stage.alloc_pixels)
        return px * stage.alloc_channels * self.act_bytes

    def _edge_window(self, stage: Stage, edge_idx: int) -> int:
        """Input-ring depth for one consumer edge.

        The producer tiles from the lowest one an item reads to the last
        one emitted before it (``deps.skews``; for a LOAD edge, whose
        producer is not windowed, the ``req - lo`` span an item reads),
        plus the configured ``sync_window`` of slack; full-input consumers
        buffer the producer's entire output.  A RECV port's credit window
        is this depth capped at the messages its core receives
        (:meth:`_wire`).
        """
        edge = stage.edges[edge_idx]
        producer = self.stages[edge.producer]
        p_tiles = n_tiles(producer, self.tile_pixels)
        if edge.full_input:
            return p_tiles
        key = (stage.name, edge_idx)
        skew = self.deps.skews.get(key)
        if skew is None:  # a LOAD edge
            skew = max(hi - lo for lo, hi in zip(self.deps.lo[key],
                                                 self.deps.req[key]))
        # +4: the in-order-retire ROB lets a sender dispatch a few items
        # past a credit-blocked SEND before jamming; the window must cover
        # that lookahead on top of the structural skew.
        return min(p_tiles, skew + self.window + 4)

    def _out_ring_slots(self, stage: Stage) -> int:
        """Output ring depth on the home core.

        Must hold a tile until its last reader is done with it: remote
        consumers are covered by their flow window (the SEND holds the
        slot via WAR hazards), co-resident consumers read the ring
        directly, so the depth must span the level-order distance between
        the producer writing a tile and the consumer's item that reads it
        (``deps.lags``).
        """
        home = self.home[stage.name]
        depth = max(2, self.window)
        for consumer, edge_idx in self.deps.consumers[stage.name]:
            if home in self.receivers[consumer.name]:
                depth = max(depth, self.deps.lags[(consumer.name, edge_idx)])
            else:
                depth = max(depth, self._edge_window(consumer, edge_idx))
        return min(n_tiles(stage, self.tile_pixels), depth)

    def _build_groups(self) -> None:
        """Define crossbar groups per (stage, core, copy, row block)."""
        for stage in self.pipeline.compute_stages:
            plan = self.placement.plan(stage.name)
            tiling = plan.tiling
            global_off = self._global_cell_offsets(plan)
            for core in plan.cores:
                table = self.group_tables.setdefault(core, GroupTable(core))
                local_off = self._local_cell_offsets(plan, core)
                is_home = core == self.home[stage.name]
                offsets = global_off if is_home else local_off
                for copy in plan.copies_on(core):
                    rows_cols: dict[int, list[int]] = {}
                    for sl in plan.slices_on(core):
                        if sl.copy != copy:
                            continue
                        for r in range(sl.row_lo, sl.row_hi):
                            rows_cols.setdefault(r, []).extend(
                                range(sl.col_lo, sl.col_hi))
                    refs = self.copy_groups[(stage.name, core, copy)] = []
                    for r, col_blocks in sorted(rows_cols.items()):
                        col_blocks = sorted(set(col_blocks))
                        cols_cells = sum(tiling.block_cols(cb) for cb in col_blocks)
                        group = table.define(
                            layer=stage.name, copy=copy, row_block=r,
                            n_crossbars=len(col_blocks),
                            rows=tiling.block_rows(r), cols=cols_cells,
                        )
                        refs.append((r, _GroupRef(
                            group_id=group.group_id,
                            cols_cells=cols_cells,
                            cell_offset=offsets[col_blocks[0]],
                            rows=tiling.block_rows(r),
                        )))

    @staticmethod
    def _global_cell_offsets(plan: StagePlan) -> dict[int, int]:
        offsets, acc = {}, 0
        for cb in range(plan.tiling.col_blocks):
            offsets[cb] = acc
            acc += plan.tiling.block_cols(cb)
        return offsets

    @staticmethod
    def _local_cell_offsets(plan: StagePlan, core: int) -> dict[int, int]:
        present: set[int] = set()
        for sl in plan.slices_on(core):
            present.update(range(sl.col_lo, sl.col_hi))
        offsets, acc = {}, 0
        for cb in sorted(present):
            offsets[cb] = acc
            acc += plan.tiling.block_cols(cb)
        return offsets

    def _cells_on(self, stage: Stage, core: int) -> int:
        """Accumulator cells a core materializes for one output pixel.

        With bit-sliced weights each logical channel accumulates
        ``slices_per_weight`` physical partial products before the
        shift-add merge, so home-core accumulators scale accordingly
        (non-home counts are physical already via the tiling).
        """
        plan = self.placement.plan(stage.name)
        if core == self.home[stage.name]:
            return stage.out_channels * self.config.crossbar.slices_per_weight
        return plan.col_cells_on(core)

    def _flow(self, src: int, dst: int, stage: Stage, n_messages: int,
              nbytes: int, window: int, kind: str = "data") -> int:
        """Declare the next flow; ids count up in declaration order."""
        flow_id = len(self.flows)
        self.flows[flow_id] = FlowInfo(
            flow_id=flow_id, src_core=src, dst_core=dst, layer=stage.name,
            n_messages=n_messages, bytes_per_message=nbytes, window=window,
            kind=kind)
        return flow_id

    def _gather(self, stage: Stage, src: int, ring_core: int, name: str,
                nbytes: int, n_messages: int, kind: str) -> None:
        """A gather from ``src`` to the stage's home: a ping-pong staging
        ring on ``ring_core`` and the flow that fills it (partial sums,
        ring on the home core) or drains it (token shards, ring on the
        shard core), whose credit window is the ring's depth."""
        ring = self.allocs.core(ring_core).alloc(name, nbytes, 2)
        self.gathers[(stage.name, src)] = (ring, self._flow(
            src, self.home[stage.name], stage, n_messages, nbytes,
            ring.slots, kind))

    def _wire(self) -> None:
        """Reserve every local-memory region and declare every flow, one
        stage at a time, deterministically.

        Each (stage, edge, receiver core) gets a :class:`_Port`: a
        ``LOAD`` port an input ring, a co-resident port the producer's
        output ring, and a ``RECV`` port an input ring plus a data flow
        whose credit window is the ring's live slots for this core's
        stream.  Every cross-core gather gets its staging ring and flow
        together (:meth:`_gather`).
        """
        for stage in self.pipeline:
            if stage.kind == "input":
                continue
            sharded = stage.name in self.shard_groups
            for edge_idx, edge in enumerate(stage.edges):
                producer = self.stages[edge.producer]
                p_home = self.home[edge.producer]
                load = producer.kind in ("input", "cache")
                slot_bytes = self._nominal_tile_bytes(producer)
                slots = self._edge_window(stage, edge_idx)
                req = self.deps.req[(stage.name, edge_idx)]
                for core in self.receivers[stage.name]:
                    ports = self.ports.setdefault((stage.name, core), [])
                    if not load and p_home == core:
                        ports.append(_Port(self.out_regions[edge.producer],
                                           None, p_home, 0, 0))
                        continue
                    # Strided consumers may never touch the producer's
                    # last rows (e.g. 1x1 stride-2 projections) and a
                    # shard core only consumes its token slice, which
                    # starts past the previous shard's (``deps.req``
                    # is monotone, so the slices partition the stream; a
                    # full-input edge is broadcast whole to every shard):
                    # only ship what this core needs.
                    q_lo, q_hi = 0, req[-1] + 1
                    if sharded:
                        t_lo, t_hi = self._shard_range_of(stage, core)
                        q_hi = req[t_hi - 1] + 1
                        if t_lo and not edge.full_input:
                            q_lo = req[t_lo - 1] + 1
                    region = self.allocs.core(core).alloc(
                        f"in:{stage.name}:{edge_idx}", slot_bytes, slots)
                    if load:
                        ports.append(_Port(region, "LOAD", 0, 0, q_lo))
                        continue
                    flow = self._flow(p_home, core, stage, q_hi - q_lo,
                                      slot_bytes, min(q_hi - q_lo, slots))
                    self.sends.setdefault(edge.producer, []).append(
                        (core, flow, q_lo, q_hi))
                    ports.append(_Port(region, "RECV", p_home, flow, q_lo))
            home = self.home[stage.name]
            # compute scratch, and the partial-sum gathers of split weights
            if stage.kind == "compute":
                plan = self.placement.plan(stage.name)
                cpp = stage.compute_per_pixel
                px = min(self.tile_pixels, stage.out_pixels)
                for core in plan.cores:
                    cells = self._cells_on(stage, core)
                    self.acc_regions[(stage.name, core)] = self.allocs.core(core).alloc(
                        f"acc:{stage.name}", px * cpp * cells * ACC_BYTES, 1)
                    copy_px = -(-px // plan.copies)  # ceil
                    for copy in plan.copies_on(core):
                        refs = self.copy_groups[(stage.name, core, copy)]
                        if not refs:
                            continue
                        max_gcols = max(ref.cols_cells for _r, ref in refs)
                        # One partial slot per row block (capped): MVMs of a
                        # tile land in distinct slots and can all be in
                        # flight at once — the ROB, not the buffer, bounds
                        # the overlap (Fig. 4).  Eight slots exceed any
                        # per-copy overlap a <=16-entry ROB can sustain.
                        slots = min(len(refs), 8)
                        self.part_regions[(stage.name, core, copy)] = (
                            self.allocs.core(core).alloc(
                                f"part:{stage.name}:{copy}",
                                copy_px * cpp * max_gcols * ACC_BYTES, slots))
                for partner in plan.cores:
                    if partner == home:
                        continue
                    cells = self._cells_on(stage, partner)
                    self._gather(stage, partner, home,
                                 f"prec:{stage.name}:{partner}",
                                 px * cpp * cells * ACC_BYTES,
                                 n_tiles(stage, self.tile_pixels), "partial")
            # Token-sharded dynamic ops: a shard's finished tile parks in
            # its staging ring until the gather SEND drains it to the home
            # core's output ring (the split-conv gather pattern, minus the
            # VADD — token slices are disjoint, not partial sums).
            if sharded:
                for core, (t_lo, t_hi) in zip(self.shard_groups[stage.name],
                                              self.shard_ranges[stage.name]):
                    if core == home:
                        continue
                    self._gather(stage, core, core, f"sout:{stage.name}",
                                 self._nominal_tile_bytes(stage),
                                 t_hi - t_lo, "shard")
            # output ring on the home core (cache stages have none: the
            # buffer lives in global memory; consumers LOAD it back)
            if stage.kind == "cache":
                continue
            self.out_regions[stage.name] = self.allocs.core(home).alloc(
                f"out:{stage.name}", self._nominal_tile_bytes(stage),
                self._out_ring_slots(stage))

    def _program(self, core: int) -> Program:
        if core not in self.programs:
            self.programs[core] = Program(core)
        return self.programs[core]

    # -------------------------------------------------------------- emission

    def _intern(self, key: tuple) -> Instruction:
        """The instruction ``key[0](*key[2:], layer=key[1])``, built once
        per compile: an instruction is a value, so every position and core
        emitting an equal one shares the object (DESIGN.md "An instruction
        is a value").  Keys are positional tuples because one built from a
        keyword dict costs more than the object it saves."""
        inst = self.values.get(key)
        if inst is None:
            inst = self.values[key] = key[0](*key[2:], layer=key[1])
        return inst

    def _mvm(self, *, group, src, src_bytes, dst, dst_bytes, count,
             layer) -> MvmInst:
        return self._intern((MvmInst, layer, group, src, src_bytes, dst,
                             dst_bytes, count))

    def _vector(self, *, op, src1, dst, length, src_bytes, dst_bytes, layer,
                src2=0, src2_bytes=0) -> VectorInst:
        return self._intern((VectorInst, layer, op, src1, src2, dst, length,
                             src_bytes, dst_bytes, src2_bytes))

    def _transfer(self, *, op, peer, addr, bytes, flow, seq,
                  layer) -> TransferInst:
        return self._intern((TransferInst, layer, op, peer, addr, bytes,
                             flow, seq))

    def generate(self) -> ChipProgram:
        self._assign_shards()
        self._assign_receivers()
        self._build_groups()
        self._wire()

        for stage, tile in self.deps.order:
            self._emit_inputs(stage, tile)
            if stage.kind == "compute":
                self._emit_compute(stage, tile)
            elif stage.kind == "cache":
                self._emit_cache(stage)
                continue  # the buffer distributes via gmem, not flows
            else:
                self._emit_aux(stage, tile)
            self._emit_distribution(stage, tile)

        chip = ChipProgram(network=self.pipeline.network)
        for core, program in sorted(self.programs.items()):
            program.groups = self.group_tables.get(core, GroupTable(core))
            program.local_memory_used = self.allocs.core(core).bytes_used
            chip.programs[core] = program.seal()
        chip.flows = self.flows
        chip.layer_cores = {
            name: self.placement.plan(name).cores
            for name in self.placement.plans
        }
        chip.meta = {
            "policy": self.placement.policy,
            "tile_pixels": self.tile_pixels,
            "local_memory_usage": self.allocs.usage(),
            "stage_homes": {k: v for k, v in self.home.items() if v is not None},
            "stage_ops": {s.name: s.op for s in self.pipeline
                          if s.kind != "input"},
            "n_stages": len(self.pipeline),
            "attention_shards": self.config.compiler.attention_shards,
            "shard_groups": {name: list(cores)
                             for name, cores in self.shard_groups.items()},
            **self.placement.meta,
        }
        if self.pipeline.extent is not None:
            chip.meta["kv_extent"] = self.pipeline.extent
            chip.meta["kv_capacity"] = self.pipeline.extent_capacity
        return chip

    def _emit_inputs(self, stage: Stage, tile: int) -> None:
        """LOAD / RECV the producer tiles this tile needs first.

        A core's first tile pulls from its port's ``q_lo`` (the whole
        stream so far, or its token slice of it); every later tile pulls
        the tiles past the previous tile's requirement.
        """
        sharded = stage.name in self.shard_groups
        for core in self.receivers[stage.name]:
            first = 0
            if sharded:
                first, t_hi = self._shard_range_of(stage, core)
                if not first <= tile < t_hi:
                    continue  # another shard's token slice
            program = self._program(core)
            for edge_idx, port in enumerate(self.ports[(stage.name, core)]):
                if port.op is None:
                    continue
                producer = self.stages[stage.edges[edge_idx].producer]
                req = self.deps.req[(stage.name, edge_idx)]
                start = port.q_lo if tile == first else req[tile - 1] + 1
                for q in range(start, req[tile] + 1):
                    program.append(self._transfer(
                        op=port.op, peer=port.peer, addr=port.region.slot(q),
                        bytes=self._tile_bytes(producer, q), flow=port.flow,
                        seq=q - port.q_lo if port.op == "RECV" else q,
                        layer=stage.name))

    def _input_src(self, stage: Stage, core: int, tile: int) -> tuple[int, int]:
        """Byte range the matrix unit reads its input vectors from."""
        region = self.ports[(stage.name, core)][0].region
        return region.range_of(self.deps.req[(stage.name, 0)][tile])

    def _emit_compute(self, stage: Stage, tile: int) -> None:
        plan = self.placement.plan(stage.name)
        home = self.home[stage.name]
        lo, hi = tile_pixel_range(stage, self.tile_pixels, tile)
        cpp = stage.compute_per_pixel
        ppx = (hi - lo) * cpp

        for core in plan.cores:
            program = self._program(core)
            acc = self.acc_regions[(stage.name, core)]
            cells_core = self._cells_on(stage, core)
            src_lo, src_hi = self._input_src(stage, core, tile)

            # All MVMs of the tile first (they hit distinct crossbar groups
            # and distinct partial-ring slots, so the ROB window directly
            # sets how many overlap — the Fig. 4 effect), accumulation
            # VADD chains after.
            vadds: list[VectorInst] = []
            for copy in plan.copies_on(core):
                plo, phi = plan.pixel_share(copy, lo, hi)
                if plo >= phi:
                    continue
                count = (phi - plo) * cpp
                px_off = (plo - lo) * cpp
                part = self.part_regions[(stage.name, core, copy)]
                for r, ref in self.copy_groups[(stage.name, core, copy)]:
                    nbytes = count * ref.cols_cells * ACC_BYTES
                    part_lo, _ = part.range_of(r)
                    program.append(self._mvm(
                        group=ref.group_id,
                        src=src_lo, src_bytes=src_hi - src_lo,
                        dst=part_lo, dst_bytes=nbytes,
                        count=count, layer=stage.name))
                    acc_off = acc.base + (px_off * cells_core
                                          + ref.cell_offset) * ACC_BYTES
                    vadds.append(self._vector(
                        op="VADD", src1=part_lo, src2=acc_off, dst=acc_off,
                        length=count * ref.cols_cells,
                        src_bytes=nbytes, dst_bytes=nbytes,
                        layer=stage.name))
            program.extend(vadds)

            if core != home:
                nbytes = ppx * cells_core * ACC_BYTES
                program.append(self._transfer(
                    op="SEND", peer=home, addr=acc.base, bytes=nbytes,
                    flow=self.gathers[(stage.name, core)][1],
                    seq=tile, layer=stage.name))

        # -- home: gather partials, post-ops, writeback -----------------------
        program = self._program(home)
        acc = self.acc_regions[(stage.name, home)]
        for partner in plan.cores:
            if partner == home:
                continue
            cells = self._cells_on(stage, partner)
            nbytes = ppx * cells * ACC_BYTES
            prec, flow = self.gathers[(stage.name, partner)]
            prec_lo, _ = prec.range_of(tile, nbytes)
            program.append(self._transfer(
                op="RECV", peer=partner, addr=prec_lo, bytes=nbytes,
                flow=flow, seq=tile, layer=stage.name))
            program.append(self._vector(
                op="VADD", src1=prec_lo, src2=acc.base, dst=acc.base,
                length=ppx * cells, src_bytes=nbytes, dst_bytes=nbytes,
                layer=stage.name))

        self._emit_post_ops(stage, tile, program, acc, ppx, lo, hi)

    def _emit_post_ops(self, stage: Stage, tile: int, program: Program,
                       acc: Region, ppx: int, lo: int, hi: int) -> None:
        out = self.out_regions[stage.name]
        out_bytes = self._tile_bytes(stage, tile)
        out_lo, _ = out.range_of(tile, out_bytes)
        ch = stage.out_channels
        pre_len = ppx * ch
        wrote_out = False
        for op in stage.post_ops:
            if op in ("relu", "gelu"):
                program.append(self._vector(
                    op="VRELU" if op == "relu" else "VGELU",
                    src1=acc.base, dst=acc.base, length=pre_len,
                    src_bytes=pre_len * ACC_BYTES, dst_bytes=pre_len * ACC_BYTES,
                    layer=stage.name))
            elif op in ("maxpool", "avgpool"):
                program.append(self._vector(
                    op="VMAXPOOL" if op == "maxpool" else "VAVGPOOL",
                    src1=acc.base, dst=out_lo, length=(hi - lo) * ch,
                    src_bytes=pre_len * ACC_BYTES, dst_bytes=out_bytes,
                    layer=stage.name))
                wrote_out = True
        if not wrote_out:
            program.append(self._vector(
                op="VMOV", src1=acc.base, dst=out_lo, length=(hi - lo) * ch,
                src_bytes=(hi - lo) * ch * ACC_BYTES, dst_bytes=out_bytes,
                layer=stage.name))

    def _aux_input_range(self, stage: Stage, edge_idx: int, core: int,
                         tile: int) -> tuple[int, int]:
        """Byte range holding the input an aux op reads for this tile."""
        region = self.ports[(stage.name, core)][edge_idx].region
        if stage.edges[edge_idx].full_input or stage.op in ("maxpool", "avgpool", "lrn"):
            # window/reduction ops read across slots: conservative full ring.
            return region.base, region.end
        return region.range_of(self.deps.req[(stage.name, edge_idx)][tile])

    def _emit_aux(self, stage: Stage, tile: int) -> None:
        home = self.home[stage.name]
        # Token-sharded stages execute each tile on the shard core owning
        # its token slice; the result streams back to the home core's
        # output ring through the shard's partial-gather flow.
        exec_core = self._tile_exec_core(stage, tile)
        program = self._program(exec_core)
        lo, hi = tile_pixel_range(stage, self.tile_pixels, tile)
        px = hi - lo
        ch = stage.out_channels
        out = self.out_regions[stage.name]
        out_bytes = self._tile_bytes(stage, tile)
        if exec_core == home:
            out_lo, _ = out.range_of(tile, out_bytes)
        else:
            sout, flow_id = self.gathers[(stage.name, exec_core)]
            out_lo, _ = sout.range_of(tile, out_bytes)
        length = px * ch if len(stage.out_shape) == 3 else stage.out_elements

        if stage.op == "add":
            first_lo, first_hi = self._aux_input_range(stage, 0, exec_core, tile)
            src2_lo, _ = self._aux_input_range(stage, 1, exec_core, tile)
            program.append(self._vector(
                op="VADD", src1=first_lo, src2=src2_lo, dst=out_lo,
                length=length, src_bytes=first_hi - first_lo,
                dst_bytes=out_bytes, layer=stage.name))
            for edge_idx in range(2, len(stage.edges)):
                extra_lo, extra_hi = self._aux_input_range(stage, edge_idx,
                                                           exec_core, tile)
                program.append(self._vector(
                    op="VADD", src1=extra_lo, src2=out_lo, dst=out_lo,
                    length=length, src_bytes=extra_hi - extra_lo,
                    dst_bytes=out_bytes, layer=stage.name))
        elif stage.op == "concat":
            offset = 0
            for edge_idx, edge in enumerate(stage.edges):
                producer = self.stages[edge.producer]
                pch = producer.out_channels
                src_lo, src_hi = self._aux_input_range(stage, edge_idx,
                                                       exec_core, tile)
                program.append(self._vector(
                    op="VMOV", src1=src_lo, dst=out_lo + offset,
                    length=px * pch, src_bytes=src_hi - src_lo,
                    dst_bytes=px * pch * self.act_bytes, layer=stage.name))
                offset += px * pch * self.act_bytes
        elif stage.op in ("maxpool", "avgpool", "global_avgpool"):
            src_lo, src_hi = self._aux_input_range(stage, 0, exec_core, tile)
            opname = "VAVGPOOL" if "avg" in stage.op else "VMAXPOOL"
            program.append(self._vector(
                op=opname, src1=src_lo, dst=out_lo, length=length,
                src_bytes=src_hi - src_lo, dst_bytes=out_bytes,
                layer=stage.name))
        elif stage.op in ("relu", "softmax", "lrn", "layernorm", "gelu"):
            opname = {"relu": "VRELU", "softmax": "VSOFTMAX", "lrn": "VLRN",
                      "layernorm": "VLAYERNORM", "gelu": "VGELU"}[stage.op]
            src_lo, src_hi = self._aux_input_range(stage, 0, exec_core, tile)
            program.append(self._vector(
                op=opname, src1=src_lo, dst=out_lo, length=length,
                src_bytes=src_hi - src_lo, dst_bytes=out_bytes,
                layer=stage.name))
        elif stage.op == "matmul":
            # Dynamic activation x activation product: operand A's tile
            # plus the whole resident operand B stream through VMATMUL;
            # `length` counts this tile's multiply-accumulates (the MAC
            # total is exact per output token, so the per-tile share is
            # pixels x macs-per-token).
            a_lo, a_hi = self._aux_input_range(stage, 0, exec_core, tile)
            b_lo, b_hi = self._aux_input_range(stage, 1, exec_core, tile)
            macs_per_token = stage.attrs["macs_per_token"]
            program.append(self._vector(
                op="VMATMUL", src1=a_lo, src2=b_lo, dst=out_lo,
                length=px * macs_per_token,
                src_bytes=a_hi - a_lo, src2_bytes=b_hi - b_lo,
                dst_bytes=out_bytes, layer=stage.name))
        elif stage.op == "transpose":
            # Token/channel axis swap: a strided gather over the whole
            # resident input, one element written per output element.
            src_lo, src_hi = self._aux_input_range(stage, 0, exec_core, tile)
            program.append(self._vector(
                op="VTRANS", src1=src_lo, dst=out_lo, length=length,
                src_bytes=src_hi - src_lo, dst_bytes=out_bytes,
                layer=stage.name))
        else:  # pragma: no cover - frontend keeps aux ops in sync
            raise CompileError(f"codegen cannot lower aux op {stage.op!r}")

        for op in stage.post_ops:
            if op in ("relu", "gelu"):
                program.append(self._vector(
                    op="VRELU" if op == "relu" else "VGELU",
                    src1=out_lo, dst=out_lo, length=length,
                    src_bytes=out_bytes, dst_bytes=out_bytes, layer=stage.name))

        if exec_core != home:
            # Partial gather: the shard's finished token slice streams to
            # the home core's output ring, which then distributes as usual.
            t_lo, _t_hi = self._shard_range_of(stage, exec_core)
            program.append(self._transfer(
                op="SEND", peer=home, addr=out_lo, bytes=out_bytes,
                flow=flow_id, seq=tile - t_lo, layer=stage.name))
            dst_lo, _ = out.range_of(tile, out_bytes)
            self._program(home).append(self._transfer(
                op="RECV", peer=exec_core, addr=dst_lo, bytes=out_bytes,
                flow=flow_id, seq=tile - t_lo, layer=stage.name))

    def _emit_cache(self, stage: Stage) -> None:
        """Append one token to a KV-cache buffer in global memory.

        The cache stage is co-resident with its (single-token) producer, so
        the append is one STORE of the fresh token from the producer's
        output ring — extent-invariant by construction.  Consumers LOAD the
        whole buffer back (:meth:`_emit_inputs`), which is where the decode
        extent shows up as traffic; the simulator models the timing cost of
        both halves through the global-memory port.
        """
        home = self.home[stage.name]
        program = self._program(home)
        src_lo, _src_hi = self._aux_input_range(stage, 0, home, 0)
        token_bytes = stage.out_channels * self.act_bytes
        program.append(self._transfer(
            op="STORE", peer=0, addr=src_lo, bytes=token_bytes,
            flow=0, seq=0, layer=stage.name))

    def _emit_distribution(self, stage: Stage, tile: int) -> None:
        home = self.home[stage.name]
        program = self._program(home)
        out = self.out_regions[stage.name]
        out_bytes = self._tile_bytes(stage, tile)
        out_lo, _ = out.range_of(tile, out_bytes)

        for core, flow, first, end in self.sends.get(stage.name, ()):
            if first <= tile < end:  # else outside this core's slice
                program.append(self._transfer(
                    op="SEND", peer=core, addr=out_lo, bytes=out_bytes,
                    flow=flow, seq=tile - first, layer=stage.name))

        if stage.name in self.output_names:
            program.append(self._transfer(
                op="STORE", peer=0, addr=out_lo, bytes=out_bytes,
                flow=0, seq=tile, layer=stage.name))


def generate_code(pipeline: Pipeline, placement: Placement, config) -> ChipProgram:
    """Generate, seal and return the chip program."""
    return _CodeGenerator(pipeline, placement, config).generate()
