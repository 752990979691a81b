"""MNSIM2.0-style behaviour-level baseline simulator.

Reproduces the *modelling assumptions* the paper criticizes in MNSIM2.0
(Section IV-B) so Fig. 5 can compare them against the cycle-accurate,
synchronized-communication simulator on identical crossbar configurations:

* **fully asynchronous communication** — a produced tile is available to
  its consumer after pure wire latency (hop count x hop cycles), with no
  bandwidth serialization, no link contention, no credit windows, and
  implicitly unbounded buffering ("every data will be immediately
  transmitted to the next component once the data is computed");
* **behaviour-level compute** — per-tile latency from closed-form PE
  arithmetic (copies and row blocks fully parallel, vector post-processing
  at full SIMD width) instead of instruction-by-instruction execution;
* **idealized memory** — network input is free (no global-memory port
  arbitration).

The baseline reuses the real compiler's placement, tiling, stage homes
(``placement.stage_homes``) and work-item order (``tiling.dependences``),
so compute work matches the cycle-accurate run and any latency difference
is due to the communication and execution model — exactly the comparison
the paper makes.  (Unlike the open-source MNSIM2.0 the paper had to work around, this
reimplementation also handles ``concat``, so the unmodified networks run.)

The schedule is an analytic list-scheduling recurrence, not an event
simulation:

    ready(s, t)  = max over edges (done(producer, req(t)) + wire_latency)
    start(s, t)  = max(ready(s, t), core_free(home(s)))
    done(s, t)   = start(s, t) + tile_compute(s)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..compiler import Pipeline, build_pipeline, map_network, n_tiles
from ..compiler.placement import stage_homes
from ..compiler.tiling import dependences
from ..config import ArchConfig, validate
from ..graph import Graph

__all__ = ["BaselineResult", "run_baseline"]


@dataclass
class BaselineResult:
    """Behaviour-level simulation outputs."""

    network: str
    cycles: int
    #: layer -> total compute cycles across its tiles (serial, on its core).
    layer_compute: dict[str, int] = field(default_factory=dict)
    #: layer -> total communication cycles (pure wire latency).
    layer_comm: dict[str, int] = field(default_factory=dict)
    #: (stage, tile) completion times, for inspection.
    meta: dict = field(default_factory=dict)

    def comm_ratio(self, layer: str) -> float:
        """Communication share of a layer's activity (compute + comm)."""
        comm = self.layer_comm.get(layer, 0)
        comp = self.layer_compute.get(layer, 0)
        total = comm + comp
        return comm / total if total else 0.0


def _tile_compute_cycles(stage, plan, config: ArchConfig,
                         pe_parallelism: float) -> int:
    """Closed-form per-tile latency of one stage on its home core.

    ``pe_parallelism`` is the behaviour-level throughput anchor: the number
    of crossbar groups a PE keeps simultaneously active (MNSIM2.0-style
    models bake an equivalent assumption into their PE pipeline).  The
    vector term models the accumulation/post-op stream through the local
    memory; matrix and vector engines overlap, so the tile takes the max.
    """
    comp = config.compiler
    px = min(comp.tile_pixels, stage.out_pixels)
    lanes = config.core.vector_lanes
    write_bw = config.core.local_memory_write_bytes_per_cycle
    if stage.kind == "compute":
        cpp = stage.compute_per_pixel
        vectors = px * cpp
        group_reads = vectors * plan.tiling.row_blocks
        mvm = group_reads * config.crossbar.mvm_cycles() / pe_parallelism
        # Accumulation stream: every group read deposits + merges one
        # partial row (2 reads + 1 write of ACC-width data per element).
        accum_bytes = 3 * 4 * group_reads * min(stage.out_channels,
                                                config.crossbar.cols)
        post_elems = px * stage.out_channels * (1 + len(stage.post_ops))
        vector = accum_bytes / write_bw + post_elems / lanes
        return max(1, math.ceil(max(mvm, vector)))
    # aux stages: pure vector work.
    elems = px * stage.out_channels * max(1, len(stage.post_ops) + 1)
    return max(1, math.ceil(elems / lanes))


#: default behaviour-level PE throughput (simultaneously active crossbar
#: groups); calibrated so the baseline matches the cycle-accurate simulator
#: on communication-light chain networks (VGG), as in the paper's Fig. 5.
DEFAULT_PE_PARALLELISM = 3.0


def run_baseline(graph: Graph, config: ArchConfig, *,
                 pe_parallelism: float = DEFAULT_PE_PARALLELISM) -> BaselineResult:
    """Run the behaviour-level model; returns latency and comm breakdown."""
    validate(config)
    pipeline: Pipeline = build_pipeline(
        graph, operator_fusion=config.compiler.operator_fusion)
    placement = map_network(pipeline, config)
    tile_pixels = config.compiler.tile_pixels
    deps = dependences(pipeline, tile_pixels)
    hop = config.noc.hop_cycles
    home = stage_homes(pipeline, placement)

    def hops_between(a: int | None, b: int | None) -> int:
        if a is None or b is None or a == b:
            return 0
        ar, ac = config.core_xy(a)
        br, bc = config.core_xy(b)
        return abs(ar - br) + abs(ac - bc)

    # idealized memory: network input is free
    done: dict[tuple[str, int], int] = {
        (stage.name, tile): 0 for stage in pipeline if stage.kind == "input"
        for tile in range(n_tiles(stage, tile_pixels))}
    core_free: dict[int, int] = {}
    layer_compute: dict[str, int] = {}
    layer_comm: dict[str, int] = {}
    finish = 0
    tile_compute = {
        stage.name: _tile_compute_cycles(
            stage, placement.plans.get(stage.name), config, pe_parallelism)
        for stage in pipeline if stage.kind != "input"}

    link_bw = config.noc.link_bytes_per_cycle
    act_bytes = config.compiler.activation_bytes

    # Work items in the code generator's emission order, so co-resident
    # stages interleave on their core instead of one stage monopolizing
    # it (a list-scheduling artifact a stage-major sweep would introduce).
    for stage, tile in deps.order:
        my_home = home[stage.name]
        compute = tile_compute[stage.name]
        ready = 0
        for edge_idx, edge in enumerate(stage.edges):
            hops = hops_between(home[edge.producer], my_home)
            producer = pipeline.stage(edge.producer)
            tile_bytes = (min(tile_pixels, producer.out_pixels)
                          * producer.out_channels * act_bytes)
            # Ideal-async transmission: pure wire latency plus uncontended
            # serialization — no arbitration, no backpressure, no sync.
            wire = hop * hops + (math.ceil(tile_bytes / link_bw) if hops else 0)
            req = deps.req[(stage.name, edge_idx)][tile]
            ready = max(ready, done[(edge.producer, req)] + wire)
            layer_comm[stage.name] = layer_comm.get(stage.name, 0) + wire
        start = max(ready, core_free.get(my_home, 0))
        end = start + compute
        core_free[my_home] = end
        done[(stage.name, tile)] = end
        layer_compute[stage.name] = layer_compute.get(stage.name, 0) + compute
        finish = max(finish, end)

    return BaselineResult(
        network=graph.name,
        cycles=finish,
        layer_compute=layer_compute,
        layer_comm=layer_comm,
        meta={"policy": placement.policy, "tile_pixels": tile_pixels},
    )
