"""Tile decomposition and tile-level dependence analysis.

Every stage's output is processed in *tiles* of up to ``tile_pixels``
output pixels (row-major over the feature map; fc-like stages are a single
tile).  This module answers three questions the mapper and code generator
need:

* how a weight matrix decomposes into crossbar row/column blocks,
* which producer tiles a consumer tile depends on (:func:`required_tile` —
  exact sliding-window geometry, monotone in the tile index),
* a global *level* per (stage, tile) work item such that every dependency
  of an item has a strictly smaller level.  Per-core instruction streams
  emitted in level order are deadlock-free under windowed synchronized
  flows (see DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .frontend import CompileError, Pipeline, Stage, StageEdge

__all__ = [
    "WeightTiling",
    "weight_tiling",
    "n_tiles",
    "tile_pixel_range",
    "required_tile",
    "compute_levels",
    "work_items",
]


@dataclass(frozen=True)
class WeightTiling:
    """Crossbar-block decomposition of one weight matrix."""

    rows: int
    cols: int
    xbar_rows: int
    xbar_cols: int

    @property
    def row_blocks(self) -> int:
        return math.ceil(self.rows / self.xbar_rows)

    @property
    def col_blocks(self) -> int:
        return math.ceil(self.cols / self.xbar_cols)

    @property
    def crossbars_per_copy(self) -> int:
        return self.row_blocks * self.col_blocks

    def block_rows(self, row_block: int) -> int:
        """Actual weight rows in a given row block (last may be partial)."""
        if not 0 <= row_block < self.row_blocks:
            raise CompileError(f"row block {row_block} out of range")
        return min(self.xbar_rows, self.rows - row_block * self.xbar_rows)

    def block_cols(self, col_block: int) -> int:
        """Actual weight columns in a given column block."""
        if not 0 <= col_block < self.col_blocks:
            raise CompileError(f"col block {col_block} out of range")
        return min(self.xbar_cols, self.cols - col_block * self.xbar_cols)


def weight_tiling(stage: Stage, xbar_rows: int, xbar_cols: int,
                  col_multiplier: int = 1) -> WeightTiling:
    """Tiling of a compute stage's weight matrix.

    ``col_multiplier`` expands logical weight columns into physical
    crossbar columns — bit-sliced weights occupy
    ``CrossbarConfig.slices_per_weight`` columns each, whose partial
    products the vector unit shift-adds during accumulation.
    """
    if stage.weight is None:
        raise CompileError(f"stage {stage.name!r} has no weight matrix")
    rows, cols = stage.weight
    return WeightTiling(rows, cols * col_multiplier, xbar_rows, xbar_cols)


def n_tiles(stage: Stage, tile_pixels: int) -> int:
    """Number of output tiles for a stage.

    A cache stage is always one tile: its pixel count is the *runtime*
    decode extent, and a single tile covering the whole buffer keeps the
    program structure (instruction and message counts) extent-invariant
    — only the transfer byte counts scale with the extent.
    """
    if stage.kind == "cache":
        return 1
    return max(1, math.ceil(stage.out_pixels / tile_pixels))


def tile_pixel_range(stage: Stage, tile_pixels: int, tile: int) -> tuple[int, int]:
    """Half-open output-pixel range covered by one tile."""
    total = stage.out_pixels
    if stage.kind == "cache":
        tile_pixels = max(tile_pixels, total)  # single whole-buffer tile
    lo = tile * tile_pixels
    hi = min(total, lo + tile_pixels)
    if lo >= total:
        raise CompileError(
            f"tile {tile} out of range for stage {stage.name!r} "
            f"({total} pixels / {tile_pixels} per tile)"
        )
    return lo, hi


def required_tile(consumer: Stage, edge: StageEdge, producer: Stage,
                  tile_pixels: int, tile: int) -> int:
    """Highest producer tile index that consumer ``tile`` depends on.

    Exact sliding-window geometry: the consumer tile's last output pixel
    maps to an output row; through (kernel, stride, padding) that row pulls
    input rows up to ``y*stride - pad + kernel - 1``; the last needed input
    pixel then identifies the producer tile.  Monotone non-decreasing in
    ``tile`` by construction.
    """
    tp = n_tiles(producer, tile_pixels)
    if edge.full_input:
        return tp - 1

    if len(consumer.out_shape) != 3:
        return tp - 1
    _, hi = tile_pixel_range(consumer, tile_pixels, tile)
    out_w = consumer.out_shape[2]
    last_out_row = (hi - 1) // out_w
    # A fused pool multiplies the pre-pool rows consumed per output row.
    pool_k = 1
    for op in ("maxpool", "avgpool"):
        k = consumer.attrs.get(f"fused_{op}_kernel")
        if k:
            pool_k = k
    pre_pool_row = (last_out_row + 1) * pool_k - 1
    in_row = pre_pool_row * edge.stride - edge.padding + edge.kernel - 1
    prod_h, prod_w = producer.out_hw
    in_row = min(prod_h - 1, max(0, in_row))
    last_in_pixel = (in_row + 1) * prod_w - 1
    req = last_in_pixel // tile_pixels
    return min(tp - 1, req)


def edge_requirements(pipeline: Pipeline,
                      tile_pixels: int) -> dict[tuple[str, int], list[int]]:
    """Per-edge dependence maps: ``req[(consumer, edge_idx)][tile]`` is the
    highest producer tile that consumer tile needs (cached arrays)."""
    stage_by_name = {s.name: s for s in pipeline.stages}
    reqs: dict[tuple[str, int], list[int]] = {}
    for stage in pipeline.stages:
        nt = n_tiles(stage, tile_pixels)
        for edge_idx, edge in enumerate(stage.edges):
            producer = stage_by_name[edge.producer]
            reqs[(stage.name, edge_idx)] = [
                required_tile(stage, edge, producer, tile_pixels, t)
                for t in range(nt)
            ]
    return reqs


def compute_levels(pipeline: Pipeline, tile_pixels: int, *,
                   reqs: dict[tuple[str, int], list[int]] | None = None
                   ) -> dict[str, list[int]]:
    """Dependency level of every (stage, tile) work item.

    ``level[stage.name][tile]`` is strictly greater than the level of every
    producer tile the item needs.  Input-stage items are seeded with their
    own tile index — modelling the streaming arrival of the input — so
    levels grow along the tile axis and per-core programs interleave all
    resident stages in pipelined rounds instead of running one stage to
    completion first.  Levels give all cores a common topological order
    over work items (the deadlock-freedom argument in DESIGN.md).
    ``reqs`` is :func:`edge_requirements`' table when the caller already
    holds it.
    """
    if reqs is None:
        reqs = edge_requirements(pipeline, tile_pixels)
    levels: dict[str, list[int]] = {}
    for stage in pipeline.stages:
        nt = n_tiles(stage, tile_pixels)
        if stage.kind == "input":
            levels[stage.name] = list(range(nt))
            continue
        mine: list[int] = []
        for tile in range(nt):
            deepest = 0
            for edge_idx, edge in enumerate(stage.edges):
                req = reqs[(stage.name, edge_idx)][tile]
                deepest = max(deepest, levels[edge.producer][req])
            # Strictly increasing along the tile axis: dependence maps clamp
            # at the feature-map boundary, and without this the tail items
            # of a stage collapse onto one level, destroying the pipelined
            # interleaving that the flow-window sizing relies on.
            level = deepest + 1
            if mine and level <= mine[-1]:
                level = mine[-1] + 1
            mine.append(level)
        levels[stage.name] = mine
    return levels


def work_items(pipeline: Pipeline,
               levels: dict[str, list[int]]) -> list[tuple[Stage, int]]:
    """Every non-input ``(stage, tile)`` item in global (level, topo, tile)
    order — the order the code generator emits, so co-resident stages
    interleave on their core in pipelined rounds.  ``levels`` is
    :func:`compute_levels`' table."""
    items = [(level, stage.topo_index, tile, stage)
             for stage in pipeline if stage.kind != "input"
             for tile, level in enumerate(levels[stage.name])]
    items.sort(key=lambda it: it[:3])
    return [(stage, tile) for _level, _topo, tile, stage in items]


def edge_skews(pipeline: Pipeline, tile_pixels: int, *,
               reqs: dict[tuple[str, int], list[int]] | None = None,
               levels: dict[str, list[int]] | None = None
               ) -> dict[tuple[str, int], int]:
    """Pipeline skew of every edge, in producer-tile units.

    For edge ``P -> S``, the skew bounds how far P must be able to run
    ahead of S's consumption before S's item can execute.  Two effects
    contribute:

    * *data skew* — the highest P tile transitively required by item
      (S, t) through any ancestor path (``need_P``); the identity shortcut
      of a residual block accumulates the halo lag of the convolutional
      path it bypasses;
    * *order skew* — items are emitted per core in global (level, topo,
      tile) order, so (S, t) also waits for every same-core predecessor,
      which may transitively require even later P tiles.  This is bounded
      by the *need curve* ``G_P(L)`` = max P tile required by any item of
      level <= L, evaluated at (S, t)'s level.

    The code generator sizes each flow's credit window (and its input
    ring) as ``skew + sync_window``: a synchronized SEND then never stalls
    its producer before the consumer genuinely cannot progress, which
    (with per-flow send queues) makes windowed synchronized communication
    deadlock-free on arbitrary DAGs.  This is exactly the buffering a real
    compiler must provision for skip connections and branch joins.
    ``reqs`` / ``levels`` are the :func:`edge_requirements` /
    :func:`compute_levels` tables when the caller already holds them.
    """
    from bisect import bisect_right

    if reqs is None:
        reqs = edge_requirements(pipeline, tile_pixels)
    if levels is None:
        levels = compute_levels(pipeline, tile_pixels, reqs=reqs)
    stage_by_name = {s.name: s for s in pipeline.stages}
    producers_of_interest = {e.producer for s in pipeline.stages for e in s.edges}
    skews: dict[tuple[str, int], int] = {}

    for pname in producers_of_interest:
        if stage_by_name[pname].kind in ("input", "cache"):
            continue  # global-memory LOADs are not windowed
        # need[X] = per-tile max P-tile transitively required by stage X.
        need: dict[str, list[int]] = {pname: list(range(
            n_tiles(stage_by_name[pname], tile_pixels)))}
        for stage in pipeline.stages:
            if stage.name == pname or stage.kind == "input":
                continue
            contributions: list[list[int]] = []
            for edge_idx, edge in enumerate(stage.edges):
                upstream = need.get(edge.producer)
                if upstream is None:
                    continue
                req = reqs[(stage.name, edge_idx)]
                contributions.append([upstream[q] for q in req])
            if contributions:
                nt = n_tiles(stage, tile_pixels)
                need[stage.name] = [
                    max(c[t] for c in contributions) for t in range(nt)
                ]
        # Need curve: for every item of any stage needing P, (level, need).
        points = sorted(
            (levels[xname][u], xneed[u])
            for xname, xneed in need.items()
            for u in range(len(xneed))
        )
        curve_levels = [p[0] for p in points]
        curve_need: list[int] = []
        running = -1
        for _, value in points:
            running = max(running, value)
            curve_need.append(running)

        for stage in pipeline.stages:
            for edge_idx, edge in enumerate(stage.edges):
                if edge.producer != pname:
                    continue
                req = reqs[(stage.name, edge_idx)]
                lv = levels[stage.name]
                worst = 0
                for t in range(len(req)):
                    pos = bisect_right(curve_levels, lv[t]) - 1
                    if pos >= 0:
                        worst = max(worst, curve_need[pos] - req[t])
                skews[(stage.name, edge_idx)] = worst
    return skews
