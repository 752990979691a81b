"""Tile decomposition and tile-level dependence analysis.

Every stage's output is processed in *tiles* of up to ``tile_pixels``
output pixels (row-major over the feature map; fc-like stages are a single
tile).  This module answers three questions the mapper and code generator
need:

* how a weight matrix decomposes into crossbar row/column blocks,
* which producer tiles a consumer tile depends on (:func:`tile_interval` —
  exact sliding-window geometry, monotone in the tile index),
* a global *level* per (stage, tile) work item such that every dependency
  of an item has a strictly smaller level (:func:`dependences`, one table
  with the intervals, levels, emission order, skews and lags).  Per-core
  instruction streams emitted in level order are deadlock-free under
  windowed synchronized flows (see DESIGN.md).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .frontend import CompileError, Pipeline, Stage, StageEdge

__all__ = [
    "WeightTiling",
    "weight_tiling",
    "n_tiles",
    "tile_pixel_range",
    "tile_interval",
    "Dependences",
    "dependences",
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


def tile_interval(consumer: Stage, edge: StageEdge, producer: Stage,
                  tile_pixels: int, tile: int) -> tuple[int, int]:
    """Lowest and highest producer tile that consumer ``tile`` reads.

    Exact sliding-window geometry: the tile's first and last output pixels
    map to output rows; through (kernel, stride, padding) those rows pull
    input rows ``y*stride - pad`` up to ``y*stride - pad + kernel - 1``;
    the first and last needed input pixels identify the producer tiles.
    Both ends are monotone non-decreasing in ``tile`` by construction.
    """
    tp = n_tiles(producer, tile_pixels)
    if edge.full_input or len(consumer.out_shape) != 3:
        return 0, tp - 1
    first_px, end_px = tile_pixel_range(consumer, tile_pixels, tile)
    out_w = consumer.out_shape[2]
    # A fused pool multiplies the pre-pool rows consumed per output row.
    attrs = consumer.attrs
    pool_k = (attrs.get("fused_avgpool_kernel")
              or attrs.get("fused_maxpool_kernel") or 1)
    prod_h, prod_w = producer.out_hw
    first_row = (first_px // out_w) * pool_k * edge.stride - edge.padding
    last_pre_pool_row = ((end_px - 1) // out_w + 1) * pool_k - 1
    last_row = (last_pre_pool_row * edge.stride - edge.padding
                + edge.kernel - 1)
    # Clamp both rows into the producer, then both tiles into its tiles.
    top = prod_h - 1
    first_row = 0 if first_row < 0 else top if first_row > top else first_row
    last_row = 0 if last_row < 0 else top if last_row > top else last_row
    lo = first_row * prod_w // tile_pixels
    hi = ((last_row + 1) * prod_w - 1) // tile_pixels
    return (lo if lo < tp else tp - 1), (hi if hi < tp else tp - 1)


@dataclass(frozen=True)
class Dependences:
    """The tile-level dependence table of one pipeline at one tile size.

    Edges are keyed ``(consumer name, edge index)``.  ``lo`` / ``req``
    hold, per consumer tile, the lowest / highest producer tile it reads
    (:func:`tile_interval`).  ``levels[stage][tile]`` is strictly greater
    than the level of every producer tile the item needs; input-stage
    items are seeded with their own tile index — modelling the streaming
    arrival of the input — so levels grow along the tile axis and
    per-core programs interleave all resident stages in pipelined rounds
    instead of running one stage to completion first.  ``order`` is every
    non-input ``(stage, tile)`` item in global (level, topo, tile) order:
    the order the code generator emits and the MNSIM-style baseline
    schedules, and the common topological order behind the
    deadlock-freedom argument (DESIGN.md).  ``consumers[producer]`` lists
    the ``(consumer, edge index)`` pairs reading each stage, in pipeline
    order.  ``skews`` and ``lags`` size the code generator's rings and are
    computed on first access.
    """

    pipeline: Pipeline
    tile_pixels: int
    lo: dict[tuple[str, int], list[int]]
    req: dict[tuple[str, int], list[int]]
    levels: dict[str, list[int]]
    order: tuple[tuple[Stage, int], ...]
    consumers: dict[str, list[tuple[Stage, int]]]

    def _windowed(self) -> list[Stage]:
        """Consumed producers whose tiles stream through rings and flows
        (network inputs and KV caches are read back from global memory)."""
        return [s for s in self.pipeline.stages
                if s.kind not in ("input", "cache") and self.consumers[s.name]]

    @cached_property
    def skews(self) -> dict[tuple[str, int], int]:
        """Pipeline skew of every windowed edge, in producer-tile units.

        For edge ``P -> S``, the skew bounds how far P must be able to run
        ahead of S's consumption before S's item can execute.  Two effects
        contribute:

        * *data skew* — the highest P tile transitively required by item
          (S, t) through any ancestor path (``need_P``); the identity
          shortcut of a residual block accumulates the halo lag of the
          convolutional path it bypasses;
        * *order skew* — items are emitted per core in global (level, topo,
          tile) order, so (S, t) also waits for every same-core
          predecessor, which may transitively require even later P tiles.
          This is bounded by the *need curve* ``G_P(L)`` = max P tile
          required by any item of level <= L, evaluated at (S, t)'s level.

        The code generator sizes each flow's credit window (and its input
        ring) as ``skew + sync_window``: a synchronized SEND should then
        never stall its producer before the consumer genuinely cannot
        progress.  This is the buffering a real compiler must provision
        for skip connections and branch joins.  The skew counts from the
        highest tile an item reads, not the lowest, which is not enough
        on every DAG (DESIGN.md "Ring safety").
        """
        stages = self.pipeline.stages
        skews: dict[tuple[str, int], int] = {}
        for producer in self._windowed():
            pname = producer.name
            # need[X] = per-tile max P-tile transitively required by X.
            need: dict[str, list[int]] = {pname: list(range(
                n_tiles(producer, self.tile_pixels)))}
            for stage in stages[producer.topo_index + 1:]:
                contributions: list[list[int]] = []
                for edge_idx, edge in enumerate(stage.edges):
                    upstream = need.get(edge.producer)
                    if upstream is None:
                        continue
                    req = self.req[(stage.name, edge_idx)]
                    contributions.append([upstream[q] for q in req])
                if contributions:
                    need[stage.name] = [max(c) for c in zip(*contributions)]
            # Need curve: for every item of any stage needing P,
            # (level, need).
            points = sorted(
                (self.levels[xname][u], xneed[u])
                for xname, xneed in need.items()
                for u in range(len(xneed))
            )
            curve_levels = [p[0] for p in points]
            curve_need: list[int] = []
            running = -1
            for _, value in points:
                running = max(running, value)
                curve_need.append(running)

            for consumer, edge_idx in self.consumers[pname]:
                req = self.req[(consumer.name, edge_idx)]
                lv = self.levels[consumer.name]
                worst = 0
                for t in range(len(req)):
                    pos = bisect_right(curve_levels, lv[t]) - 1
                    if pos >= 0:
                        worst = max(worst, curve_need[pos] - req[t])
                skews[(consumer.name, edge_idx)] = worst
        return skews

    @cached_property
    def lags(self) -> dict[tuple[str, int], int]:
        """Level-order distance of every windowed edge, in producer tiles.

        A consumer co-resident with its producer reads the producer's
        output ring in place, so the ring must hold a tile from the
        producer item writing it to the consumer item reading it: for each
        consumer tile ``t``, the producer tiles ordered (by level) up to
        ``t``'s item, ``p_t``, minus the highest tile it reads, plus two.
        A full-input consumer holds every producer tile.
        """
        lags: dict[tuple[str, int], int] = {}
        for producer in self._windowed():
            nt = n_tiles(producer, self.tile_pixels)
            lv_p = self.levels[producer.name]
            for consumer, edge_idx in self.consumers[producer.name]:
                key = (consumer.name, edge_idx)
                if consumer.edges[edge_idx].full_input:
                    lags[key] = nt
                    continue
                lv_c = self.levels[consumer.name]
                # max producer item ordered (by level) before consumer item t
                p = worst = 0
                for t, req_t in enumerate(self.req[key]):
                    while p < nt and lv_p[p] <= lv_c[t]:
                        p += 1
                    worst = max(worst, (p - 1) - req_t + 2)
                lags[key] = worst
        return lags


def dependences(pipeline: Pipeline, tile_pixels: int) -> Dependences:
    """Build the :class:`Dependences` table: intervals, levels, emission
    order and the consumer index in one pass over the pipeline."""
    lo: dict[tuple[str, int], list[int]] = {}
    req: dict[tuple[str, int], list[int]] = {}
    levels: dict[str, list[int]] = {}
    consumers: dict[str, list[tuple[Stage, int]]] = {
        s.name: [] for s in pipeline.stages}
    items: list[tuple[int, int, int, Stage]] = []
    for stage in pipeline.stages:
        nt = n_tiles(stage, tile_pixels)
        if stage.kind == "input":
            levels[stage.name] = list(range(nt))
            continue
        # (producer levels, highest producer tile per tile) per input edge
        inputs: list[tuple[list[int], list[int]]] = []
        for edge_idx, edge in enumerate(stage.edges):
            producer = pipeline.stage(edge.producer)
            consumers[edge.producer].append((stage, edge_idx))
            key = (stage.name, edge_idx)
            lo[key], req[key] = map(list, zip(*(
                tile_interval(stage, edge, producer, tile_pixels, t)
                for t in range(nt))))
            inputs.append((levels[edge.producer], req[key]))
        mine: list[int] = []
        for tile in range(nt):
            deepest = 0
            for lv_p, req_e in inputs:
                deepest = max(deepest, lv_p[req_e[tile]])
            # Strictly increasing along the tile axis: dependence maps clamp
            # at the feature-map boundary, and without this the tail items
            # of a stage collapse onto one level, destroying the pipelined
            # interleaving that the flow-window sizing relies on.
            level = deepest + 1
            if mine and level <= mine[-1]:
                level = mine[-1] + 1
            mine.append(level)
            items.append((level, stage.topo_index, tile, stage))
        levels[stage.name] = mine
    items.sort(key=lambda it: it[:3])
    order = tuple((stage, tile) for _level, _topo, tile, stage in items)
    return Dependences(pipeline, tile_pixels, lo, req, levels, order,
                       consumers)
