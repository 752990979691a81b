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
  with the intervals, levels, emission order and ring depths).  Per-core
  instruction streams emitted in level order are deadlock-free under
  windowed synchronized flows when every ring holds what one item reads
  (see DESIGN.md).

Ring depths are one count: for consumer tile ``t`` of edge ``P -> S``,
``p_t`` is the number of P tiles whose level is <= ``t``'s level, and a
ring must hold the P tiles from the lowest one ``t`` reads up to
``p_t - 1``.
"""

from __future__ import annotations

import math
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
    A consumer with the producer's pixel count but another shape (a token
    stage reading a feature map) reads pixel ``i`` for its pixel ``i``.
    Both ends are monotone non-decreasing in ``tile`` by construction.
    """
    tp = n_tiles(producer, tile_pixels)
    if edge.full_input or len(consumer.out_shape) != 3:
        return 0, tp - 1
    first_px, end_px = tile_pixel_range(consumer, tile_pixels, tile)
    if (consumer.out_pixels == producer.out_pixels
            and consumer.out_hw != producer.out_hw):
        lo = first_px // tile_pixels
        hi = (end_px - 1) // tile_pixels
        return (lo if lo < tp else tp - 1), (hi if hi < tp else tp - 1)
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
    computed together on first access.
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
    def _ring_counts(self) -> tuple[dict[tuple[str, int], int],
                                    dict[tuple[str, int], int]]:
        """``(skews, lags)`` of every windowed edge, in one pass.

        For consumer tile ``t`` of edge ``P -> S``, ``p_t`` counts the P
        tiles whose level is <= ``t``'s level: every P tile emitted before
        (S, t) in the global order.  Levels strictly increase along every
        dependence and along every stage's tile axis, so no item ordered
        before (S, t) needs a P tile past ``p_t - 1``; both tables are how
        far that count runs ahead of the tiles ``t`` reads.
        """
        skews: dict[tuple[str, int], int] = {}
        lags: dict[tuple[str, int], int] = {}
        for producer in self._windowed():
            nt = n_tiles(producer, self.tile_pixels)
            lv_p = self.levels[producer.name]
            for consumer, edge_idx in self.consumers[producer.name]:
                key = (consumer.name, edge_idx)
                p = skew = lag = 0
                for lv_t, lo_t, req_t in zip(self.levels[consumer.name],
                                             self.lo[key], self.req[key]):
                    while p < nt and lv_p[p] <= lv_t:
                        p += 1
                    skew = max(skew, p - 1 - lo_t)
                    lag = max(lag, p - 1 - req_t)
                skews[key] = skew
                lags[key] = (nt if consumer.edges[edge_idx].full_input
                             else lag + 2)
        return skews, lags

    @property
    def skews(self) -> dict[tuple[str, int], int]:
        """Input-ring skew of every windowed edge, in producer tiles:
        ``max_t(p_t - 1 - lo_t)``, the P tiles a consumer's ring holds
        from the lowest one an item reads to the last one emitted before
        it.  The code generator adds its ``sync_window`` of slack."""
        return self._ring_counts[0]

    @property
    def lags(self) -> dict[tuple[str, int], int]:
        """Co-resident ring depth of every windowed edge, in producer
        tiles: ``max_t(p_t - 1 - req_t) + 2``, the level-order distance
        from the producer item writing a tile to the consumer item reading
        it in place.  Counted from the highest tile an item reads
        (DESIGN.md "Ring safety"); a full-input consumer holds every
        producer tile."""
        return self._ring_counts[1]


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
