"""Tests for weight tiling, tile dependence maps, levels and skews."""

import pytest

from repro.compiler import (
    build_pipeline,
    dependences,
    n_tiles,
    tile_interval,
    tile_pixel_range,
    weight_tiling,
)
from repro.compiler.tiling import WeightTiling


class TestWeightTiling:
    def test_exact_fit(self):
        t = WeightTiling(rows=256, cols=256, xbar_rows=128, xbar_cols=128)
        assert t.row_blocks == 2
        assert t.col_blocks == 2
        assert t.crossbars_per_copy == 4

    def test_partial_blocks(self):
        t = WeightTiling(rows=200, cols=100, xbar_rows=128, xbar_cols=128)
        assert t.row_blocks == 2
        assert t.col_blocks == 1
        assert t.block_rows(0) == 128
        assert t.block_rows(1) == 72
        assert t.block_cols(0) == 100

    def test_block_coverage_sums_to_matrix(self):
        t = WeightTiling(rows=300, cols=500, xbar_rows=128, xbar_cols=128)
        assert sum(t.block_rows(r) for r in range(t.row_blocks)) == 300
        assert sum(t.block_cols(c) for c in range(t.col_blocks)) == 500

    def test_out_of_range_block_raises(self):
        t = WeightTiling(rows=10, cols=10, xbar_rows=128, xbar_cols=128)
        with pytest.raises(Exception):
            t.block_rows(1)

    def test_from_stage(self, chain_net):
        pipe = build_pipeline(chain_net)
        t = weight_tiling(pipe.stage("conv1"), 128, 128)
        assert (t.rows, t.cols) == (27, 8)

    def test_non_compute_stage_rejected(self, residual_net):
        pipe = build_pipeline(residual_net)
        with pytest.raises(Exception):
            weight_tiling(pipe.stage("join"), 128, 128)


class TestTiles:
    def test_n_tiles_rounding(self, chain_net):
        pipe = build_pipeline(chain_net)
        conv1 = pipe.stage("conv1")  # 8x8 output = 64 pixels
        assert n_tiles(conv1, 16) == 4
        assert n_tiles(conv1, 60) == 2
        assert n_tiles(conv1, 64) == 1
        assert n_tiles(conv1, 1000) == 1

    def test_tile_ranges_partition_pixels(self, chain_net):
        pipe = build_pipeline(chain_net)
        conv1 = pipe.stage("conv1")
        covered = []
        for t in range(n_tiles(conv1, 12)):
            lo, hi = tile_pixel_range(conv1, 12, t)
            covered.extend(range(lo, hi))
        assert covered == list(range(conv1.out_pixels))

    def test_tile_out_of_range_raises(self, chain_net):
        pipe = build_pipeline(chain_net)
        with pytest.raises(Exception):
            tile_pixel_range(pipe.stage("conv1"), 16, 99)


class TestRequiredTile:
    def test_monotone_nondecreasing(self, residual_net):
        pipe = build_pipeline(residual_net)
        for stage in pipe:
            for edge in stage.edges:
                producer = pipe.stage(edge.producer)
                reqs = [tile_interval(stage, edge, producer, 4, t)[1]
                        for t in range(n_tiles(stage, 4))]
                assert reqs == sorted(reqs)

    def test_last_tile_requires_last_producer_tile_for_conv(self, chain_net):
        pipe = build_pipeline(chain_net)
        conv2 = pipe.stage("conv2")
        producer = pipe.stage(conv2.edges[0].producer)
        last = n_tiles(conv2, 4) - 1
        assert tile_interval(conv2, conv2.edges[0], producer, 4, last)[1] \
            == n_tiles(producer, 4) - 1

    def test_full_input_edge_requires_everything(self, chain_net):
        pipe = build_pipeline(chain_net)
        fc = pipe.stage("fc1")
        producer = pipe.stage(fc.edges[0].producer)
        assert tile_interval(fc, fc.edges[0], producer, 4, 0)[1] \
            == n_tiles(producer, 4) - 1

    def test_halo_requires_one_extra_row(self, chain_net):
        """3x3 pad-1 conv: tile 0 (first rows) needs the next input row."""
        pipe = build_pipeline(chain_net)
        conv2 = pipe.stage("conv2")
        producer = pipe.stage(conv2.edges[0].producer)
        req0 = tile_interval(conv2, conv2.edges[0], producer, 8, 0)[1]
        assert req0 >= 0
        # producer is 8x8 = 8 tiles of 8px (one row each); conv2 is pooled
        # to 4x4 so its tile 0 spans 2 output rows -> needs rows 0..4
        assert req0 < n_tiles(producer, 8) - 1

    def test_within_producer_bounds(self, residual_net):
        pipe = build_pipeline(residual_net)
        for stage in pipe:
            for edge in stage.edges:
                producer = pipe.stage(edge.producer)
                tp = n_tiles(producer, 4)
                for t in range(n_tiles(stage, 4)):
                    req = tile_interval(stage, edge, producer, 4, t)[1]
                    assert 0 <= req < tp


class TestLevels:
    def test_input_levels_are_tile_indices(self, chain_net):
        levels = dependences(build_pipeline(chain_net), 4).levels
        assert levels["input"] == list(range(len(levels["input"])))

    def test_strictly_increasing_per_stage(self, residual_net):
        levels = dependences(build_pipeline(residual_net), 4).levels
        for per_stage in levels.values():
            assert all(b > a for a, b in zip(per_stage, per_stage[1:]))

    def test_every_dependency_has_smaller_level(self, residual_net):
        pipe = build_pipeline(residual_net)
        levels = dependences(pipe, 4).levels
        reqs = dependences(pipe, 4).req
        for stage in pipe:
            if stage.kind == "input":
                continue
            for t in range(n_tiles(stage, 4)):
                for edge_idx, edge in enumerate(stage.edges):
                    req = reqs[(stage.name, edge_idx)][t]
                    assert levels[edge.producer][req] < levels[stage.name][t]

    def test_levels_cover_all_stages(self, branch_net):
        pipe = build_pipeline(branch_net)
        levels = dependences(pipe, 4).levels
        assert set(levels) == {s.name for s in pipe}


class TestSkews:
    def test_chain_edges_have_small_skew(self, chain_net):
        pipe = build_pipeline(chain_net)
        skews = dependences(pipe, 4).skews
        conv2_skew = skews[("conv2", 0)]
        assert 0 <= conv2_skew <= n_tiles(pipe.stage("conv1"), 4)

    def test_shortcut_skew_exceeds_chain_skew(self, residual_net):
        """The identity shortcut bypasses two convs: its skew must cover
        the halo lag accumulated along the main path."""
        pipe = build_pipeline(residual_net)
        skews = dependences(pipe, 4).skews
        join = pipe.stage("join")
        main_idx = next(i for i, e in enumerate(join.edges)
                        if e.producer == "main2")
        short_idx = next(i for i, e in enumerate(join.edges)
                         if e.producer == "stem")
        assert skews[("join", short_idx)] > skews[("join", main_idx)] or \
            skews[("join", short_idx)] >= 2

    def test_skews_nonnegative(self, branch_net):
        pipe = build_pipeline(branch_net)
        for value in dependences(pipe, 4).skews.values():
            assert value >= 0

    def test_input_edges_not_windowed(self, chain_net):
        pipe = build_pipeline(chain_net)
        skews = dependences(pipe, 4).skews
        assert ("conv1", 0) not in skews  # producer is the input stage
