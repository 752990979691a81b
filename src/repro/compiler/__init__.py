"""The PIMCOMP-style compiler: frontend, mapping, allocation, codegen."""

from .allocator import AllocatorSet, CoreAllocator, Region
from .batching import repeat_chip_program
from .cache import CompileCache, config_fingerprint
from .codegen import ACC_BYTES, generate_code
from .frontend import (
    CompileError,
    Pipeline,
    Stage,
    StageEdge,
    build_pipeline,
    shard_tile_ranges,
)
from .mapping import map_network, map_performance_first, map_utilization_first
from .pipeline import CompilationResult, compile_network
from .placement import Placement, Slice, StagePlan, assign_shard_groups
from .stepwise import StepTemplate, StepwiseError, compile_step_template
from .tiling import (
    Dependences,
    WeightTiling,
    dependences,
    n_tiles,
    tile_interval,
    tile_pixel_range,
    weight_tiling,
)

__all__ = [
    "compile_network",
    "compile_step_template",
    "StepTemplate",
    "StepwiseError",
    "repeat_chip_program",
    "CompilationResult",
    "CompileCache",
    "config_fingerprint",
    "build_pipeline",
    "Pipeline",
    "Stage",
    "StageEdge",
    "CompileError",
    "map_network",
    "map_utilization_first",
    "map_performance_first",
    "Placement",
    "StagePlan",
    "Slice",
    "assign_shard_groups",
    "shard_tile_ranges",
    "WeightTiling",
    "weight_tiling",
    "n_tiles",
    "tile_pixel_range",
    "tile_interval",
    "Dependences",
    "dependences",
    "generate_code",
    "ACC_BYTES",
    "AllocatorSet",
    "CoreAllocator",
    "Region",
]
