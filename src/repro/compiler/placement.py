"""Placement data structures shared by the mapping policies.

A *slice* is a rectangular block of crossbar tiles — one copy of part of a
stage's weight matrix — living on one core.  A stage's placement is the set
of slices (covering copy 0 completely; additional copies are whole
duplicates used for pixel-level parallelism), plus derived views the code
generator consumes: which cores compute the stage, which column blocks each
core *owns* end-to-end (all row blocks present, so partial sums never leave
the core), and which are split (partial contributions must travel to the
stage's home core — the intra-layer communication that penalizes the
utilization-first policy).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .frontend import CompileError, Pipeline, Stage
from .tiling import WeightTiling, n_tiles

__all__ = ["Slice", "StagePlan", "Placement", "assign_shard_groups",
           "stage_homes"]


@dataclass(frozen=True)
class Slice:
    """Crossbar tiles [row_lo,row_hi) x [col_lo,col_hi) of one copy,
    resident on one core."""

    core: int
    copy: int
    row_lo: int
    row_hi: int
    col_lo: int
    col_hi: int

    def __post_init__(self) -> None:
        if self.row_lo >= self.row_hi or self.col_lo >= self.col_hi:
            raise CompileError(f"empty slice {self}")

    @property
    def n_tiles(self) -> int:
        return (self.row_hi - self.row_lo) * (self.col_hi - self.col_lo)


@dataclass
class StagePlan:
    """Complete placement of one compute stage."""

    stage: Stage
    tiling: WeightTiling
    copies: int
    slices: list[Slice] = field(default_factory=list)

    # -- derived views --------------------------------------------------------

    @property
    def cores(self) -> list[int]:
        """Cores computing this stage, in first-appearance order."""
        seen: list[int] = []
        for sl in self.slices:
            if sl.core not in seen:
                seen.append(sl.core)
        return seen

    @property
    def home_core(self) -> int:
        """The aggregation/distribution core (most crossbar tiles wins)."""
        if not self.slices:
            raise CompileError(f"stage {self.stage.name!r} has no slices")
        per_core: dict[int, int] = {}
        for sl in self.slices:
            per_core[sl.core] = per_core.get(sl.core, 0) + sl.n_tiles
        best = max(per_core.values())
        for core in self.cores:  # first-appearance tie-break: deterministic
            if per_core[core] == best:
                return core
        raise AssertionError("unreachable")

    def slices_on(self, core: int) -> list[Slice]:
        return [sl for sl in self.slices if sl.core == core]

    def copies_on(self, core: int) -> list[int]:
        """Copy indices with at least one slice on this core."""
        out: list[int] = []
        for sl in self.slices:
            if sl.core == core and sl.copy not in out:
                out.append(sl.copy)
        return out

    def col_cells_on(self, core: int) -> int:
        """Distinct weight columns (actual cells) present on a core."""
        cols: set[int] = set()
        for sl in self.slices_on(core):
            cols.update(range(sl.col_lo, sl.col_hi))
        return sum(self.tiling.block_cols(cb) for cb in cols)

    def owned_col_blocks(self, core: int, copy: int) -> set[int]:
        """Column blocks for which this core holds *all* row blocks of
        ``copy`` — their outputs are complete without cross-core sums."""
        rows_per_col: dict[int, set[int]] = {}
        for sl in self.slices:
            if sl.core != core or sl.copy != copy:
                continue
            for cb in range(sl.col_lo, sl.col_hi):
                rows_per_col.setdefault(cb, set()).update(
                    range(sl.row_lo, sl.row_hi))
        full = set(range(self.tiling.row_blocks))
        return {cb for cb, rows in rows_per_col.items() if rows == full}

    def is_split(self) -> bool:
        """Whether any copy has a column block spread across cores."""
        for copy in range(self.copies):
            cores_of_copy = {sl.core for sl in self.slices if sl.copy == copy}
            if len(cores_of_copy) <= 1:
                continue
            owned = set()
            for core in cores_of_copy:
                owned |= self.owned_col_blocks(core, copy)
            if owned != set(range(self.tiling.col_blocks)):
                return True
        return False

    def validate(self) -> None:
        """Every copy must tile the full matrix exactly once."""
        for copy in range(self.copies):
            covered: dict[tuple[int, int], int] = {}
            for sl in self.slices:
                if sl.copy != copy:
                    continue
                for r in range(sl.row_lo, sl.row_hi):
                    for c in range(sl.col_lo, sl.col_hi):
                        covered[(r, c)] = covered.get((r, c), 0) + 1
            expected = self.tiling.row_blocks * self.tiling.col_blocks
            if len(covered) != expected or any(v != 1 for v in covered.values()):
                raise CompileError(
                    f"stage {self.stage.name!r} copy {copy}: weight tiles "
                    f"covered {len(covered)}/{expected} (duplicates: "
                    f"{sum(1 for v in covered.values() if v > 1)})"
                )

    def pixel_share(self, copy: int, lo: int, hi: int) -> tuple[int, int]:
        """Partition of a tile's pixel range [lo,hi) among copies.

        Pixels are dealt to copies in contiguous chunks; returns the chunk
        of ``copy`` (possibly empty -> lo == hi).
        """
        total = hi - lo
        base = total // self.copies
        extra = total % self.copies
        start = lo + copy * base + min(copy, extra)
        size = base + (1 if copy < extra else 0)
        return start, start + size


@dataclass
class Placement:
    """Placement of every compute stage of a network."""

    policy: str
    plans: dict[str, StagePlan] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    #: dynamic (token-shardable) aux stage -> cores sharing its token
    #: range, home core first; filled by :func:`assign_shard_groups`
    #: when ``compiler.attention_shards > 1``.
    shard_groups: dict[str, list[int]] = field(default_factory=dict)

    def plan(self, stage_name: str) -> StagePlan:
        try:
            return self.plans[stage_name]
        except KeyError:
            raise CompileError(f"no placement for stage {stage_name!r}") from None

    def crossbars_per_core(self) -> dict[int, int]:
        """Physical crossbars claimed on each core."""
        out: dict[int, int] = {}
        for plan in self.plans.values():
            for sl in plan.slices:
                out[sl.core] = out.get(sl.core, 0) + sl.n_tiles
        return out

    def stages_per_core(self) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for name, plan in self.plans.items():
            for core in plan.cores:
                out.setdefault(core, []).append(name)
        return out

    def validate(self, crossbars_per_core: int) -> None:
        for plan in self.plans.values():
            plan.validate()
        for core, used in self.crossbars_per_core().items():
            if used > crossbars_per_core:
                raise CompileError(
                    f"core {core} over-subscribed: {used} crossbars > "
                    f"capacity {crossbars_per_core}"
                )

    def summary(self) -> str:
        per_core = self.crossbars_per_core()
        lines = [f"placement ({self.policy}): {len(self.plans)} stages on "
                 f"{len(per_core)} cores"]
        for name, plan in self.plans.items():
            lines.append(
                f"  {name:<24} copies={plan.copies} cores={plan.cores} "
                f"tiles/copy={plan.tiling.crossbars_per_copy} "
                f"{'SPLIT' if plan.is_split() else ''}"
            )
        return "\n".join(lines)


def stage_homes(pipeline: Pipeline,
                placement: Placement) -> dict[str, int | None]:
    """Home core per stage: ``None`` for network inputs, the plan's home
    for compute stages, and for every other stage its first placed
    producer's home (a free local handoff for that input), else core 0."""
    homes: dict[str, int | None] = {}
    for stage in pipeline:
        if stage.kind == "input":
            homes[stage.name] = None
        elif stage.kind == "compute":
            homes[stage.name] = placement.plan(stage.name).home_core
        else:
            home = None
            for edge in stage.edges:
                home = homes.get(edge.producer)
                if home is not None:
                    break
            homes[stage.name] = 0 if home is None else home
    return homes


def assign_shard_groups(pipeline: Pipeline, placement: Placement, config,
                        homes: dict[str, int | None],
                        tile_pixels: int) -> None:
    """Assign a shard group to every token-shardable dynamic stage.

    The scale-out move of the crossbar mapping's split conv layers,
    applied to the vector unit: each dynamic attention op (matmul /
    per-head softmax / layernorm / gelu) gets ``attention_shards`` cores
    that each compute a contiguous slice of its token range and gather
    partial results back to the home core.  The group is the home core
    plus its nearest mesh neighbours (Manhattan distance, core-id
    tie-break — deterministic), capped by the stage's tile count: a
    shard with no tiles would be pure overhead.

    ``compiler.shard_placement="load_aware"`` adds a static-crossbar-load
    penalty (one mesh hop per full relative load) to each neighbour's
    distance, so cores already hot with crossbar work are skipped when an
    idle core is at most a hop farther — the fix for the scaling-curve
    tail where the nearest neighbour is also the busiest core.  The
    default ``"distance"`` keeps the classic ordering bit-identical.

    Stores the groups on ``placement.shard_groups`` (home first); stages
    keep the classic single-core lowering when the effective group is 1.
    """
    shards = config.compiler.attention_shards
    if shards <= 1:
        return
    n_cores = config.chip.n_cores
    load_aware = config.compiler.shard_placement == "load_aware"
    loads = placement.crossbars_per_core() if load_aware else {}
    max_load = max(loads.values(), default=0)
    for stage in pipeline:
        if stage.kind != "aux" or not stage.shardable:
            continue
        n = min(shards, n_tiles(stage, tile_pixels), n_cores)
        if n <= 1:
            continue
        home = homes[stage.name]
        if home is None:  # pragma: no cover - aux homes are always set
            continue
        hx, hy = config.core_xy(home)

        def distance(core: int) -> int:
            x, y = config.core_xy(core)
            return abs(x - hx) + abs(y - hy)

        def score(core: int) -> float:
            # Load-aware placement: a fully loaded core costs as much as
            # one extra mesh hop, so sharding trades at most one hop of
            # gather distance to land on an idle core.  Deterministic:
            # the penalty is a pure function of the static placement,
            # and ties fall back to distance then core id.
            if not load_aware or max_load == 0:
                return float(distance(core))
            return distance(core) + loads.get(core, 0) / max_load

        order = sorted(range(n_cores),
                       key=lambda c: (c != home, score(c), distance(c), c))
        placement.shard_groups[stage.name] = order[:n]
