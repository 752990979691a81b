"""Crossbar group tables.

The ISA's *group mechanism*: crossbars that hold tiles of the same weight
matrix and consume the same input slice form a group and fire in parallel
under one matrix instruction.  The compiler registers every group it
creates in a per-core :class:`GroupTable`; the simulator instantiates one
parallel crossbar cluster per group, and the energy model charges the
group's active cells per MVM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Group", "GroupTable", "GroupError"]


class GroupError(ValueError):
    """Inconsistent group definition or lookup."""


@dataclass(frozen=True)
class Group:
    """One crossbar group on one core.

    ``rows``/``cols`` are the *logical* extent of the weight slice this
    group holds (<= crossbar size x group width); ``n_crossbars`` is how
    many physical crossbars fire in parallel.  ``layer``/``copy``/
    ``row_block`` identify the slice for reporting.
    """

    group_id: int
    layer: str
    copy: int
    row_block: int
    n_crossbars: int
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.n_crossbars < 1:
            raise GroupError(f"group {self.group_id}: needs >= 1 crossbar")
        if self.rows < 1 or self.cols < 1:
            raise GroupError(f"group {self.group_id}: empty extent {self.rows}x{self.cols}")

    @property
    def active_cells(self) -> int:
        """Weight cells engaged by one MVM through this group."""
        return self.rows * self.cols


@dataclass
class GroupTable:
    """All crossbar groups of one core, indexed by group id."""

    core: int
    groups: dict[int, Group] = field(default_factory=dict)
    _crossbars_used: int = 0

    def define(self, layer: str, copy: int, row_block: int, n_crossbars: int,
               rows: int, cols: int) -> Group:
        """Register a new group; ids are dense per core."""
        group = Group(
            group_id=len(self.groups),
            layer=layer,
            copy=copy,
            row_block=row_block,
            n_crossbars=n_crossbars,
            rows=rows,
            cols=cols,
        )
        self.groups[group.group_id] = group
        self._crossbars_used += n_crossbars
        return group

    def get(self, group_id: int) -> Group:
        try:
            return self.groups[group_id]
        except KeyError:
            raise GroupError(
                f"core {self.core}: undefined group {group_id} "
                f"(defined: 0..{len(self.groups) - 1})"
            ) from None

    @property
    def crossbars_used(self) -> int:
        """Total physical crossbars claimed by all groups on this core."""
        return self._crossbars_used

    def by_layer(self) -> dict[str, list[Group]]:
        """Groups bucketed by the layer they implement."""
        out: dict[str, list[Group]] = {}
        for group in self.groups.values():
            out.setdefault(group.layer, []).append(group)
        return out

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self):
        return iter(self.groups.values())
