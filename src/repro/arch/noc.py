"""Mesh network-on-chip and global memory models.

The chip interconnect is a 2D mesh with dimension-ordered (XY) routing.
A message occupies each link on its path in turn: per hop it arbitrates
for the link (FIFO), pays the hop latency plus the serialization time of
its payload, then moves on — a store-and-forward model that is slightly
pessimistic versus wormhole switching but preserves the contention and
backpressure behaviour the paper's synchronized-communication argument
rests on (contrast: MNSIM2.0's instantaneous, infinitely-buffered model,
reproduced in :mod:`repro.baseline`).
"""

from __future__ import annotations

import math
from typing import Generator

from ..config import ArchConfig
from ..sim import Resource, Simulator
from .energy import EnergyMeter

__all__ = ["MeshNoc", "GlobalMemory", "xy_route"]

Coord = tuple[int, int]


def xy_route(src: Coord, dst: Coord) -> list[tuple[Coord, Coord]]:
    """Dimension-ordered route: X (columns) first, then Y (rows).

    Returns the list of directed links ((from, to) coordinate pairs).
    """
    links: list[tuple[Coord, Coord]] = []
    r, c = src
    while c != dst[1]:
        step = 1 if dst[1] > c else -1
        links.append(((r, c), (r, c + step)))
        c += step
    while r != dst[0]:
        step = 1 if dst[0] > r else -1
        links.append(((r, c), (r + step, c)))
        r += step
    return links


class MeshNoc:
    """The chip's mesh interconnect.

    Hot-path design: XY routes are pure functions of the (src, dst) pair,
    so they are memoized per coordinate pair (and per core pair in
    :meth:`transmit`); link locks (one-slot resources) take the
    frame-free :meth:`~repro.sim.Resource.try_acquire` path when the
    link is free; and
    with ``model_contention=False`` there is nothing to arbitrate per hop,
    so the whole traversal collapses into a single timed wait of the
    path's total latency.
    """

    def __init__(self, sim: Simulator, config: ArchConfig,
                 energy: EnergyMeter) -> None:
        self.sim = sim
        self.config = config
        self.energy = energy
        self._links: dict[tuple[Coord, Coord], Resource] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        self.byte_hops = 0
        #: traffic per directed link, for hotspot analysis.
        self.link_bytes: dict[tuple[Coord, Coord], int] = {}
        #: memoized routes: (src, dst) coordinate pair -> link list.
        self._routes: dict[tuple[Coord, Coord], list[tuple[Coord, Coord]]] = {}
        #: memoized core-pair routes: (src_core, dst_core) -> link list.
        self._core_routes: dict[tuple[int, int], list[tuple[Coord, Coord]]] = {}

    def _link(self, key: tuple[Coord, Coord]) -> Resource:
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = Resource(self.sim, 1, f"link{key}")
        return link

    def core_xy(self, core_id: int) -> Coord:
        return self.config.core_xy(core_id)

    def _route(self, src: Coord, dst: Coord) -> list[tuple[Coord, Coord]]:
        path = self._routes.get((src, dst))
        if path is None:
            path = self._routes[(src, dst)] = xy_route(src, dst)
        return path

    def transmit(self, src_core: int, dst_core: int, nbytes: int) -> Generator:
        """Coroutine: move ``nbytes`` from one core to another."""
        path = self._core_routes.get((src_core, dst_core))
        if path is None:
            path = self._core_routes[(src_core, dst_core)] = self._route(
                self.core_xy(src_core), self.core_xy(dst_core))
        yield from self._transmit_path(path, nbytes)

    def transmit_xy(self, src: Coord, dst: Coord, nbytes: int) -> Generator:
        yield from self._transmit_path(self._route(src, dst), nbytes)

    def _transmit_path(self, path: list[tuple[Coord, Coord]],
                       nbytes: int) -> Generator:
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if not path:
            # Same-node transfer: it still counts as one message of
            # ``nbytes`` (the local delivery really happens), but it
            # traverses zero links — no byte-hops, no link traffic, no
            # NoC energy, no latency (pinned by tests/test_arch_noc.py).
            return
        noc_cfg = self.config.noc
        hop_latency = noc_cfg.hop_cycles \
            + -(-nbytes // noc_cfg.link_bytes_per_cycle)
        self.byte_hops += nbytes * len(path)
        self.energy.noc_traffic(self.config.energy, nbytes, len(path))
        link_bytes = self.link_bytes
        if not noc_cfg.model_contention:
            # Nothing arbitrates per hop, so the traversal is one timed
            # wait for the path's total latency.  Total arrival time is
            # identical to the seed's per-hop yields; only the process's
            # intermediate wake positions disappear (the mode is pinned
            # by tests/test_arch_noc.py::test_no_contention_cycle_count).
            for key in path:
                link_bytes[key] = link_bytes.get(key, 0) + nbytes
            yield hop_latency * len(path)
            return
        for key in path:
            link_bytes[key] = link_bytes.get(key, 0) + nbytes
            link = self._link(key)
            if not link.try_acquire():
                yield from link.acquire()
            yield hop_latency
            link.release()

    def hops(self, src_core: int, dst_core: int) -> int:
        return len(self._route(self.core_xy(src_core), self.core_xy(dst_core)))

    def hottest_links(self, n: int = 8) -> list[tuple[str, int]]:
        """The ``n`` busiest directed links as ("(r,c)->(r,c)", bytes)."""
        ranked = sorted(self.link_bytes.items(), key=lambda kv: -kv[1])[:n]
        return [(f"{a}->{b}", nbytes) for (a, b), nbytes in ranked]


class GlobalMemory:
    """The chip's global memory behind a bandwidth-limited port."""

    def __init__(self, sim: Simulator, config: ArchConfig, noc: MeshNoc,
                 energy: EnergyMeter) -> None:
        self.sim = sim
        self.config = config
        self.noc = noc
        self.energy = energy
        self._port = Resource(sim, 1, "gmem.port")
        self.bytes_read = 0
        self.bytes_written = 0

    def access(self, core_id: int, nbytes: int, *, write: bool) -> Generator:
        """Coroutine: one LOAD (read) or STORE (write) from a core.

        Cost: mesh traversal to the memory access point, port arbitration,
        access latency and payload serialization at the memory bandwidth.
        """
        chip = self.config.chip
        core = self.noc.core_xy(core_id)
        yield from self.noc.transmit_xy(core, chip.global_memory_xy, nbytes)
        if not self._port.try_acquire():
            yield from self._port.acquire()
        yield chip.global_memory_latency_cycles + math.ceil(
            nbytes / chip.global_memory_bytes_per_cycle)
        self._port.release()
        self.energy.global_mem(self.config.energy, nbytes)
        if write:
            self.bytes_written += nbytes
        else:
            self.bytes_read += nbytes
