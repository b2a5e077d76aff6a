"""Region-granularity cache model.

Tracks which data regions currently reside in each core's private L2 and
each socket's shared L3 with LRU replacement.  When the simulated executor
dispatches a task to a core, :meth:`CacheModel.access` classifies the
task's traffic per region — L2 hit, L3 hit, local-DRAM miss, or
remote-socket (NUMA) miss — and updates residency.

The model is deliberately coarse (whole regions, not lines): the paper's
locality claims are about *task-level* reuse — running the next cell of a
layer on the core that still holds the layer's weights — which is exactly
region-level residency.  Traffic volumes are scaled by a per-kind reuse
factor because a GEMM streams its operands several times when they exceed
the L2 (see :class:`repro.simarch.costmodel.CostModel`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.runtime.task import INTERLEAVED_HOME, Region, Task
from repro.simarch.machine import MachineSpec


@dataclass
class CacheAccess:
    """Classified traffic (bytes) of one task dispatch."""

    l2_bytes: int = 0
    l3_bytes: int = 0
    local_mem_bytes: int = 0
    remote_mem_bytes: int = 0

    @property
    def miss_bytes(self) -> int:
        """Bytes served by DRAM (local + remote): the L3-miss traffic."""
        return self.local_mem_bytes + self.remote_mem_bytes

    @property
    def total_bytes(self) -> int:
        return self.l2_bytes + self.l3_bytes + self.miss_bytes


class _LRUSet:
    """An LRU set of regions bounded by a byte capacity.

    ``holders`` is a shared map ``id(region) -> set of set-indices`` kept in
    sync on insert/evict so writers can invalidate peer copies without
    scanning every cache in the machine.
    """

    __slots__ = ("capacity", "occupancy", "_entries", "_holders", "_index")

    def __init__(self, capacity: int, holders: Dict[int, set], index: int) -> None:
        self.capacity = int(capacity)
        self.occupancy = 0
        self._entries: "OrderedDict[int, Region]" = OrderedDict()
        self._holders = holders
        self._index = index

    def __contains__(self, region: Region) -> bool:
        return id(region) in self._entries

    def touch(self, region: Region) -> None:
        self._entries.move_to_end(id(region))

    def _note(self, rid: int) -> None:
        holders = self._holders.get(rid)
        if holders is None:
            holders = self._holders[rid] = set()
        holders.add(self._index)

    def _unnote(self, rid: int) -> None:
        holders = self._holders.get(rid)
        if holders is not None:
            holders.discard(self._index)

    def insert(self, region: Region) -> List[Region]:
        """Insert ``region``; return the regions evicted to make room.

        A region larger than the whole set is *not* cached (it streams).
        """
        if region.nbytes > self.capacity:
            return []
        rid = id(region)
        if rid in self._entries:
            self._entries.move_to_end(rid)
            return []
        evicted: List[Region] = []
        while self.occupancy + region.nbytes > self.capacity and self._entries:
            vid, victim = self._entries.popitem(last=False)
            self.occupancy -= victim.nbytes
            self._unnote(vid)
            evicted.append(victim)
        self._entries[rid] = region
        if region.streaming:
            # Scan-resistant insertion (adaptive-insertion LLC policy):
            # use-once data enters at the LRU end so it cannot displace the
            # reused working set.
            self._entries.move_to_end(rid, last=False)
        self.occupancy += region.nbytes
        self._note(rid)
        return evicted

    def invalidate(self, region: Region) -> None:
        rid = id(region)
        if rid in self._entries:
            del self._entries[rid]
            self.occupancy -= region.nbytes
            self._unnote(rid)


class CacheModel:
    """L2-per-core / L3-per-socket residency tracker with NUMA homing."""

    def __init__(self, machine: MachineSpec, active_sockets: int = 0) -> None:
        self.machine = machine
        #: sockets the current run actually uses; a single-socket run (the
        #: paper pins ≤24-core runs with numactl) allocates interleaved
        #: pages locally, so INTERLEAVED_HOME degrades to "local".
        self.active_sockets = active_sockets or machine.n_sockets
        self._l2_holders: Dict[int, set] = {}
        self._l3_holders: Dict[int, set] = {}
        self._l2 = [
            _LRUSet(machine.l2_bytes, self._l2_holders, c) for c in range(machine.n_cores)
        ]
        self._l3 = [
            _LRUSet(machine.l3_bytes, self._l3_holders, s) for s in range(machine.n_sockets)
        ]
        # aggregate counters (bytes) for reporting
        self.stats = CacheAccess()

    def access(self, core: int, task: Task, reuse: float = 1.0) -> CacheAccess:
        """Charge ``task``'s data traffic on ``core`` and update residency.

        Each region is *fetched* once from wherever it currently resides.
        The extra ``reuse - 1`` sweeps of a blocked kernel re-read the
        region from the innermost level that can actually HOLD it: a region
        larger than the L2 streams from the L3 on every sweep, and one
        larger than the L3 streams from DRAM on every sweep.
        """
        socket = self.machine.socket_of(core)
        l2 = self._l2[core]
        l3 = self._l3[socket]
        acc = CacheAccess()
        for region in task.regions():
            fetch = region.nbytes
            re_read = int(region.nbytes * max(0.0, reuse - 1.0))
            # Level the repeated sweeps are served from (capacity-limited).
            if region.nbytes <= l2.capacity:
                re_level = "l2"
            elif region.nbytes <= l3.capacity:
                re_level = "l3"
            else:
                re_level = "mem"
            if region in l2:
                l2.touch(region)
                if region in l3:
                    l3.touch(region)
                acc.l2_bytes += fetch
            elif region in l3:
                l3.touch(region)
                acc.l3_bytes += fetch
                l2.insert(region)
            else:
                if region.home is None:
                    region.home = socket  # first touch homes the page
                if region.home == INTERLEAVED_HOME:
                    if self.active_sockets <= 1:
                        acc.local_mem_bytes += fetch
                    else:
                        acc.local_mem_bytes += fetch // 2
                        acc.remote_mem_bytes += fetch - fetch // 2
                elif region.home == socket:
                    acc.local_mem_bytes += fetch
                else:
                    acc.remote_mem_bytes += fetch
                l3.insert(region)
                l2.insert(region)
            if re_read:
                if re_level == "l2":
                    acc.l2_bytes += re_read
                elif re_level == "l3":
                    acc.l3_bytes += re_read
                elif region.home == INTERLEAVED_HOME:
                    if self.active_sockets <= 1:
                        acc.local_mem_bytes += re_read
                    else:
                        acc.local_mem_bytes += re_read // 2
                        acc.remote_mem_bytes += re_read - re_read // 2
                elif region.home == socket or region.home is None:
                    acc.local_mem_bytes += re_read
                else:
                    acc.remote_mem_bytes += re_read
        for w in task.writes():
            # A write installs the region in this core's caches and
            # invalidates any other core's private copy (MESI-style).
            rid = id(w)
            l2_holders = self._l2_holders.get(rid)
            if l2_holders:
                for other_core in list(l2_holders):
                    if other_core != core:
                        self._l2[other_core].invalidate(w)
            l3_holders = self._l3_holders.get(rid)
            if l3_holders:
                for other_socket in list(l3_holders):
                    if other_socket != socket:
                        self._l3[other_socket].invalidate(w)
        self.stats.l2_bytes += acc.l2_bytes
        self.stats.l3_bytes += acc.l3_bytes
        self.stats.local_mem_bytes += acc.local_mem_bytes
        self.stats.remote_mem_bytes += acc.remote_mem_bytes
        return acc
