"""Task and data-region primitives.

A :class:`Task` is a sequential piece of work (in B-Par, the update of one
RNN cell) plus the set of data :class:`Region` objects it reads and writes.
Regions play the role of the ``c_f[...]`` / ``c_r[...]`` addresses that the
paper's ``#pragma omp task in(...) out(...)`` annotations name: the runtime
never inspects array contents, it only matches region identities to derive
dependences.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, Hashable, Iterable, Optional, Tuple


#: sentinel ``Region.home`` value: pages interleaved across sockets
INTERLEAVED_HOME = -1


class AccessMode(enum.Enum):
    """How a task accesses a region (mirrors OmpSs ``in``/``out``/``inout``)."""

    IN = "in"
    OUT = "out"
    INOUT = "inout"


class Region:
    """A named piece of data tracked by the dependency system.

    Parameters
    ----------
    key:
        Hashable identity, e.g. ``("hf", mb, layer, t)``.  Two tasks touch
        "the same data" iff their region keys are equal.
    nbytes:
        Size of the region in bytes.  Used by the simulated machine's cache
        model and by working-set accounting; irrelevant for correctness.
    home:
        NUMA home socket (first-touch).  ``None`` until first written on the
        simulated machine; ``INTERLEAVED_HOME`` for page-interleaved
        allocations (shared read-mostly data such as layer weights).
    streaming:
        Use-once data (per-timestep activations, caches, gradients-in-
        flight).  The cache model inserts such regions scan-resistantly so
        they do not evict the reused working set (weights), mirroring the
        adaptive-insertion policies of real LLCs.
    """

    __slots__ = ("key", "nbytes", "home", "streaming")

    def __init__(
        self,
        key: Hashable,
        nbytes: int = 0,
        home: Optional[int] = None,
        streaming: bool = False,
    ):
        self.key = key
        self.nbytes = int(nbytes)
        self.home = home
        self.streaming = streaming


class RegionSpace:
    """Interning table for regions so each key maps to one object.

    Graph builders ask the space for regions by key; the first request fixes
    the region's size.  Sharing one object per key lets the cache model and
    the dependency tracker agree on identity without hashing large tuples
    repeatedly.
    """

    def __init__(self) -> None:
        self._regions: Dict[Hashable, Region] = {}

    def get(self, key: Hashable, nbytes: int = 0, streaming: bool = False) -> Region:
        """Return the region for ``key``, creating it on first use."""
        region = self._regions.get(key)
        if region is None:
            region = Region(key, nbytes, streaming=streaming)
            self._regions[key] = region
        elif nbytes and not region.nbytes:
            region.nbytes = int(nbytes)
        return region

    def __len__(self) -> int:
        return len(self._regions)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._regions

    def regions(self) -> Iterable[Region]:
        return self._regions.values()


class Task:
    """A sequential unit of work with explicit data dependences.

    ``fn`` may be ``None`` for purely-simulated graphs (timing studies that
    never execute numerics).  ``flops`` and the region sizes feed the
    simulated-machine cost model; they do not affect the threaded executor.
    """

    __slots__ = (
        "tid",
        "name",
        "fn",
        "ins",
        "outs",
        "inouts",
        "flops",
        "kind",
        "meta",
        "_regions",
        "_region_ids",
        "_wss",
    )

    def __init__(
        self,
        name: str,
        fn: Optional[Callable[[], None]] = None,
        ins: Iterable[Region] = (),
        outs: Iterable[Region] = (),
        inouts: Iterable[Region] = (),
        flops: float = 0.0,
        kind: str = "task",
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.tid: int = -1  # assigned by TaskGraph.add
        self.name = name
        self.fn = fn
        self.ins: Tuple[Region, ...] = tuple(ins)
        self.outs: Tuple[Region, ...] = tuple(outs)
        self.inouts: Tuple[Region, ...] = tuple(inouts)
        self.flops = float(flops)
        self.kind = kind
        self.meta = meta or {}
        self._regions: Optional[Tuple[Region, ...]] = None
        self._region_ids: Optional[frozenset] = None
        self._wss: Optional[int] = None

    # -- derived views -----------------------------------------------------

    def reads(self) -> Tuple[Region, ...]:
        """Regions the task reads (``in`` + ``inout``)."""
        return self.ins + self.inouts

    def writes(self) -> Tuple[Region, ...]:
        """Regions the task writes (``out`` + ``inout``)."""
        return self.outs + self.inouts

    def regions(self) -> Tuple[Region, ...]:
        """All regions the task touches, without duplicates (cached)."""
        if self._regions is None:
            seen = {}
            for r in self.ins + self.outs + self.inouts:
                seen[id(r)] = r
            self._regions = tuple(seen.values())
        return self._regions

    def region_ids(self) -> frozenset:
        """Identity set of the task's regions (cached; for overlap tests)."""
        if self._region_ids is None:
            self._region_ids = frozenset(id(r) for r in self.regions())
        return self._region_ids

    def working_set_bytes(self) -> int:
        """Bytes of data this task touches (the paper's per-task WSS), fixed
        at the first call, which runs make: builds may still grow a region."""
        if self._wss is None:
            self._wss = sum(r.nbytes for r in self.regions())
        return self._wss

    def run(self) -> None:
        """Execute the payload (no-op for simulation-only tasks)."""
        if self.fn is not None:
            self.fn()

    def shares_data_with(self, other: "Task") -> bool:
        """True when the two tasks touch at least one common region."""
        return not self.region_ids().isdisjoint(other.region_ids())

    def access_mode(self, region: Region) -> Optional[AccessMode]:
        """Declared mode for ``region`` (``None`` when undeclared).

        ``inout`` wins over a duplicate ``in``/``out`` listing; the race
        checker uses this to phrase findings in OmpSs vocabulary.
        """
        rid = id(region)
        if any(id(r) == rid for r in self.inouts):
            return AccessMode.INOUT
        if any(id(r) == rid for r in self.outs):
            return AccessMode.OUT
        if any(id(r) == rid for r in self.ins):
            return AccessMode.IN
        return None
