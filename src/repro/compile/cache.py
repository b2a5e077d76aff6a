"""LRU cache of per-shape serving state, keyed by batch shape ``(padded_len, size)``.

The serving engine asks the cache before building a graph.  On the
simulated substrate a miss builds the graph, compiles it and stores the
plan with its memoised ``(service_time, trace)`` payload, and a hit
returns that payload.  On a functional substrate an entry holds no plan
(``plan`` is ``None``): its payload is the shape's reusable
:class:`~repro.core.graph_builder.GraphBuildResult`, which a hit rebinds
and runs.  Counters are exported through :mod:`repro.obs`
(``repro_compile_*`` family) when a registry is attached; the hot path
pays a handful of dict operations per *batch*, never per task.  Each
engine owns its cache in memory; nothing is persisted.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional

from repro.compile.plan import CompiledPlan

#: default capacity: serving workloads bucket sequence lengths, so live
#: shape counts stay small; 32 distinct shapes is generous
DEFAULT_CAPACITY = 32


@dataclass
class CacheEntry:
    """One cached shape: its compiled plan (``None`` on a functional
    substrate) plus the engine's substrate-specific payload."""

    plan: Optional[CompiledPlan]
    payload: Any = None


class PlanCache:
    """LRU map ``(padded_len, size) → CacheEntry``."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        metrics=None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.metrics = metrics
        self._entries: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.compiles = 0
        self.last_compile_s = 0.0

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[CacheEntry]:
        """Look up ``key``, counting a hit (and refreshing LRU) or a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        self._publish()
        return entry

    def put(self, key: Hashable, plan: Optional[CompiledPlan], payload: Any = None) -> CacheEntry:
        """Insert a shape (``compiles`` counts them, plan or not), evicting
        the LRU entry if full."""
        entry = CacheEntry(plan=plan, payload=payload)
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self.compiles += 1
        if plan is not None:
            self.last_compile_s = float(plan.meta.get("compile_time_s", 0.0))
        self._publish()
        return entry

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "compiles": self.compiles,
            "size": len(self._entries),
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
            "last_compile_s": self.last_compile_s,
        }

    def _publish(self) -> None:
        if self.metrics is not None:
            from repro.obs.publish import publish_plan_cache

            publish_plan_cache(self.metrics, self.stats())

