"""LRU cache of compiled plans, keyed by ``(config fingerprint, shape)``.

The serving engine asks the cache before building a graph: a hit replays
the stored plan (and, on a functional substrate, reuses the stored graph
build), a miss builds the graph, compiles it and records the plan for the
next batch of that shape.  Counters are exported through :mod:`repro.obs`
(``repro_compile_*`` family) when a registry is attached; the hot path
pays a handful of dict operations per *batch*, never per task.

Entries carry an opaque ``payload`` alongside the plan (the sim engine
stores the memoised ``(service_time, trace)``, the threaded engine the
reusable :class:`~repro.core.graph_builder.GraphBuildResult`).  Payloads
are runtime-only: :meth:`PlanCache.save` persists keys and plans
(``repro.plancache.v1``).  A restored entry has ``payload=None``; the
engine's first hit on it builds the graph (sim: and memoises its service
time) around the stored plan and counts as warm, with no recompilation.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.compile.plan import CompiledPlan

CACHE_FORMAT = "repro.plancache.v1"

#: default capacity: serving workloads bucket sequence lengths, so live
#: shape counts stay small; 32 distinct (config, shape) plans is generous
DEFAULT_CAPACITY = 32


@dataclass
class CacheEntry:
    """One cached plan plus the engine's substrate-specific payload."""

    plan: CompiledPlan
    payload: Any = None


def _key_to_json(key: Hashable) -> list:
    fp, shape = key
    return [fp, list(shape)]


def _key_from_json(data: list) -> Tuple[str, tuple]:
    return (data[0], tuple(data[1]))


class PlanCache:
    """LRU map ``(config fingerprint, input shape) → CacheEntry``."""

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

    def __len__(self) -> int:
        return len(self._entries)

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

    def put(self, key: Hashable, plan: CompiledPlan, payload: Any = None) -> CacheEntry:
        """Insert a freshly compiled plan, evicting the LRU entry if full."""
        entry = CacheEntry(plan=plan, payload=payload)
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self.compiles += 1
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

    # -- persistence -------------------------------------------------------------

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(
            {
                "format": CACHE_FORMAT,
                "n_entries": len(self._entries),
                "entries": [
                    {
                        "key": _key_to_json(key),
                        "plan": json.loads(entry.plan.to_json()),
                    }
                    for key, entry in self._entries.items()
                ],
            },
            indent=indent,
        )

    def save(self, path: str) -> None:
        """Persist keys and plans (payloads are runtime-only)."""
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    def load(self, path: str) -> int:
        """Merge persisted plans in (LRU order preserved); returns the count.

        Restored entries carry no payload: the engine rebuilds it around
        the stored plan on the entry's first hit, without recompiling.
        """
        with open(path) as fh:
            data = json.load(fh)
        if data.get("format") != CACHE_FORMAT:
            raise ValueError(f"not a plan cache: format={data.get('format')!r}")
        n = 0
        for item in data["entries"]:
            key = _key_from_json(item["key"])
            plan = CompiledPlan.from_json(json.dumps(item["plan"]))
            entry = CacheEntry(plan=plan)
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            n += 1
        self._publish()
        return n
