"""Graph compilation and cached plan replay (docs/COMPILE.md).

``compile_graph`` turns a built :class:`~repro.runtime.depgraph.TaskGraph`
into a :class:`CompiledPlan` — transitive-reduced edge set plus a
list-scheduled release order priced by the ``simarch`` cost model — that
both executors replay without re-resolving dependences per batch.
``PlanCache`` memoises plans in memory per batch shape ``(padded_len,
size)`` for the serving hot path (``ExecutionConfig(compile="on")``).
"""

from repro.compile.cache import CacheEntry, PlanCache
from repro.compile.compiler import compile_graph, estimate_duration
from repro.compile.plan import CompiledPlan
from repro.compile.warmup import length_buckets, plan_warmup_shapes

__all__ = [
    "CacheEntry",
    "CompiledPlan",
    "PlanCache",
    "compile_graph",
    "estimate_duration",
    "length_buckets",
    "plan_warmup_shapes",
]
