"""Graph compilation and cached plan replay (docs/COMPILE.md).

``compile_graph`` turns a built :class:`~repro.runtime.depgraph.TaskGraph`
into a :class:`CompiledPlan` — transitive-reduced edge set plus a
list-scheduled release order priced by the ``simarch`` cost model — that
the simulated executor replays without re-resolving dependences, and that
:func:`repro.runtime.racecheck.check_plan` audits.  ``PlanCache`` keeps
one entry per batch shape ``(padded_len, size)`` for the serving hot path
(``ExecutionConfig(compile="on")``): a plan on ``sim``, the shape's graph
build on a real executor.
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
