"""Spans recorded from outside the program.

The benchmark wraps public callables of ``repro`` for the length of a traced
pass and puts the originals back afterwards; nothing inside ``src/`` knows it
is being traced.  Every wrapped callable is called on the benchmark's main
thread (executors start their workers inside ``run``; the fleet loop is
single-threaded), so one stack is enough to find a span's parent.

A span is ``[name, layer, start, end, parent, trace]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``trace`` the id shared by all
spans of one step or one ``FleetServer.run``.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

NAME, LAYER, START, END, PARENT, TRACE = range(6)

#: (owner path, attribute, span name, layer).  Module attributes are the
#: names the callers imported, which is where the call is looked up.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.core.bpar", "build_brnn_graph", "build_brnn_graph", "core"),
    ("repro.serve.engine", "build_brnn_graph", "build_brnn_graph", "core"),
    ("repro.runtime.executor:ThreadedExecutor", "run", "executor.run", "runtime"),
    ("repro.runtime.mpexec:MultiprocessExecutor", "run", "executor.run", "runtime"),
    ("repro.runtime.simexec:SimulatedExecutor", "run", "executor.run", "runtime"),
    ("repro.serve.engine", "compile_graph", "compile_graph", "compile"),
    ("repro.compile.cache:PlanCache", "get", "PlanCache.get", "compile"),
    ("repro.serve.admission:AdmissionController", "admit", "admit", "serve"),
    ("repro.serve.router:LeastLoadedRouter", "route", "route", "serve"),
    ("repro.serve.router:ConsistentHashRouter", "route", "route", "serve"),
    ("repro.serve.queue:RequestQueue", "push", "queue.push", "serve"),
    ("repro.serve.queue:RequestQueue", "expire", "queue.expire", "serve"),
    ("repro.serve.queue:RequestQueue", "take", "queue.take", "serve"),
    ("repro.serve.batcher:DynamicBatcher", "next_batch", "batcher.next_batch", "serve"),
    ("repro.serve.batcher:DynamicBatcher", "next_flush_time", "batcher.next_flush_time", "serve"),
    ("repro.serve.engine:InferenceEngine", "execute", "engine.execute", "serve"),
    ("repro.serve.fleet:FleetStats", "record_shed", "stats.record_shed", "serve"),
    ("repro.serve.fleet:FleetStats", "record_batch", "stats.record_batch", "serve"),
    ("repro.serve.fleet:FleetStats", "record_completion", "stats.record_completion", "serve"),
    ("repro.serve.fleet:FleetStats", "record_routing", "stats.record_routing", "serve"),
    ("repro.serve.fleet:FleetStats", "record_replica_depth", "stats.record_replica_depth", "serve"),
)


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: span name -> return values of that callable, for names put here beforehand
        self.capture: Dict[str, list] = {}
        self._stack: List[int] = []
        self._trace = -1

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        kept = self.capture.get(name)

        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self._trace]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if kept is not None:
                kept.append(result)
            return result

        return traced

    @contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Wrap every target; put every original back on exit."""
        undo = []
        try:
            for path, attr, name, layer in TARGETS:
                owner = _resolve(path)
                own = attr in vars(owner)  # inherited methods are removed again
                undo.append((owner, attr, vars(owner)[attr] if own else None, own))
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, layer))
            yield self
        finally:
            for owner, attr, original, own in reversed(undo):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    @contextmanager
    def root(self, name: str) -> Iterator[list]:
        """One step or one ``FleetServer.run``: a new trace id and its root span."""
        self._trace += 1
        rec = [name, "bench", 0.0, 0.0, -1, self._trace]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    # -- reading ---------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: its duration minus the part its children cover.

        Children of one parent never overlap (one thread, one stack), so
        their cover is the sum of their durations.
        """
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def totals(self, first_trace: int = 0) -> Dict[str, Dict[str, float]]:
        """``{span name: {"layer", "count", "total_s", "self_s"}}`` from one trace id on."""
        selfs = self.self_times()
        out: Dict[str, Dict[str, float]] = {}
        for s, self_s in zip(self.spans, selfs):
            if s[TRACE] < first_trace:
                continue
            row = out.setdefault(
                s[NAME], {"layer": s[LAYER], "count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += s[END] - s[START]
            row["self_s"] += self_s
        return out

    def durations(
        self, name: str, first_trace: int = 0, parent: Optional[str] = None
    ) -> List[float]:
        """Durations of the spans called ``name``, optionally only those under ``parent``."""
        return [
            s[END] - s[START]
            for s in self.spans
            if s[NAME] == name
            and s[TRACE] >= first_trace
            and (parent is None or (s[PARENT] >= 0 and self.spans[s[PARENT]][NAME] == parent))
        ]

    def write(self, path: str, meta: Optional[dict] = None) -> None:
        """One JSON document (gzipped if ``path`` ends in ``.gz``).

        ``names`` lists ``[span name, layer]``; a row of ``spans`` is ``[index
        into names, start_us, end_us, parent row or -1, trace id]``, times
        counted from the first span.
        """
        names = sorted({(s[NAME], s[LAYER]) for s in self.spans})
        index = {pair: i for i, pair in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [
            [index[s[NAME], s[LAYER]], round((s[START] - t0) * 1e6, 1),
             round((s[END] - t0) * 1e6, 1), s[PARENT], s[TRACE]]
            for s in self.spans
        ]
        opener = gzip.open if path.endswith(".gz") else open
        with opener(path, "wt", encoding="utf-8") as fh:  # text mode: json writes str
            json.dump(
                {
                    "meta": meta or {},
                    "names": names,
                    "columns": ["name", "start_us", "end_us", "parent", "trace"],
                    "spans": rows,
                },
                fh,
                separators=(",", ":"),
            )
