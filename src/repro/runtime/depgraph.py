"""Dynamic dependency-graph construction with OmpSs semantics.

Tasks are registered in the (sequentially valid) order a serial execution
would run them — exactly how Algorithms 2 and 3 of the paper create tasks.
For every region the tracker keeps the last writer and the readers seen
since that write, and derives:

* RAW — a reader depends on the last writer of each ``in`` region;
* WAW — a writer depends on the previous writer of each ``out`` region;
* WAR — a writer depends on every reader since the last write.

Because edges always point from an earlier-registered task to a later one,
the graph is acyclic by construction.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.runtime.task import Region, Task


def transitive_reduction(
    successors: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], List[Tuple[int, int]]]:
    """Split a DAG's edges into order-defining and redundant sets.

    An edge ``a → b`` is *redundant* when some other successor ``s`` of
    ``a`` already reaches ``b`` (a path ``a → s → … → b`` exists), so the
    edge adds no ordering the rest of the graph does not imply.  Returns
    ``(reduced, redundant)`` where ``reduced`` is the successor list of
    the transitive reduction — the unique minimal graph with the same
    reachability — and ``redundant`` lists the dropped edges.

    The dependence tracker derives one edge per (region, hazard) pair, so
    redundant edges are *normal* in declared graphs; what the static
    analyzer cares about is their count (dependence-management overhead,
    cf. Bosch et al.) and that removing them leaves span and width
    unchanged.  Requires tasks stored in a topological tid order (true by
    construction for :class:`TaskGraph`).
    """
    desc = descendants_bitsets(successors)
    reduced: List[List[int]] = []
    redundant: List[Tuple[int, int]] = []
    for a, succs in enumerate(successors):
        keep: List[int] = []
        for b in succs:
            if any(s != b and (desc[s] >> b) & 1 for s in succs):
                redundant.append((a, b))
            else:
                keep.append(b)
        reduced.append(keep)
    return reduced, redundant


def longest_path(
    successors: Sequence[Sequence[int]],
    weights: Sequence[float],
) -> float:
    """Longest weighted path through a DAG given in topological tid order.

    The body of :meth:`TaskGraph.critical_path_length`, also for callers
    that analyse *derived* edge sets (a transitive reduction, a
    dataflow-only subgraph) without materialising a new ``TaskGraph``.
    """
    n = len(successors)
    dist = [0.0] * n
    best = 0.0
    for tid in range(n):
        d = dist[tid] + weights[tid]
        for succ in successors[tid]:
            if d > dist[succ]:
                dist[succ] = d
        if d > best:
            best = d
    return best


def wavefront_width(successors: Sequence[Sequence[int]]) -> int:
    """Maximum ASAP-level population of a DAG in topological tid order
    (:meth:`TaskGraph.max_wavefront`)."""
    n = len(successors)
    level = [0] * n
    for tid in range(n):
        for succ in successors[tid]:
            if level[tid] + 1 > level[succ]:
                level[succ] = level[tid] + 1
    counts: Dict[int, int] = {}
    for lv in level:
        counts[lv] = counts.get(lv, 0) + 1
    return max(counts.values()) if counts else 0


def descendants_bitsets(successors: Sequence[Sequence[int]]) -> List[int]:
    """Transitive-closure bitsets of a DAG given in topological tid order.

    ``result[t]`` is an int whose bit ``s`` is set iff there is a path
    ``t → … → s``.  Requires the task list to be stored in a topological
    order (true by construction for :class:`TaskGraph`), so one reverse
    sweep suffices.  Python ints make this O(V·E/word) — cheap even for
    graphs of tens of thousands of tasks.
    """
    n = len(successors)
    desc = [0] * n
    for tid in range(n - 1, -1, -1):
        bits = 0
        for succ in successors[tid]:
            bits |= desc[succ] | (1 << succ)
        desc[tid] = bits
    return desc


class TaskGraph:
    """A DAG of tasks built incrementally from dependence annotations."""

    def __init__(self) -> None:
        self.tasks: List[Task] = []
        self.successors: List[List[int]] = []
        self.indegree: List[int] = []
        # Dependency-tracking state, keyed by region object identity.
        self._last_writer: Dict[int, int] = {}
        self._readers: Dict[int, List[int]] = {}
        # Most recent barrier task (every later task depends on it).
        self._barrier_tid: Optional[int] = None
        # Storage resolver bound by the graph builder (duck-typed: the
        # multiprocess executor maps it into shared memory through
        # map_storage).  None for hand-built graphs, whose payloads then
        # run on the storage they closed over.
        self.storage = None

    # -- construction --------------------------------------------------------

    def add(self, task: Task) -> Task:
        """Register ``task``, deriving its dependence edges.

        Returns the task with its ``tid`` assigned.
        """
        tid = len(self.tasks)
        task.tid = tid
        self.tasks.append(task)
        self.successors.append([])
        self.indegree.append(0)

        preds: Set[int] = set()
        for region in task.reads():
            writer = self._last_writer.get(id(region))
            if writer is not None:
                preds.add(writer)
        for region in task.writes():
            rid = id(region)
            writer = self._last_writer.get(rid)
            if writer is not None:
                preds.add(writer)
            for reader in self._readers.get(rid, ()):
                preds.add(reader)

        if self._barrier_tid is not None:
            preds.add(self._barrier_tid)
        preds.discard(tid)
        for pred in preds:
            self.successors[pred].append(tid)
            self.indegree[tid] += 1

        # Update tracking state *after* resolving dependences.
        for region in task.reads():
            self._readers.setdefault(id(region), []).append(tid)
        for region in task.writes():
            rid = id(region)
            self._last_writer[rid] = tid
            self._readers[rid] = []
        return task

    def add_task(
        self,
        name: str,
        fn=None,
        ins: Iterable[Region] = (),
        outs: Iterable[Region] = (),
        inouts: Iterable[Region] = (),
        flops: float = 0.0,
        kind: str = "task",
        meta=None,
    ) -> Task:
        """Convenience wrapper: build a :class:`Task` and :meth:`add` it."""
        return self.add(
            Task(name, fn, ins=ins, outs=outs, inouts=inouts, flops=flops, kind=kind, meta=meta)
        )

    def barrier(self, name: str = "barrier") -> Task:
        """Insert a full synchronisation point (OmpSs ``taskwait``).

        The barrier depends on every current *sink* task (a task no other
        task depends on yet); since every unfinished task has a path to
        some sink, sink completion implies global completion.  Every task
        registered afterwards depends on the barrier.  This models the
        per-layer barriers of the conventional frameworks; B-Par never
        calls it during normal operation — it exists for the barrier
        ablation and the framework baselines.
        """
        sinks = [t.tid for t in self.tasks if not self.successors[t.tid]]
        barrier = Task(name, None, kind="barrier")
        tid = len(self.tasks)
        barrier.tid = tid
        self.tasks.append(barrier)
        self.successors.append([])
        self.indegree.append(0)
        for sink in sinks:
            self.successors[sink].append(tid)
            self.indegree[tid] += 1
        self._barrier_tid = tid
        return barrier

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def roots(self) -> List[Task]:
        """Tasks with no unresolved dependences (ready at graph start)."""
        return [t for t in self.tasks if self.indegree[t.tid] == 0]

    def predecessors(self, tid: int) -> List[int]:
        """Predecessor tids of ``tid`` (derived; O(edges))."""
        return [p for p in range(len(self.tasks)) if tid in self.successors[p]]

    def num_edges(self) -> int:
        return sum(len(s) for s in self.successors)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """All dependence edges as ``(pred_tid, succ_tid)`` pairs."""
        for pred, succs in enumerate(self.successors):
            for succ in succs:
                yield pred, succ

    def transitive_reduction(self) -> Tuple[List[List[int]], List[Tuple[int, int]]]:
        """``(reduced successor lists, redundant edges)`` of this graph."""
        return transitive_reduction(self.successors)

    def redundant_edges(self) -> List[Tuple[int, int]]:
        """Declared edges that are not order-defining (see module helper)."""
        return self.transitive_reduction()[1]

    # -- reachability ---------------------------------------------------------

    def descendants_bitsets(self) -> List[int]:
        """Per-task transitive-closure bitsets (see module-level helper).

        Compute once and pass to :meth:`has_path`/:meth:`unordered` when
        querying many pairs — the closure is O(V·E/word), each query O(1).
        """
        return descendants_bitsets(self.successors)

    def has_path(self, src: int, dst: int, bits: Optional[List[int]] = None) -> bool:
        """True when a dependence path ``src → … → dst`` exists."""
        if bits is None:
            bits = self.descendants_bitsets()
        return bool((bits[src] >> dst) & 1)

    def unordered(self, a: int, b: int, bits: Optional[List[int]] = None) -> bool:
        """True when no dependence path orders ``a`` and ``b`` either way.

        The question the race checker asks: two such tasks may execute
        concurrently under *some* legal schedule, so any data conflict
        between them is a race.
        """
        if bits is None:
            bits = self.descendants_bitsets()
        return not ((bits[a] >> b) & 1 or (bits[b] >> a) & 1)

    def is_topological_order(self, order: Iterable[int]) -> bool:
        """Check that ``order`` (tids) respects every edge."""
        pos = {tid: i for i, tid in enumerate(order)}
        if len(pos) != len(self.tasks):
            return False
        for pred, succs in enumerate(self.successors):
            for succ in succs:
                if pos[pred] >= pos[succ]:
                    return False
        return True

    def validate_acyclic(self) -> bool:
        """True when a full topological sort exists (always, by construction)."""
        indeg = list(self.indegree)
        stack = [t.tid for t in self.tasks if indeg[t.tid] == 0]
        visited = 0
        while stack:
            tid = stack.pop()
            visited += 1
            for succ in self.successors[tid]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    stack.append(succ)
        return visited == len(self.tasks)

    def critical_path_length(self, weight=lambda t: 1.0) -> float:
        """Longest path through the DAG under ``weight`` (default: task count).

        With ``weight=duration`` this is the model-parallel lower bound on
        makespan, used by the parallel-efficiency analysis.
        """
        return longest_path(self.successors, [weight(t) for t in self.tasks])

    def max_wavefront(self) -> int:
        """Maximum number of simultaneously-runnable tasks (ASAP levels).

        An upper bound on useful core count for this graph — the quantity
        the paper invokes when explaining why mbs:1 stops scaling while
        mbs:8 fills 48 cores.
        """
        return wavefront_width(self.successors)
