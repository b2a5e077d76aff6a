"""Ready-queue schedulers.

The paper's B-Par configuration uses the OmpSs *breadth-first* scheduler: a
single global ready queue ordered FIFO, extended with a locality-aware
mechanism that prefers running a task on the same core as a predecessor
that touched the same data.  We implement that policy
(:class:`LocalityAwareScheduler`) and the locality-oblivious plain FIFO it
is compared against in Fig. 7 (:class:`FIFOScheduler`).

Schedulers are *not* thread-safe on their own; executors serialise access
(the threaded executor under its lock, the process executor's manager and
the simulated executor by being single-threaded).

Three additional schedulers back the race-checking harness
(:mod:`repro.runtime.racecheck`): :class:`FuzzScheduler` pops a seeded
pseudo-random ready task (exploring the legal-schedule space),
:class:`RecordingScheduler` wraps any scheduler and logs its pop order,
and :class:`ReplayScheduler` re-executes a recorded pop order — or, on
the simulated executor, a compiled plan's release order —
deterministically.  A recorded schedule round-trips through JSON via
:class:`ScheduleRecord`.

Every scheduler-driven run starts through :func:`start_release`, which
names the order one way: a policy name (``"fifo"``, ``"locality"``,
``"fuzz:SEED"``) or a primed :class:`Scheduler` instance, replaced by the
plan's replay when the simulated executor is given one.  A one-thread
host run under a policy name needs no scheduler: it is the registration
order (:func:`repro.runtime.executor.run_in_order`).
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.runtime.task import Task


@dataclass
class SchedulerCounters:
    """Per-run counters every scheduler maintains (see ``docs/OBSERVABILITY.md``).

    Locality accounting is policy-independent: a push records the task's
    affinity hint (the core whose cache holds its data), and the pop that
    releases the task scores a *hit* when the popping core matches the
    hint and a *miss* otherwise.  A locality-oblivious policy (plain FIFO)
    therefore shows a low hit rate on the very same graph where the
    locality-aware policy scores high — the paper's Fig. 7 contrast as two
    counters.  Un-hinted tasks carry no locality preference and count
    toward neither side, so a single-core run (every hint is core 0) has
    hit rate 1.0 by construction.
    """

    pushes: int = 0
    pops: int = 0
    hinted_pushes: int = 0
    locality_hits: int = 0
    locality_misses: int = 0
    steals: int = 0
    steal_distance_total: int = 0
    #: pops that found the ready queue empty (a core wanted work and there
    #: was none — the starvation signal barrier-free scheduling minimises)
    starvation_stalls: int = 0
    depth_samples: int = 0
    depth_sum: int = 0
    depth_max: int = 0

    @property
    def locality_hit_rate(self) -> float:
        scored = self.locality_hits + self.locality_misses
        return self.locality_hits / scored if scored else 1.0

    @property
    def mean_steal_distance(self) -> float:
        return self.steal_distance_total / self.steals if self.steals else 0.0

    @property
    def mean_queue_depth(self) -> float:
        return self.depth_sum / self.depth_samples if self.depth_samples else 0.0


class Scheduler:
    """Interface: each policy defines ``push(task, hint=None)`` for a ready
    task, ``pop(core) -> Optional[Task]`` and ``__len__``.

    Every scheduler keeps a :class:`SchedulerCounters` (lazily created; a
    handful of integer bumps per push/pop).
    """

    #: human-readable policy name (used in traces and reports)
    name = "abstract"

    def __bool__(self) -> bool:
        return len(self) > 0

    # -- instrumentation (shared by all policies) ------------------------------

    @property
    def counters(self) -> SchedulerCounters:
        c = self.__dict__.get("_counters")
        if c is None:
            c = self.__dict__["_counters"] = SchedulerCounters()
        return c

    def _note_push(self, task: Task, hint: Optional[int]) -> None:
        c = self.counters
        c.pushes += 1
        if hint is not None:
            c.hinted_pushes += 1
            hints = self.__dict__.get("_hint_by_task")
            if hints is None:
                hints = self.__dict__["_hint_by_task"] = {}
            hints[id(task)] = hint
        depth = len(self)
        c.depth_samples += 1
        c.depth_sum += depth
        if depth > c.depth_max:
            c.depth_max = depth

    def _note_pop(self, task: Optional[Task], core: int) -> Optional[Task]:
        c = self.counters
        if task is None:
            c.starvation_stalls += 1
            return None
        c.pops += 1
        hints = self.__dict__.get("_hint_by_task")
        if hints:
            hint = hints.pop(id(task), None)
            if hint is not None:
                if hint == core:
                    c.locality_hits += 1
                else:
                    c.locality_misses += 1
        return task

    def _note_steal(self, thief: int, victim: int) -> None:
        c = self.counters
        c.steals += 1
        c.steal_distance_total += abs(thief - victim)


class FIFOScheduler(Scheduler):
    """Single global FIFO ready queue (breadth-first, locality-oblivious)."""

    name = "fifo"

    def __init__(self, n_cores: int = 1) -> None:
        self._queue: Deque[Task] = deque()

    def push(self, task: Task, hint: Optional[int] = None) -> None:
        self._queue.append(task)
        self._note_push(task, hint)

    def pop(self, core: int) -> Optional[Task]:
        return self._note_pop(self._queue.popleft() if self._queue else None, core)

    def __len__(self) -> int:
        return len(self._queue)


class LocalityAwareScheduler(Scheduler):
    """Global FIFO plus per-core affinity queues.

    When the executor completes a task on core *c* and a successor sharing
    one of its data regions becomes ready, it pushes that successor with
    ``hint=c``.  ``pop(c)`` serves core *c*'s affinity queue first, then
    the global queue, then steals the oldest entry from the most loaded
    affinity queue — the policy stays work-conserving, so makespan never
    regresses merely because hints exist.
    """

    name = "locality"

    def __init__(self, n_cores: int) -> None:
        if n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        self.n_cores = n_cores
        self._global: Deque[Task] = deque()
        self._affinity: List[Deque[Task]] = [deque() for _ in range(n_cores)]
        #: indices of nonempty affinity queues — steals scan only these,
        #: not all n_cores deques (pathological on wide machines)
        self._nonempty: set = set()
        self._size = 0

    def push(self, task: Task, hint: Optional[int] = None) -> None:
        if hint is not None and 0 <= hint < self.n_cores:
            self._affinity[hint].append(task)
            self._nonempty.add(hint)
        else:
            self._global.append(task)
        self._size += 1
        self._note_push(task, hint)

    def pop(self, core: int) -> Optional[Task]:
        if self._size == 0:
            return self._note_pop(None, core)
        own = self._affinity[core] if core < self.n_cores else None
        if own:
            self._size -= 1
            task = own.popleft()
            if not own:
                self._nonempty.discard(core)
            return self._note_pop(task, core)
        if self._global:
            self._size -= 1
            return self._note_pop(self._global.popleft(), core)
        # Steal from the most loaded affinity queue.  Ascending scan with a
        # strict running max keeps the deterministic lowest-core-id
        # tie-break of the original full scan.
        victim_core = -1
        victim_len = 0
        for idx in sorted(self._nonempty):
            qlen = len(self._affinity[idx])
            if qlen > victim_len:
                victim_core, victim_len = idx, qlen
        if victim_core >= 0:
            victim = self._affinity[victim_core]
            self._size -= 1
            task = victim.popleft()
            if not victim:
                self._nonempty.discard(victim_core)
            self._note_steal(core, victim_core)
            return self._note_pop(task, core)
        return self._note_pop(None, core)

    def __len__(self) -> int:
        return self._size


class FuzzScheduler(Scheduler):
    """Pops a seeded pseudo-random ready task (schedule-space fuzzing).

    Any pop order it produces is a legal schedule (only ready tasks are
    ever queued), so a dataflow-deterministic graph must compute bitwise
    identical results under every seed — the property the fuzz regression
    suite asserts.  With a single-threaded executor the pop sequence is a
    pure function of the seed, making failures reproducible.
    """

    name = "fuzz"

    def __init__(self, n_cores: int = 1, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._queue: List[Task] = []

    def push(self, task: Task, hint: Optional[int] = None) -> None:
        self._queue.append(task)
        self._note_push(task, hint)

    def pop(self, core: int) -> Optional[Task]:
        if not self._queue:
            return self._note_pop(None, core)
        i = self._rng.randrange(len(self._queue))
        self._queue[i], self._queue[-1] = self._queue[-1], self._queue[i]
        return self._note_pop(self._queue.pop(), core)

    def __len__(self) -> int:
        return len(self._queue)


@dataclass
class ScheduleRecord:
    """A serialisable pop order of one graph execution.

    ``order`` holds tids in the sequence the scheduler released them;
    ``names`` the matching task names, kept so a replay against a drifted
    graph fails with a diagnosable mismatch instead of silently replaying
    a different program.
    """

    order: List[int]
    names: List[str]
    scheduler: str = "?"
    seed: Optional[int] = None
    format: str = "repro.schedule.v1"

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(
            {
                "format": self.format,
                "scheduler": self.scheduler,
                "seed": self.seed,
                "n_tasks": len(self.order),
                "order": self.order,
                "names": self.names,
            },
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str) -> "ScheduleRecord":
        data = json.loads(text)
        if data.get("format") != "repro.schedule.v1":
            raise ValueError(f"not a schedule record: format={data.get('format')!r}")
        return cls(
            order=list(data["order"]),
            names=list(data["names"]),
            scheduler=data.get("scheduler", "?"),
            seed=data.get("seed"),
        )

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "ScheduleRecord":
        with open(path) as fh:
            return cls.from_json(fh.read())


class RecordingScheduler(Scheduler):
    """Wraps any scheduler and logs the order tasks were popped in.

    ``record()`` snapshots the log as a :class:`ScheduleRecord` that
    :class:`ReplayScheduler` re-executes deterministically.
    """

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.name = f"record({inner.name})"
        self.popped: List[Task] = []

    @property
    def counters(self) -> SchedulerCounters:
        return self.inner.counters

    def push(self, task: Task, hint: Optional[int] = None) -> None:
        self.inner.push(task, hint)

    def pop(self, core: int) -> Optional[Task]:
        task = self.inner.pop(core)
        if task is not None:
            self.popped.append(task)
        return task

    def __len__(self) -> int:
        return len(self.inner)

    def record(self) -> ScheduleRecord:
        return ScheduleRecord(
            order=[t.tid for t in self.popped],
            names=[t.name for t in self.popped],
            scheduler=self.inner.name,
            seed=getattr(self.inner, "seed", None),
        )


class ReplayScheduler(Scheduler):
    """Releases tasks only in a prescribed tid order.

    ``record`` is anything with ``order`` (tids in release order) and
    ``names`` (the matching task names): a :class:`ScheduleRecord`, or a
    :class:`~repro.compile.plan.CompiledPlan` on the simulated executor.
    ``pop`` returns the next prescribed task once it has been pushed (i.e.
    become ready) and ``None`` until then.  A recorded order is a topological order of the
    graph it was recorded from, so every prescribed task's predecessors
    appear earlier in the order and are already running or finished —
    executors that wait on completions make progress.  An order that is
    not topological starves: nothing runs and the prescribed task never
    becomes ready, which every executor reports as an error.  Replaying
    against a graph whose tids or names no longer match the record raises
    immediately.
    """

    name = "replay"

    def __init__(self, record, n_cores: int = 1) -> None:
        self._order = record.order
        self._names = record.names
        self._next = 0
        self._ready: Dict[int, Task] = {}

    def push(self, task: Task, hint: Optional[int] = None) -> None:
        if task.tid in self._ready:
            raise ValueError(f"task {task.tid} pushed twice")
        self._ready[task.tid] = task

    def pop(self, core: int) -> Optional[Task]:
        if self._next >= len(self._order):
            return None
        tid = self._order[self._next]
        task = self._ready.get(tid)
        if task is None:
            return None  # prescribed task not ready yet; caller waits
        if task.name != self._names[self._next]:
            raise ValueError(
                f"schedule replay mismatch at position {self._next}: recorded "
                f"{self._names[self._next]!r}, graph has {task.name!r} (tid {tid})"
            )
        del self._ready[tid]
        self._next += 1
        return task

    def __len__(self) -> int:
        return len(self._ready)


SCHEDULERS: Dict[str, type] = {
    "fifo": FIFOScheduler,
    "locality": LocalityAwareScheduler,
}


def make_scheduler(policy: str, n_cores: int = 1) -> Scheduler:
    """Instantiate a scheduler by policy name: ``"fifo"``, ``"locality"``,
    or ``"fuzz:SEED"`` for a :class:`FuzzScheduler` with that seed."""
    if isinstance(policy, str) and policy.startswith("fuzz:"):
        try:
            return FuzzScheduler(n_cores, seed=int(policy[len("fuzz:"):]))
        except ValueError:
            pass
    elif policy in SCHEDULERS:
        return SCHEDULERS[policy](n_cores)
    raise ValueError(
        f"unknown scheduler policy {policy!r}; options: 'fifo', 'locality', 'fuzz:SEED'"
    )


def resolve_scheduler(spec, n_cores: int) -> Scheduler:
    """A policy name through :func:`make_scheduler`; a :class:`Scheduler`
    instance (e.g. a primed :class:`RecordingScheduler`) as it is."""
    return spec if isinstance(spec, Scheduler) else make_scheduler(spec, n_cores)


def start_release(graph, spec, n_cores: int, plan=None):
    """``(scheduler, successors, indegree)`` for one run of ``graph``, the
    roots already pushed.

    Without ``plan`` the scheduler is ``spec`` (a policy name or a primed
    instance) over the graph's declared edges.  With a compiled ``plan``
    (the simulated executor's) it is the plan's :class:`ReplayScheduler`
    over the plan's reduced edges, after
    :meth:`~repro.compile.plan.CompiledPlan.validate`; the
    roots are the same under transitive reduction (a redundant edge into
    ``t`` implies another retained path into ``t``).  ``indegree`` is the
    run's own copy, for the executor to count down.
    """
    if plan is not None:
        plan.validate(graph)
        scheduler = ReplayScheduler(plan, n_cores)
        successors, indegree = plan.successors, plan.indegree()
    else:
        scheduler = resolve_scheduler(spec, n_cores)
        successors, indegree = graph.successors, list(graph.indegree)
    for tid, deg in enumerate(indegree):
        if deg == 0:
            scheduler.push(graph.tasks[tid])
    return scheduler, successors, indegree
