"""OmpSs-like tasking substrate.

This package provides the run-time system that B-Par is built on: tasks
annotated with ``in``/``out``/``inout`` data regions, a dependency tracker
that turns a sequential stream of task registrations into a DAG (the exact
semantics of OmpSs/OpenMP task dependences), the paper's two ready-queue
policies (FIFO breadth-first and locality-aware) plus the
fuzz/record/replay schedulers, the registration-order loop
(:func:`~repro.runtime.executor.run_in_order`, the serial reference and
every one-thread host run under a policy), and three executors whose
scheduler-driven runs start through
:func:`~repro.runtime.scheduler.start_release`:

* :class:`~repro.runtime.executor.ThreadedExecutor` — real worker threads.
  RNN-cell tasks are dominated by NumPy GEMMs, which release the GIL, so
  coarse-grained tasks genuinely overlap on a multi-core host.
* :class:`~repro.runtime.simexec.SimulatedExecutor` — a deterministic
  discrete-event executor over a modelled machine
  (:mod:`repro.simarch`).  It reproduces the scheduling, cache-locality
  and NUMA behaviour of the paper's 48-core platform, which the GIL and
  a laptop-scale host cannot express directly.  It is the one executor
  that replays a compiled plan.
* :class:`~repro.runtime.mpexec.MultiprocessExecutor` — pinned worker
  *processes* over POSIX shared memory (:mod:`repro.runtime.shm`): true
  parallelism for the fine-grained task modes the GIL serialises.  The
  substrate contract all of these implement is named by
  :class:`~repro.runtime.protocol.Executor` (docs/EXECUTORS.md).

:mod:`~repro.runtime.racecheck` holds the one dependence finding and
report type, the ordering audit, and the instruments that *execute*
graphs to check their declarations — access observation, schedule
fuzz/record/replay, the compiled-plan audit.  The static proof those
are cross-validated with is :func:`repro.analysis.verify.verify_build`
(``analysis`` imports ``runtime``, never the reverse).
"""

from repro.runtime.task import AccessMode, Region, RegionSpace, Task
from repro.runtime.depgraph import TaskGraph, descendants_bitsets
from repro.runtime.scheduler import (
    FIFOScheduler,
    FuzzScheduler,
    LocalityAwareScheduler,
    RecordingScheduler,
    ReplayScheduler,
    ScheduleRecord,
    Scheduler,
    make_scheduler,
    resolve_scheduler,
)
from repro.runtime.trace import ExecutionTrace, TaskRecord
from repro.runtime.executor import SerialExecutor, ThreadedExecutor
from repro.runtime.simexec import SimulatedExecutor
from repro.runtime.protocol import Executor, ExecutorError, WorkerCrashError
from repro.runtime.mpexec import MultiprocessExecutor, plan_placement
from repro.runtime.shm import ArenaExhausted, ArrayDesc, ShmArena, ShmBlock
from repro.runtime.racecheck import (
    DependenceFinding,
    DependenceReport,
    RaceError,
    check_build,
    fuzz_equivalence_sweep,
    ordering_findings,
    record_schedule,
    replay_schedule,
)

__all__ = [
    "AccessMode",
    "Region",
    "RegionSpace",
    "Task",
    "TaskGraph",
    "descendants_bitsets",
    "Scheduler",
    "FIFOScheduler",
    "LocalityAwareScheduler",
    "FuzzScheduler",
    "RecordingScheduler",
    "ReplayScheduler",
    "ScheduleRecord",
    "make_scheduler",
    "resolve_scheduler",
    "ExecutionTrace",
    "TaskRecord",
    "SerialExecutor",
    "ThreadedExecutor",
    "SimulatedExecutor",
    "MultiprocessExecutor",
    "plan_placement",
    "Executor",
    "ExecutorError",
    "WorkerCrashError",
    "ShmArena",
    "ShmBlock",
    "ArrayDesc",
    "ArenaExhausted",
    "DependenceFinding",
    "DependenceReport",
    "RaceError",
    "check_build",
    "fuzz_equivalence_sweep",
    "ordering_findings",
    "record_schedule",
    "replay_schedule",
]
