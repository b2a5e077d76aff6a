"""Steal-victim selection: correctness invariants + wide-machine guard.

The original steal scan walked *every* per-core queue on every steal —
O(n_cores) even with one straggler queue holding work.  The schedulers now
track the set of nonempty queues and scan only those, preserving the exact
victim choice (most loaded, lowest core id on ties).  The guard here runs
a drain pattern on a 4096-core scheduler and counts per-core queue
lookups: a constant number per task, where the full scan makes n_cores per
steal.
"""

import pytest

from repro.runtime.scheduler import LocalityAwareScheduler, WorkStealingScheduler
from repro.runtime.task import Task

WIDE_CORES = 4096
TASKS = 4000
#: queue lookups allowed per task (observed: 1 per push, 3 per stealing
#: pop); the full scan needs WIDE_CORES per pop
PROBES_PER_TASK = 8


class CountingQueues(list):
    """A scheduler's per-core queue list that counts every queue lookup."""

    probes = 0

    def __getitem__(self, idx):
        self.probes += 1
        return super().__getitem__(idx)

    def __iter__(self):
        for queue in super().__iter__():
            self.probes += 1
            yield queue


def mk(i):
    return Task(f"{i}", None)


@pytest.mark.parametrize("cls", [LocalityAwareScheduler, WorkStealingScheduler])
def test_steal_victim_unchanged(cls):
    """Most-loaded victim, lowest core id on ties — same as the full scan."""
    s = cls(8)
    for i in range(2):
        s.push(mk(f"a{i}"), hint=5)
    for i in range(3):
        s.push(mk(f"b{i}"), hint=2)
    for i in range(3):
        s.push(mk(f"c{i}"), hint=6)  # ties with core 2 -> core 2 wins
    # core 0 has no own work (and no global work): cores 2 and 6 tie at 3
    # tasks -> lowest core id (2) wins, oldest entry stolen
    assert s.pop(0).name == "b0"
    # core 6 now holds the most (3) -> steal there
    assert s.pop(0).name == "c0"
    # cores 2, 5, 6 all tie at 2 -> lowest id (2) again
    assert s.pop(0).name == "b1"


@pytest.mark.parametrize("cls", [LocalityAwareScheduler, WorkStealingScheduler])
def test_nonempty_tracking_survives_interleaving(cls):
    s = cls(16)
    for i in range(50):
        s.push(mk(i), hint=i % 4)
    popped = []
    while s:
        t = s.pop(15)  # always steals (core 15 never gets hints 0..3)
        assert t is not None
        popped.append(t.name)
    assert len(popped) == 50
    assert s.pop(15) is None
    # refill after a full drain still works
    s.push(mk("again"), hint=3)
    assert s.pop(9).name == "again"


@pytest.mark.parametrize("cls", [LocalityAwareScheduler, WorkStealingScheduler])
def test_wide_machine_steal_drain_is_fast(cls):
    """4096 cores, work pinned on one queue, drained by steals."""
    s = cls(WIDE_CORES)
    attr = "_affinity" if cls is LocalityAwareScheduler else "_deques"
    queues = CountingQueues(getattr(s, attr))
    setattr(s, attr, queues)
    for i in range(TASKS):
        s.push(mk(i), hint=7)
    drained = 0
    while s:
        # rotate the popping core so nobody hits their own queue
        assert s.pop(8 + (drained % 64)) is not None
        drained += 1
    assert drained == TASKS
    assert s.counters.steals == TASKS
    assert queues.probes <= PROBES_PER_TASK * TASKS, (
        f"{queues.probes} queue lookups for {TASKS} steals on {WIDE_CORES} cores"
    )
