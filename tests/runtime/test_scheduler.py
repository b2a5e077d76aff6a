"""Unit tests for ready-queue schedulers."""

import pytest

from repro.runtime.scheduler import (
    FIFOScheduler,
    FuzzScheduler,
    LocalityAwareScheduler,
    make_scheduler,
)
from repro.runtime.task import Task


def mk(name):
    return Task(name, None)


def test_fifo_order():
    s = FIFOScheduler(4)
    a, b, c = mk("a"), mk("b"), mk("c")
    for t in (a, b, c):
        s.push(t)
    assert [s.pop(0), s.pop(1), s.pop(2)] == [a, b, c]
    assert s.pop(0) is None


def test_len_and_bool():
    s = FIFOScheduler(1)
    assert not s and len(s) == 0
    s.push(mk("a"))
    assert s and len(s) == 1


def test_locality_prefers_own_affinity():
    s = LocalityAwareScheduler(4)
    glob, mine = mk("global"), mk("mine")
    s.push(glob)
    s.push(mine, hint=2)
    assert s.pop(2) is mine
    assert s.pop(2) is glob


def test_locality_falls_back_to_global():
    s = LocalityAwareScheduler(2)
    t = mk("t")
    s.push(t)
    assert s.pop(1) is t


def test_locality_steals_when_global_empty():
    s = LocalityAwareScheduler(4)
    hinted = mk("hinted")
    s.push(hinted, hint=3)
    # core 0 has no affinity work and global is empty: must steal
    assert s.pop(0) is hinted
    assert len(s) == 0


def test_locality_steals_from_most_loaded():
    s = LocalityAwareScheduler(4)
    a1, a2, b1 = mk("a1"), mk("a2"), mk("b1")
    s.push(a1, hint=1)
    s.push(a2, hint=1)
    s.push(b1, hint=2)
    assert s.pop(0) is a1  # core 1's queue is the longest


def test_locality_invalid_hint_goes_global():
    s = LocalityAwareScheduler(2)
    t = mk("t")
    s.push(t, hint=99)  # out of range: treated as no hint
    assert s.pop(0) is t


def test_locality_size_counts_all_queues():
    s = LocalityAwareScheduler(3)
    s.push(mk("a"), hint=0)
    s.push(mk("b"))
    s.push(mk("c"), hint=2)
    assert len(s) == 3
    s.pop(0)
    assert len(s) == 2


def test_locality_rejects_bad_core_count():
    with pytest.raises(ValueError):
        LocalityAwareScheduler(0)


def test_make_scheduler():
    assert isinstance(make_scheduler("fifo", 2), FIFOScheduler)
    assert isinstance(make_scheduler("locality", 2), LocalityAwareScheduler)
    assert make_scheduler("fuzz:7", 2).seed == 7
    assert isinstance(make_scheduler("fuzz:7", 2), FuzzScheduler)
    for name in ("random", "fuzz", "fuzz:x"):
        with pytest.raises(ValueError, match="unknown scheduler policy"):
            make_scheduler(name, 2)


def test_work_conserving_drain():
    """Any single core can drain the entire scheduler."""
    s = LocalityAwareScheduler(8)
    tasks = [mk(f"t{i}") for i in range(20)]
    for i, t in enumerate(tasks):
        s.push(t, hint=i % 8 if i % 3 else None)
    drained = []
    while True:
        t = s.pop(5)
        if t is None:
            break
        drained.append(t)
    assert sorted(t.name for t in drained) == sorted(t.name for t in tasks)
