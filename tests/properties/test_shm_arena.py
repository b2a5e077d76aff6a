"""Property-based tests of the shared-memory arena (hypothesis).

The allocator invariants the multiprocess executor's correctness rests
on: blocks never overlap, never escape the segment and read as zeros until
written; arrays round-trip dtype, shape and bytes exactly — from the creating process and from a
forked child mapping the same name via :meth:`ShmArena.attach`; and the
``/dev/shm`` name is always removed, on clean exit and on exception
alike.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.shm import (
    ALIGNMENT,
    ArenaExhausted,
    ArrayDesc,
    ShmArena,
    list_segments,
)
from tests.conftest import own_segments

CAPACITY = 1 << 14  # 16 KiB — small enough that exhaustion is reachable


@given(st.lists(st.integers(1, CAPACITY // 4), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_live_blocks_never_overlap_and_stay_in_bounds(sizes):
    with ShmArena(CAPACITY) as arena:
        issued = []
        for size in sizes:
            try:
                issued.append(arena.alloc(size))
            except ArenaExhausted:
                continue
            view = arena.view_array(ArrayDesc(issued[-1], "|u1", (size,)))
            assert not view.any()  # fresh room reads as zeros
            view.fill(0xFF)
        live = sorted((b.offset, b.offset + max(1, b.nbytes)) for b in issued)
        for (s0, e0), (s1, e1) in zip(live, live[1:]):
            assert e0 <= s1, f"blocks overlap: [{s0},{e0}) and [{s1},{e1})"
        for s, e in live:
            assert 0 <= s and e <= arena.capacity
            assert s % ALIGNMENT == 0


@given(
    dtype=st.sampled_from(["<f4", "<f8", "<i4", "<i8", "|u1"]),
    shape=st.lists(st.integers(1, 6), min_size=0, max_size=3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_put_get_array_roundtrips_dtype_shape_bytes(dtype, shape, seed):
    rng = np.random.default_rng(seed)
    arr = (rng.standard_normal(shape) * 100).astype(np.dtype(dtype))
    with ShmArena(CAPACITY) as arena:
        desc = arena.put_array(arr)
        out = arena.get_array(desc)
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert out.tobytes() == arr.tobytes()


def test_exhaustion_raises_and_leaves_state_consistent():
    with ShmArena(CAPACITY) as arena:
        arena.alloc(CAPACITY)
        with pytest.raises(ArenaExhausted):
            arena.alloc(1)
        assert arena.allocated_bytes == arena.capacity


# ---------------------------------------------------------------------------
# Name lifecycle: no /dev/shm leaks, ever
# ---------------------------------------------------------------------------


def test_context_manager_unlinks_on_success_and_exception():
    before = own_segments()
    with ShmArena(CAPACITY) as arena:
        name = arena.name
        assert name in list_segments()
    assert name not in list_segments()

    with pytest.raises(RuntimeError, match="boom"):
        with ShmArena(CAPACITY) as arena:
            name = arena.name
            raise RuntimeError("boom")
    assert name not in list_segments()
    assert own_segments() == before


def test_destroy_is_idempotent_and_survives_live_views():
    arena = ShmArena(CAPACITY)
    desc = arena.put_array(np.arange(8, dtype=np.float64))
    copied = arena.get_array(desc)  # safe: copies out before destroy
    view = arena.get_array(desc, copy=False)  # alias into the mapping
    # destroy must not raise even while a zero-copy view is alive (the
    # view itself becomes invalid — see ShmArena.close); twice is a no-op
    arena.destroy()
    arena.destroy()
    assert arena.name not in list_segments()
    assert copied[3] == 3.0
    del view


# ---------------------------------------------------------------------------
# Child-process mapping via attach()
# ---------------------------------------------------------------------------


@given(
    dtype=st.sampled_from(["<f4", "<i8"]),
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=2),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=8, deadline=None)
def test_child_process_sees_parent_writes_and_vice_versa(dtype, shape, seed):
    rng = np.random.default_rng(seed)
    arr = (rng.standard_normal(shape) * 10).astype(np.dtype(dtype))
    with ShmArena(CAPACITY) as arena:
        desc = arena.put_array(arr)
        reply = arena.alloc(max(1, arr.nbytes))

        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: attach by name, read, write back doubled
            status = 1
            try:
                os.close(r)
                child = ShmArena.attach(arena.name)
                got = child.get_array(desc)
                ok = got.tobytes() == arr.tobytes() and got.dtype == arr.dtype
                doubled = (got * 2).astype(got.dtype)
                child.view_array(ArrayDesc(reply, desc.dtype, desc.shape))[...] = (
                    doubled
                )
                child.close()
                os.write(w, b"1" if ok else b"0")
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        try:
            verdict = os.read(r, 1)
        finally:
            os.close(r)
            os.waitpid(pid, 0)
        assert verdict == b"1", "child saw different bytes than the parent wrote"
        echoed = arena.get_array(ArrayDesc(reply, desc.dtype, desc.shape))
        expected = (arr * 2).astype(arr.dtype)
        assert echoed.tobytes() == expected.tobytes()


def test_view_dereference_after_close_is_fatal():
    """Reproduce the hazard the ``shm-use-after-close`` lint rule guards.

    A zero-copy view taken before ``close()`` points into the unmapped
    segment afterwards; dereferencing it kills the process (SIGSEGV) —
    not an exception a caller could catch.  Run the dereference in a
    forked child and assert the child did *not* come back with a clean
    "the read worked" verdict.
    """
    with ShmArena(CAPACITY) as arena:
        desc = arena.put_array(np.arange(16, dtype=np.float32))
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: take a view, close, then dereference it
            try:
                os.close(r)
                import faulthandler

                faulthandler.disable()  # keep the expected SIGSEGV quiet
                view = arena.view_array(desc)
                arena.close()
                # undefined behaviour from here on — the crash under test
                _ = float(view[3])  # lint: waive shm-use-after-close
                os.write(w, b"K")  # reachable only if the unmap was deferred
            except BaseException:  # lint: waive swallowed-exception
                os.write(w, b"E")
            finally:
                os._exit(0)
        os.close(w)
        try:
            verdict = os.read(r, 1)
        finally:
            os.close(r)
            _, status = os.waitpid(pid, 0)
        crashed = os.WIFSIGNALED(status)
        assert crashed or verdict != b"K", (
            "dereferencing a zero-copy view after close() returned normally; "
            "the shm-use-after-close rule no longer models real behaviour"
        )


def test_attach_does_not_own_the_name():
    with ShmArena(CAPACITY) as arena:
        other = ShmArena.attach(arena.name)
        other.unlink()  # non-owner: must be a no-op
        assert arena.name in list_segments()
        other.close()
    assert arena.name not in list_segments()
