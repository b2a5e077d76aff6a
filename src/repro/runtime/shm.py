"""POSIX shared-memory arenas backing cross-process region transfer.

The multiprocess executor (:mod:`repro.runtime.mpexec`) never sends array
payloads over its pipes — only task ids and *region slot descriptors*.  A
:class:`ShmArena` is the thing a descriptor points into: one
``multiprocessing.shared_memory`` segment plus a block allocator, created
by the manager process **before** the workers fork so every process maps
the same pages without an attach round-trip.

Lifecycle invariants (enforced by ``tests/properties/test_shm_arena.py``
and the fault-injection suite):

* blocks handed out by :meth:`alloc` never overlap while live;
* :meth:`put_array`/:meth:`get_array` round-trip dtype, shape, and bytes
  exactly, from the creating process and from a forked child alike;
* the creating process owns the name: :meth:`destroy` always removes the
  ``/dev/shm`` entry, even when child processes crashed while mapped
  (``unlink`` only drops the name — crashed mappings are reclaimed by the
  kernel when the last map goes away, so no segment can leak).

Allocation is first-fit over a sorted free list with coalescing on
:meth:`free` — O(blocks), which is fine at the executor's scale (one
block per exported region slot).  Blocks are 64-byte aligned so shm-backed
array views keep the alignment NumPy's own allocator provides.
"""

from __future__ import annotations

import itertools
import os
import pickle
from bisect import insort
from multiprocessing import shared_memory
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

#: block alignment (bytes) — matches NumPy's allocator so shm-backed views
#: see the same alignment as heap arrays
ALIGNMENT = 64

#: ``/dev/shm`` name prefix of every arena segment; the fault-injection
#: tests and the bench leak check filter listings on this
SEGMENT_PREFIX = "repro_mp"

_COUNTER = itertools.count()


class ArenaExhausted(RuntimeError):
    """An :meth:`ShmArena.alloc` request did not fit the segment."""


class ShmBlock(NamedTuple):
    """A slot descriptor: which segment, where, how many bytes.

    This is the *only* array-shaped thing the executor's pipes ever carry.
    """

    segment: str
    offset: int
    nbytes: int


class ArrayDesc(NamedTuple):
    """A :class:`ShmBlock` plus the dtype/shape to rebuild the array."""

    block: ShmBlock
    dtype: str
    shape: Tuple[int, ...]


def _align(n: int) -> int:
    return (max(1, n) + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def list_segments() -> List[str]:
    """Current ``/dev/shm`` entries created by this module (leak probe)."""
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith(SEGMENT_PREFIX))
    except FileNotFoundError:  # pragma: no cover - non-tmpfs platforms
        return []


class ShmArena:
    """One shared-memory segment plus a first-fit block allocator.

    Create in the parent (``ShmArena(capacity)``); forked children inherit
    the mapping and use the same object.  A *separate* process (not forked
    from the creator) can map an existing segment with :meth:`attach`,
    which supports reads/writes through descriptors but does not own the
    name (``unlink`` stays the creator's job).
    """

    def __init__(self, capacity: int, *, name: Optional[str] = None) -> None:
        self.capacity = _align(capacity)
        if name is None:
            name = f"{SEGMENT_PREFIX}_{os.getpid()}_{next(_COUNTER)}"
        self._shm = shared_memory.SharedMemory(
            name=name, create=True, size=self.capacity
        )
        self._owner = True
        self._free: List[Tuple[int, int]] = [(0, self.capacity)]  # (offset, size)
        self._live: Dict[int, int] = {}  # offset -> padded size
        self._closed = False

    @classmethod
    def attach(cls, name: str) -> "ShmArena":
        """Map an existing segment by name (non-owning: no ``unlink``)."""
        arena = cls.__new__(cls)
        arena._shm = shared_memory.SharedMemory(name=name)
        arena.capacity = arena._shm.size
        arena._owner = False
        arena._free = []
        arena._live = {}
        arena._closed = False
        return arena

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def allocated_bytes(self) -> int:
        return sum(self._live.values())

    # -- block allocation ----------------------------------------------------

    def alloc(self, nbytes: int) -> ShmBlock:
        """First-fit allocate ``nbytes`` (rounded up to the alignment)."""
        need = _align(nbytes)
        for i, (off, size) in enumerate(self._free):
            if size >= need:
                if size == need:
                    del self._free[i]
                else:
                    self._free[i] = (off + need, size - need)
                self._live[off] = need
                return ShmBlock(self.name, off, nbytes)
        raise ArenaExhausted(
            f"arena {self.name}: alloc({nbytes}) does not fit "
            f"({self.allocated_bytes}/{self.capacity} bytes allocated)"
        )

    def free(self, block: ShmBlock) -> None:
        """Return a block; adjacent free ranges coalesce."""
        if block.segment != self.name:
            raise ValueError(f"block belongs to segment {block.segment!r}, not {self.name!r}")
        size = self._live.pop(block.offset, None)
        if size is None:
            raise ValueError(f"double free or unknown block at offset {block.offset}")
        insort(self._free, (block.offset, size))
        merged: List[Tuple[int, int]] = []
        for off, sz in self._free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + sz)
            else:
                merged.append((off, sz))
        self._free = merged

    # -- typed transfers -----------------------------------------------------

    def write_bytes(self, data: bytes) -> ShmBlock:
        block = self.alloc(len(data))
        self._shm.buf[block.offset : block.offset + len(data)] = data
        return block

    def read_bytes(self, block: ShmBlock) -> bytes:
        return bytes(self._shm.buf[block.offset : block.offset + block.nbytes])

    def put_array(self, arr: np.ndarray) -> ArrayDesc:
        """Copy ``arr`` into the segment; the descriptor rebuilds it exactly."""
        src = np.asarray(arr)
        # ascontiguousarray promotes 0-d to 1-d; keep the caller's shape.
        a = np.ascontiguousarray(src)
        block = self.alloc(a.nbytes)
        desc = ArrayDesc(block, a.dtype.str, src.shape)
        self.view_array(desc)[...] = a.reshape(src.shape)
        return desc

    def view_array(self, desc: ArrayDesc) -> np.ndarray:
        """Zero-copy array view over a descriptor's block."""
        return np.ndarray(
            desc.shape, dtype=np.dtype(desc.dtype), buffer=self._shm.buf,
            offset=desc.block.offset,
        )

    def get_array(self, desc: ArrayDesc, *, copy: bool = True) -> np.ndarray:
        """The array a descriptor names; ``copy=False`` aliases the segment."""
        view = self.view_array(desc)
        return view.copy() if copy else view

    def put_pickle(self, obj) -> ShmBlock:
        """Pickle ``obj`` into the segment (arbitrary region payloads)."""
        return self.write_bytes(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))

    def get_pickle(self, block: ShmBlock):
        return pickle.loads(self.read_bytes(block))

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Unmap this process's view (idempotent).

        Zero-copy views from :meth:`view_array`/:meth:`get_array(copy=False)`
        must not be dereferenced after this — depending on how the buffer
        export chain resolved, the unmap may succeed underneath them.  The
        executor copies everything it needs out of the arena before its
        cleanup epilogue for exactly this reason.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:
            # Live array views still point into the mapping; the kernel
            # reclaims the pages when they go away.  The *name* is what
            # must not leak, and unlink below does not need the map closed.
            pass

    def unlink(self) -> None:
        """Remove the ``/dev/shm`` name (owner only; idempotent)."""
        if not self._owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self._owner = False

    def destroy(self) -> None:
        """``close`` + ``unlink`` — the guaranteed-cleanup epilogue."""
        self.close()
        self.unlink()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.destroy()
