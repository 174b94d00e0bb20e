"""Fixed-slot shared-memory ring for zero-copy flush batches.

The data plane of the engine's opt-in ``transport="shm"`` mode: one
``multiprocessing.shared_memory`` segment carved into fixed-size slots,
each holding two aligned columns — ``keys`` (``uint64``) and ``times``
(``int64``) — for one flush batch.  The parent copies a drained batch
into a free slot once and sends workers a tiny *slot descriptor*
``(slot, n, side, shard)`` over the existing pipes, which remain the
control plane (acks, deadlines, traces, chaos injection).  Workers map
the same segment and apply straight from zero-copy views.

Ownership is strictly parent-side: the parent allocates slots from a
local free list, writes them, and releases them when the worker's ack
(or a typed failure) comes back.  Workers only ever read, so no
cross-process allocator state is needed and a SIGKILLed worker can
never corrupt or leak ring bookkeeping — its in-flight slots are freed
by the parent's error path.

Batches larger than a slot, or arriving while every slot is in
flight, fall back to pickling through the pipe (the executor counts
these); rings are sized so steady-state flushes fit, within a cap on
the segment's total size (``executor.MAX_RING_BYTES``).
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = ["SlotRing", "shm_available"]

#: dtypes of the two slot columns (wire format of one flush batch)
KEY_DTYPE = np.uint64
TIME_DTYPE = np.int64
ITEM_BYTES = KEY_DTYPE().itemsize + TIME_DTYPE().itemsize  # 16


def shm_available() -> bool:
    """Can this platform back a :class:`SlotRing`?"""
    return _shared_memory is not None


class SlotRing:
    """A parent-owned ring of fixed-size two-column slots.

    Args:
        slot_items: capacity of one slot, in items.
        num_slots: number of slots in the ring.
        name: attach to an existing segment instead of creating one
            (worker side); geometry must match the creator's.
    """

    def __init__(self, slot_items: int, num_slots: int, *, name: str | None = None):
        if _shared_memory is None:  # pragma: no cover
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        if slot_items < 1:
            raise ValueError(f"slot_items must be >= 1, got {slot_items}")
        if num_slots < 1:
            raise ValueError(f"num_slots must be >= 1, got {num_slots}")
        self.slot_items = int(slot_items)
        self.num_slots = int(num_slots)
        nbytes = self.slot_items * self.num_slots * ITEM_BYTES
        self._owner = name is None
        if self._owner:
            self._shm = _shared_memory.SharedMemory(create=True, size=nbytes)
        else:
            # attachers must not register with the resource tracker: the
            # parent owns the segment's lifecycle, and under fork the
            # tracker is shared, so an attacher unregistering later would
            # silently drop the owner's registration (Python < 3.13 lacks
            # SharedMemory(track=False))
            from multiprocessing import resource_tracker

            orig_register = resource_tracker.register
            resource_tracker.register = lambda *a, **kw: None
            try:
                self._shm = _shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = orig_register
            if self._shm.size < nbytes:
                self._shm.close()
                raise ValueError(
                    f"segment {name!r} is {self._shm.size} bytes; ring geometry "
                    f"({num_slots} x {slot_items}) needs {nbytes}"
                )
        buf = self._shm.buf
        key_bytes = self.slot_items * self.num_slots * KEY_DTYPE().itemsize
        self._keys = np.frombuffer(buf[:key_bytes], dtype=KEY_DTYPE).reshape(
            self.num_slots, self.slot_items
        )
        self._times = np.frombuffer(buf[key_bytes:nbytes], dtype=TIME_DTYPE).reshape(
            self.num_slots, self.slot_items
        )
        self._free: list[int] = list(range(self.num_slots - 1, -1, -1))
        self._closed = False

    # -- parent-side allocation -------------------------------------------

    @property
    def name(self) -> str:
        """Segment name workers attach by."""
        return self._shm.name

    def acquire(self) -> int | None:
        """Pop a free slot id, or ``None`` when the ring is exhausted."""
        if not self._free:
            return None
        return self._free.pop()

    def release(self, slot: int) -> None:
        """Return a slot to the free list (parent side, on ack/error)."""
        if not 0 <= slot < self.num_slots:
            raise ValueError(f"slot {slot} out of range [0, {self.num_slots})")
        self._free.append(slot)

    def in_use(self) -> int:
        """Slots currently handed out (the ring-occupancy gauge)."""
        return self.num_slots - len(self._free)

    # -- slot I/O -----------------------------------------------------------

    def write(self, slot: int, keys: np.ndarray, times: np.ndarray) -> int:
        """Copy one batch into ``slot``'s columns; returns the item count."""
        n = keys.size
        if n > self.slot_items:
            raise ValueError(
                f"batch of {n} items exceeds slot capacity {self.slot_items}"
            )
        self._keys[slot, :n] = keys
        self._times[slot, :n] = times
        return n

    def keys_view(self, slot: int, n: int) -> np.ndarray:
        """Zero-copy ``uint64`` view of a slot's first ``n`` keys."""
        return self._keys[slot, :n]

    def times_view(self, slot: int, n: int) -> np.ndarray:
        """Zero-copy ``int64`` view of a slot's first ``n`` times."""
        return self._times[slot, :n]

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Unmap (and, for the owner, unlink) the segment. Idempotent."""
        if self._closed:
            return
        self._closed = True
        # drop the numpy views before closing the mmap they alias
        self._keys = None
        self._times = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a straggling view pins
            pass             # the mapping; process exit unmaps it
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SlotRing":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - backstop, not the contract
        try:
            self.close()
        except Exception:
            pass
