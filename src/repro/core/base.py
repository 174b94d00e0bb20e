"""Shared plumbing for the five SHE sketches.

Each SHE sketch owns one (or, for MinHash, two) *frames* — the cleaning
machinery of §3.2/§3.3 — plus the hash family and query strategy of the
original algorithm.  This module centralises frame construction, the
item clock, and memory accounting so the per-algorithm modules contain
only what the paper actually specifies for them.
"""

from __future__ import annotations

import copy
import inspect
from typing import Literal

import numpy as np

from repro.common.validation import as_key_array, require_non_negative_int
from repro.core.batch import apply_columnar
from repro.core.config import SheConfig
from repro.core.hardware_frame import HardwareFrame
from repro.core.software_frame import SoftwareFrame

__all__ = ["FrameKind", "make_frame", "SheSketchBase", "sized_from_memory"]

FrameKind = Literal["hardware", "software"]


def make_frame(
    kind: FrameKind,
    config: SheConfig,
    num_cells: int,
    *,
    dtype,
    empty_value: int,
    cell_bits: int,
):
    """Build the requested frame variant with a uniform signature."""
    if kind == "hardware":
        return HardwareFrame(
            config,
            num_cells,
            dtype=dtype,
            empty_value=empty_value,
            cell_bits=cell_bits,
        )
    if kind == "software":
        return SoftwareFrame(
            config,
            num_cells,
            dtype=dtype,
            empty_value=empty_value,
            cell_bits=cell_bits,
        )
    raise ValueError(f"frame kind must be 'hardware' or 'software', got {kind!r}")


def sized_from_memory(cls, window: int, memory_bytes: int, **kwargs):
    """Build ``cls`` sized for a memory budget (cells + group marks).

    One implementation serves every SHE sketch class: the geometry
    knobs (``alpha`` / ``beta`` / ``group_width``) come from the
    caller's kwargs, falling back to the class constructor's own
    defaults, so each algorithm's paper parameters apply without a
    per-class copy of this method.  Classes without a ``group_width``
    parameter (one cell per group, w = 1) size with ``group_width=1``;
    classes spreading the budget over several arrays declare
    ``memory_streams`` (SHE-MH: 2).
    """
    params = inspect.signature(cls.__init__).parameters

    def knob(name):
        if name in kwargs:
            return kwargs[name]
        p = params.get(name)
        if p is not None and p.default is not inspect.Parameter.empty:
            return p.default
        return None

    cfg_kwargs = {"window": window}
    for name in ("alpha", "beta"):
        value = knob(name)
        if value is not None:
            cfg_kwargs[name] = value
    group_width = knob("group_width")
    cfg_kwargs["group_width"] = 1 if group_width is None else group_width
    cfg = SheConfig(**cfg_kwargs)
    streams = getattr(cls, "memory_streams", 1)
    m = cfg.cells_for_memory(memory_bytes // streams, cls.cell_bits)
    return cls(window, m, **kwargs)


class SheSketchBase:
    """Item clock + common insert/query scaffolding for SHE sketches.

    Subclasses implement ``_touch_columns(keys, times)``, the hashing
    step that turns a batch of arrivals into the cell touches the apply
    kernel consumes, and own a ``frame``.  The base class
    maintains ``self.t`` — the count-based clock: the number of items
    inserted so far, which is also the arrival time of the *next* item.
    """

    #: two-stream sketches (SHE-MH shape) override this; executors and
    #: the engine dispatch on it instead of on concrete classes
    two_stream = False

    #: how many equal arrays share a memory budget (SHE-MH: 2)
    memory_streams = 1

    #: shared budget sizing — ``cls.from_memory(window, memory_bytes, **kw)``
    from_memory = classmethod(sized_from_memory)

    def __init__(self) -> None:
        self.t = 0

    # -- clock -------------------------------------------------------------

    def now(self) -> int:
        """Current time = number of items inserted so far."""
        return self.t

    def _resolve_time(self, t: int | None) -> int:
        """Queries default to 'now'; explicit times allow replay tests."""
        if t is None:
            return self.t
        return require_non_negative_int("t", t)

    def advance_to(self, t: int) -> None:
        """Move the clock forward to ``t`` without inserting anything.

        Sharded deployments use this to keep every shard on the union
        stream's time axis: a shard that saw no arrivals lately still
        ages.  Cleaning is lazy, so only the clock moves here; frames
        catch up on the next insert or query.
        """
        t = require_non_negative_int("t", t)
        if t < self.t:
            raise ValueError(f"cannot rewind clock from {self.t} to {t}")
        self.t = t

    def clone_empty(self) -> "SheSketchBase":
        """A fresh, empty sketch with identical geometry and hash seeds.

        Clones are mutually mergeable with the original (and with each
        other), which is exactly what a shard set needs.
        """
        out = copy.deepcopy(self)
        out.reset()
        return out

    # -- introspection -------------------------------------------------------

    def _probe_extra(self) -> dict:
        """Per-algorithm fields merged into :meth:`probe` (override)."""
        return {}

    def probe(self, t: int | None = None) -> dict:
        """Read-only introspection of the sketch's SHE state at ``t``.

        Wraps :func:`repro.obs.probes.frame_probe` over the sketch's
        frame: cell-age distribution vs ``Tcycle``, young/perfect/aged
        counts, legal-band coverage, occupancy, and the cleaning-work
        counters.  Never mutates the frame (no lazy cleaning runs), so
        it is safe to call between inserts at any rate.
        """
        from repro.obs.probes import frame_probe

        t = self._resolve_time(t)
        out = {
            "kind": type(self).__name__,
            "t": t,
            "memory_bytes": self.memory_bytes,
            "frame": frame_probe(self.frame, t),
        }
        out.update(self._probe_extra())
        return out

    # -- insertion ---------------------------------------------------------

    def insert(self, key: int) -> None:
        """Insert one item at the current time."""
        self.insert_many(np.asarray([key], dtype=np.uint64))

    def insert_many(self, keys) -> None:
        """Insert a batch of items at consecutive times, oldest first."""
        arr = as_key_array(keys)
        if arr.size == 0:
            return
        times = self.t + np.arange(arr.size, dtype=np.int64)
        self._insert_at(arr, times)
        self.t += int(arr.size)

    def insert_at(self, keys, times) -> None:
        """Insert a batch with explicit (non-decreasing) arrival times.

        This is the substream entry point: a shard observing part of a
        stream inserts its share of the arrivals at their *union-stream*
        times, so its clock stays aligned with every sibling shard and
        the shards remain mergeable (see :mod:`repro.core.merge`).
        Times must start at or after the current clock; afterwards the
        clock sits just past the last arrival.
        """
        arr = as_key_array(keys)
        times = np.asarray(times, dtype=np.int64)
        if arr.shape != times.shape:
            raise ValueError(
                f"keys ({arr.shape}) and times ({times.shape}) must align"
            )
        if arr.size == 0:
            return
        if int(times[0]) < self.t:
            raise ValueError(
                f"times must start at or after the clock ({self.t}), "
                f"got {int(times[0])}"
            )
        # shifted views: one compare, no int64 temporary
        if (times[1:] < times[:-1]).any():
            raise ValueError("times must be non-decreasing")
        self._insert_at(arr, times)
        self.t = int(times[-1]) + 1

    def _insert_at(self, keys: np.ndarray, times: np.ndarray) -> None:
        # hash first: a subclass without the hook fails here with
        # NotImplementedError, before anything reads ``self.frame``
        cols = self._touch_columns(keys, times)
        apply_columnar(self.frame, *cols)

    def _touch_columns(self, keys: np.ndarray, times: np.ndarray):
        """``(times, cell_idx, values, kind)`` for a batch of arrivals.

        The per-kind hashing step, and the only hook an insert needs:
        :meth:`_insert_at` feeds these columns to the one apply kernel,
        :func:`repro.core.batch.apply_columnar`.  ``times`` may stay
        one per key, with ``cell_idx`` holding ``k`` touches per key
        item-major or as the hashes' touch-major ``(k, n)`` block.
        """
        raise NotImplementedError
