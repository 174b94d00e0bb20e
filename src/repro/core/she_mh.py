"""SHE-MH: MinHash under SHE (§4.5).

Two counter arrays ``C1``/``C2`` track two streams; every insertion
updates **all** ``M`` counters with ``min(H_i(x), C_i)`` (classic
M-permutation MinHash), subject to SHE cleaning with one counter per
group (``w = 1``).  A cleaned counter holds the "empty" value — the
maximum 24-bit hash — which is the identity of min.  Similarity is the
match fraction ``u / k`` over the ``k`` counters whose age is legal on
*both* sides (§4.5; Eq. 5 bounds the bias by ``~alpha*T/(2*S_union)``).

Because one insertion touches every counter, a touch list would hold
``B x M`` entries; instead each chunk of the stream goes to
:func:`repro.core.batch.apply_columnar` as one ``(B, M)`` block of
column hashes, whose dense kernel keeps, per counter, the suffix of the
chunk that survives its last cleaning and takes its minimum.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.common.hashing import splitmix64
from repro.common.validation import as_key_array, require_non_negative_int, require_positive_int
from repro.core.base import FrameKind, make_frame, sized_from_memory
from repro.core.batch import apply_columnar
from repro.core.config import SheConfig
from repro.core.csm import UpdateKind

__all__ = ["SheMinHash"]

_HASH_BITS = 24
_EMPTY = (1 << _HASH_BITS) - 1
_CHUNK = 2048


class SheMinHash:
    """Sliding-window MinHash similarity estimator with SHE cleaning.

    Args:
        window: sliding-window size N (items, per stream).
        num_counters: number of MinHash functions / counters M per side.
        alpha: cleaning stretch (paper default 0.2).
        beta: lower edge of the legal age band.
        frame: ``"hardware"`` or ``"software"``.
        seed: seed for the M column hash functions (shared by both sides,
            as MinHash requires).
    """

    cell_bits = _HASH_BITS

    #: two frames / per-side clocks; dispatch on this, not the class
    two_stream = True

    #: the budget covers both counter arrays
    memory_streams = 2

    #: shared budget sizing (same implementation as SheSketchBase)
    from_memory = classmethod(sized_from_memory)

    def __init__(
        self,
        window: int,
        num_counters: int,
        *,
        alpha: float = 0.2,
        beta: float = 0.9,
        frame: FrameKind = "hardware",
        seed: int = 5,
    ):
        self.num_counters = require_positive_int("num_counters", num_counters)
        self.config = SheConfig(window=window, alpha=alpha, group_width=1, beta=beta)
        rng_state = np.uint64(seed)
        cols = np.arange(self.num_counters, dtype=np.uint64)
        self._col_seeds = splitmix64(cols * np.uint64(0x9E3779B97F4A7C15) + rng_state)
        self.frames = tuple(
            make_frame(
                frame,
                self.config,
                self.num_counters,
                dtype=np.uint32,
                empty_value=_EMPTY,
                cell_bits=self.cell_bits,
            )
            for _ in range(2)
        )
        self.counts = [0, 0]  # per-side item clocks

    # -- insertion ---------------------------------------------------------

    def _column_hashes(self, keys: np.ndarray) -> np.ndarray:
        """24-bit hash of every key under every column function: (B, M)."""
        return (
            splitmix64(keys[:, None] ^ self._col_seeds[None, :])
            & np.uint64(_EMPTY)
        ).astype(np.uint32)

    def insert(self, side: int, key: int) -> None:
        """Insert one item into stream ``side`` (0 or 1)."""
        self.insert_many(side, np.asarray([key], dtype=np.uint64))

    def insert_many(self, side: int, keys) -> None:
        """Insert a batch into stream ``side`` at consecutive times."""
        if side not in (0, 1):
            raise ValueError(f"side must be 0 or 1, got {side}")
        keys = as_key_array(keys)
        times = self.counts[side] + np.arange(keys.size, dtype=np.int64)
        self.insert_at(side, keys, times)

    def insert_at(self, side: int, keys, times) -> None:
        """Insert a substream batch with explicit (non-decreasing) times.

        The sharded-service counterpart of the base sketches'
        ``insert_at``: arrivals carry their union-stream times, which may
        be sparse (a shard sees only its share of the stream), so sibling
        shards stay clock-aligned and mergeable.  Times must start at or
        after the side's clock; afterwards the clock sits just past the
        last arrival.
        """
        if side not in (0, 1):
            raise ValueError(f"side must be 0 or 1, got {side}")
        keys = as_key_array(keys)
        times = np.asarray(times, dtype=np.int64)
        if keys.shape != times.shape:
            raise ValueError(
                f"keys ({keys.shape}) and times ({times.shape}) must align"
            )
        if keys.size == 0:
            return
        if int(times[0]) < self.counts[side]:
            raise ValueError(
                f"times must start at or after the side-{side} clock "
                f"({self.counts[side]}), got {int(times[0])}"
            )
        if np.any(np.diff(times) < 0):
            raise ValueError("times must be non-decreasing")
        for lo in range(0, keys.size, _CHUNK):
            hi = lo + _CHUNK
            apply_columnar(
                self.frames[side],
                times[lo:hi],
                None,
                self._column_hashes(keys[lo:hi]),
                UpdateKind.MIN_HASH,
            )
        self.counts[side] = int(times[-1]) + 1

    def advance_to(self, t: int, side: int | None = None) -> None:
        """Move one side's clock (or both) forward without inserting."""
        t = require_non_negative_int("t", t)
        sides = (0, 1) if side is None else (side,)
        for s in sides:
            if t < self.counts[s]:
                raise ValueError(
                    f"cannot rewind side-{s} clock from {self.counts[s]} to {t}"
                )
        for s in sides:
            self.counts[s] = t

    def clone_empty(self) -> "SheMinHash":
        """A fresh, empty sketch with identical geometry and hash seeds."""
        out = copy.deepcopy(self)
        out.reset()
        return out

    # -- introspection -------------------------------------------------------

    def probe(self, t: int | None = None) -> dict:
        """Read-only SHE introspection of both sides' frames.

        Mirrors :meth:`repro.core.base.SheSketchBase.probe` but reports
        one frame per stream side (each at its own clock unless an
        explicit ``t`` is given) — the two-stream shape of SHE-MH.
        """
        from repro.obs.probes import frame_probe

        times = (
            (self.counts[0], self.counts[1])
            if t is None
            else (require_non_negative_int("t", t),) * 2
        )
        return {
            "kind": type(self).__name__,
            "t": max(times),
            "memory_bytes": self.memory_bytes,
            "num_counters": self.num_counters,
            "frames": [
                frame_probe(frame, side_t)
                for frame, side_t in zip(self.frames, times)
            ],
        }

    # -- query ---------------------------------------------------------------

    def similarity(self, t: int | None = None) -> float:
        """Estimate the Jaccard similarity of the two windowed streams.

        Uses each side's own clock unless an explicit time is given;
        only counters legal on *both* sides participate.
        """
        t0 = self.counts[0] if t is None else t
        t1 = self.counts[1] if t is None else t
        f0, f1 = self.frames
        f0.prepare_query_all(t0)
        f1.prepare_query_all(t1)
        legal = f0.legal_groups(t0) & f1.legal_groups(t1)
        k = int(np.count_nonzero(legal))
        if k == 0:
            return 0.0
        u = int(np.count_nonzero(f0.cells[legal] == f1.cells[legal]))
        return u / k

    @property
    def memory_bytes(self) -> int:
        return self.frames[0].memory_bytes + self.frames[1].memory_bytes

    def reset(self) -> None:
        """Clear both sides and rewind the clocks."""
        for f in self.frames:
            f.reset()
        self.counts = [0, 0]
