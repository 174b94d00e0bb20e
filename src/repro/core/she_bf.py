"""SHE-BF: the Bloom filter lifted to sliding windows (§3.2-2, §4.2).

Insertion sets the ``k`` hashed bits like an ordinary Bloom filter; the
frame's cleaning process expires old bits.  Queries apply *age-sensitive
selection*: young bits (age < N) carry incomplete window information and
could create false negatives, so they are ignored; among the remaining
(perfect/aged) mapped bits, any 0 proves the key is absent from the
window.  This preserves the original one-sided error — SHE-BF never
reports a false negative (property-tested in
``tests/core/test_she_bf.py``).

The default ``alpha = 3`` follows Eq. 2 for ``k = 8`` hash functions
(:func:`repro.analysis.optimal_alpha.optimal_alpha`).
"""

from __future__ import annotations

import numpy as np

from repro.common.hashing import HashFamily
from repro.common.validation import as_key_array, require_positive_int
from repro.core.base import FrameKind, SheSketchBase, make_frame
from repro.core.config import SheConfig
from repro.core.csm import UpdateKind

__all__ = ["SheBloomFilter"]


class SheBloomFilter(SheSketchBase):
    """Sliding-window Bloom filter with SHE cleaning.

    Args:
        window: sliding-window size N (items).
        num_bits: number of bits M (rounded down to a group multiple).
        num_hashes: k, the number of hash functions (paper default 8).
        alpha: cleaning stretch; paper default 3 for k=8 (Eq. 2).
        group_width: cells per hardware group (paper default 64).
        frame: ``"hardware"`` (group marks) or ``"software"`` (sweep).
        seed: hash-family seed.
    """

    cell_bits = 1

    def __init__(
        self,
        window: int,
        num_bits: int,
        *,
        num_hashes: int = 8,
        alpha: float = 3.0,
        group_width: int = 64,
        frame: FrameKind = "hardware",
        seed: int = 1,
    ):
        super().__init__()
        require_positive_int("num_bits", num_bits)
        self.config = SheConfig(window=window, alpha=alpha, group_width=group_width)
        m = (num_bits // group_width) * group_width if frame == "hardware" else num_bits
        if m < 1:
            raise ValueError(
                f"num_bits ({num_bits}) must fit at least one group of {group_width}"
            )
        self.num_bits = m
        self.num_hashes = require_positive_int("num_hashes", num_hashes)
        self.hashes = HashFamily(self.num_hashes, seed=seed)
        self.frame = make_frame(
            frame, self.config, m, dtype=np.uint8, empty_value=0, cell_bits=self.cell_bits
        )

    # sizing for a memory budget: the shared SheSketchBase.from_memory

    # -- insertion -----------------------------------------------------------

    def _touch_columns(self, keys: np.ndarray, times: np.ndarray):
        # one time per item and the hashes' contiguous touch-major
        # (k, n) block: no per-touch times, no transpose copy
        idx = self.hashes.indices(keys, self.num_bits).T
        return times, idx, None, UpdateKind.SET_ONE

    # -- queries ---------------------------------------------------------------

    def contains(self, key: int, t: int | None = None) -> bool:
        """Did ``key`` appear within the last N items? (no false negatives)"""
        return bool(self.contains_many(np.asarray([key], dtype=np.uint64), t)[0])

    def contains_many(self, keys, t: int | None = None) -> np.ndarray:
        """Vectorised membership test for a batch of keys."""
        t = self._resolve_time(t)
        keys = as_key_array(keys)
        idx = self.hashes.indices(keys, self.num_bits).T  # (k, n)
        bits, mature = self.frame.read_mature(idx.reshape(-1), t)
        bits = bits.reshape(idx.shape)
        mature = mature.reshape(idx.shape)
        # evidence of absence: a mature mapped bit that is 0 (bits hold
        # 0/1, so ``mature > bits`` is ``mature & (bits == 0)``)
        absent = np.any(mature > bits, axis=0)
        return ~absent

    def _probe_extra(self) -> dict:
        return {"num_bits": self.num_bits, "num_hashes": self.num_hashes}

    @property
    def memory_bytes(self) -> int:
        return self.frame.memory_bytes

    def reset(self) -> None:
        """Clear all state and rewind the clock."""
        self.frame.reset()
        self.t = 0
