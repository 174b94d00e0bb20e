"""The original fixed-window Count-Min sketch (§2.1, Cormode 2005).

Following the paper's CSM description (Fig. 2), this is the single-array
variant: one array of n counters, k hash functions into it, query =
minimum over the k mapped counters.  It never underestimates.
"""

from __future__ import annotations

import numpy as np

from repro.common.hashing import HashFamily
from repro.common.validation import as_key_array, require_positive_int

__all__ = ["CountMinSketch"]


class CountMinSketch:
    """Plain single-array Count-Min frequency estimator."""

    def __init__(self, num_counters: int, num_hashes: int = 8, *, seed: int = 14):
        self.num_counters = require_positive_int("num_counters", num_counters)
        self.num_hashes = require_positive_int("num_hashes", num_hashes)
        self.hashes = HashFamily(self.num_hashes, seed=seed)
        self.counters = np.zeros(self.num_counters, dtype=np.uint32)

    def insert(self, key: int) -> None:
        """Increment the k mapped counters."""
        self.insert_many(np.asarray([key], dtype=np.uint64))

    def insert_many(self, keys) -> None:
        """Vectorised batch insert (duplicate indices accumulate)."""
        keys = as_key_array(keys)
        if keys.size == 0:
            return
        # the contiguous (k, n) block flattens without a copy; a
        # dtype-matched operand keeps np.add.at on its fast indexed loop
        idx = self.hashes.indices(keys, self.num_counters).T
        np.add.at(self.counters, idx.reshape(-1), self.counters.dtype.type(1))

    def frequency(self, key: int) -> int:
        """Min over the k mapped counters (never underestimates)."""
        return int(self.frequency_many(np.asarray([key], dtype=np.uint64))[0])

    def frequency_many(self, keys) -> np.ndarray:
        """Vectorised frequency estimates."""
        keys = as_key_array(keys)
        idx = self.hashes.indices(keys, self.num_counters).T  # (k, n)
        return np.min(self.counters[idx.reshape(-1)].reshape(idx.shape), axis=0)

    @property
    def memory_bytes(self) -> int:
        return self.num_counters * 4

    def reset(self) -> None:
        self.counters.fill(0)
