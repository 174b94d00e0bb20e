"""Counter Vector Sketch (Shan et al., Neurocomputing 2016).

A bitmap-like cardinality estimator whose "bits" are small saturating
counters: inserting sets the hashed counter to the maximum value ``c``;
after every insertion a few *random* counters are decremented, so a
counter drains to zero roughly one window after its key stops arriving.
The decrement rate is ``M * c / N`` counters per insertion — the rate
at which a full sweep of ``M*c`` decrements spreads over one window.

Query is the bitmap MLE on the zero/non-zero pattern.  The randomness
of the decay is CVS's documented weakness (§2.2): two counters of equal
age can die at very different times, which inflates the estimator's
variance relative to SHE-BM's deterministic sweep.
"""

from __future__ import annotations

import numpy as np

from repro.common.hashing import HashFamily
from repro.common.validation import as_key_array, require_positive_int

__all__ = ["CounterVectorSketch"]


class CounterVectorSketch:
    """Bitmap with randomly decaying saturating counters.

    Args:
        window: sliding-window size N.
        num_counters: M counters.
        max_value: saturation value c (paper setting: 10).
        seed: hash + decay RNG seed.
    """

    def __init__(self, window: int, num_counters: int, *, max_value: int = 10, seed: int = 33):
        self.window = require_positive_int("window", window)
        self.num_counters = require_positive_int("num_counters", num_counters)
        self.max_value = require_positive_int("max_value", max_value)
        self._hash = HashFamily(1, seed=seed)
        self._rng = np.random.default_rng(seed)
        self.counters = np.zeros(self.num_counters, dtype=np.int8)
        # fractional decrements owed, carried between insertions
        self._decay_debt = 0.0
        self._rate = self.num_counters * self.max_value / self.window
        self.t = 0

    @classmethod
    def from_memory(cls, window: int, memory_bytes: int, *, max_value: int = 10, seed: int = 33) -> "CounterVectorSketch":
        """Size for a budget of ceil(log2(c+1))-bit counters."""
        require_positive_int("memory_bytes", memory_bytes)
        bits_per = max(1, int(np.ceil(np.log2(max_value + 1))))
        m = (memory_bytes * 8) // bits_per
        if m < 1:
            raise ValueError(f"{memory_bytes} B holds no {bits_per}-bit counter")
        return cls(window, m, max_value=max_value, seed=seed)

    def insert(self, key: int) -> None:
        """Set the hashed counter to c, then decay random counters."""
        self.insert_many(np.asarray([key], dtype=np.uint64))

    def insert_many(self, keys) -> None:
        """Batch insert: sets then the batch's worth of random decay.

        Exactness note: within a batch we apply all the sets first and
        then the accumulated decay.  Interleaving differs from per-item
        processing only in which random counters get decremented — the
        process is random either way, so callers should keep batches
        well below N (the metrics harness uses N/8 chunks).
        """
        keys = as_key_array(keys)
        if keys.size == 0:
            return
        idx = self._hash.indices(keys, self.num_counters)[:, 0]
        # process in sub-batches to keep set/decay interleaving fine-grained
        step = max(1, self.window // 64)
        for lo in range(0, keys.size, step):
            sub = idx[lo : lo + step]
            self.counters[sub] = self.max_value
            self._decay_debt += self._rate * sub.size
            n_dec = int(self._decay_debt)
            self._decay_debt -= n_dec
            if n_dec:
                victims = self._rng.integers(0, self.num_counters, size=n_dec)
                dec = np.zeros(self.num_counters, dtype=np.int64)
                np.add.at(dec, victims, dec.dtype.type(1))
                np.subtract(
                    self.counters,
                    np.minimum(dec, self.counters.astype(np.int64)).astype(np.int8),
                    out=self.counters,
                )
            self.t += int(sub.size)

    def cardinality(self) -> float:
        """Bitmap MLE on the non-zero pattern: -M * ln(zeros / M)."""
        zeros = int(np.count_nonzero(self.counters == 0))
        if zeros == 0:
            zeros = 0.5
        return -float(self.num_counters) * float(np.log(zeros / self.num_counters))

    @property
    def memory_bytes(self) -> int:
        bits_per = max(1, int(np.ceil(np.log2(self.max_value + 1))))
        return (self.num_counters * bits_per + 7) // 8

    def reset(self) -> None:
        self.counters.fill(0)
        self._decay_debt = 0.0
        self.t = 0
