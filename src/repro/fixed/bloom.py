"""The original fixed-window Bloom filter (§2.1, Bloom 1970).

Used two ways in the reproduction: as the CSM source algorithm SHE-BF
lifts, and — wrapped by :class:`repro.fixed.ideal.IdealMembership` — as
the paper's "ideal goal" (a fresh filter rebuilt from the exact window
contents at query time).
"""

from __future__ import annotations

import numpy as np

from repro.common.hashing import HashFamily
from repro.common.validation import as_key_array, require_positive_int

__all__ = ["BloomFilter"]


class BloomFilter:
    """Plain k-hash Bloom filter over an n-bit array."""

    def __init__(self, num_bits: int, num_hashes: int = 8, *, seed: int = 11):
        self.num_bits = require_positive_int("num_bits", num_bits)
        self.num_hashes = require_positive_int("num_hashes", num_hashes)
        self.hashes = HashFamily(self.num_hashes, seed=seed)
        self.bits = np.zeros(self.num_bits, dtype=np.uint8)

    def insert(self, key: int) -> None:
        """Set the k hashed bits for ``key``."""
        self.insert_many(np.asarray([key], dtype=np.uint64))

    def insert_many(self, keys) -> None:
        """Vectorised batch insert."""
        keys = as_key_array(keys)
        if keys.size == 0:
            return
        idx = self.hashes.indices(keys, self.num_bits).T  # (k, n) block
        self.bits[idx.reshape(-1)] = 1

    def contains(self, key: int) -> bool:
        """True iff all k hashed bits are set (one-sided error)."""
        return bool(self.contains_many(np.asarray([key], dtype=np.uint64))[0])

    def contains_many(self, keys) -> np.ndarray:
        """Vectorised membership test."""
        keys = as_key_array(keys)
        idx = self.hashes.indices(keys, self.num_bits).T  # (k, n)
        return np.all(self.bits[idx.reshape(-1)].reshape(idx.shape) != 0, axis=0)

    @property
    def memory_bytes(self) -> int:
        return (self.num_bits + 7) // 8

    def reset(self) -> None:
        self.bits.fill(0)
