"""Key partitioning for the sharded streaming engine.

Shard assignment must be (a) deterministic — a key always lands on the
same shard, so per-key state never splits, (b) independent of every
hash family the sketches use — correlation would skew per-shard load
*and* per-shard collision structure, and (c) cheap enough to sit on the
ingest hot path.  One splitmix64 round over ``key XOR seed`` satisfies
all three; the engine's default partitioner seed is distinct from every
sketch seed in the repository.
"""

from __future__ import annotations

import numpy as np

from repro.common.hashing import remainder_inplace, splitmix64, splitmix64_inplace
from repro.common.validation import require_positive_int

__all__ = ["DEFAULT_SHARD_SEED", "shard_ids", "shard_of", "partition"]

DEFAULT_SHARD_SEED = 0x5EA2D_C0DE


def shard_of(key: int, num_shards: int, seed: int = DEFAULT_SHARD_SEED) -> int:
    """Owning shard of one key — the scalar twin of :func:`shard_ids`.

    Bit-identical to ``shard_ids(np.asarray([key], dtype=np.uint64), ...)[0]``
    without building the array.
    """
    if num_shards == 1:
        return 0
    return splitmix64((int(key) ^ seed) & 0xFFFFFFFFFFFFFFFF) % num_shards


def shard_ids(keys: np.ndarray, num_shards: int, seed: int = DEFAULT_SHARD_SEED) -> np.ndarray:
    """Owning shard of each key, shape ``(n,)`` with values in ``[0, S)``."""
    require_positive_int("num_shards", num_shards)
    if num_shards == 1:
        return np.zeros(keys.shape, dtype=np.int64)
    z = np.asarray(keys, dtype=np.uint64) ^ np.uint64(seed)  # owned copy
    splitmix64_inplace(z, np.empty_like(z))
    remainder_inplace(z, num_shards)
    return z.view(np.int64)  # values < S: the reinterpretation is exact


def partition(
    keys: np.ndarray,
    times: np.ndarray,
    sids: np.ndarray,
    num_shards: int,
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Split a stamped batch into per-shard runs ``(shard, keys, times)``.

    The engine's one partition routine, for ingest and replay alike.
    ``sids`` are the keys' :func:`shard_ids`.  A stable argsort by shard
    id makes the runs slices of one reordered copy, in shard order, with
    each shard's times still non-decreasing (the frames' batch paths
    need that).  Runs never alias ``keys``, so callers may reuse it.
    """
    if num_shards == 1:
        return [(0, keys.copy(), times)] if keys.size else []
    # a stable sort of 8- or 16-bit keys is NumPy's radix sort, several
    # times faster than the merge sort it runs on int64 shard ids
    order = np.argsort(sids.astype(np.min_scalar_type(num_shards - 1)), kind="stable")
    counts = np.bincount(sids, minlength=num_shards).tolist()
    keys_p = keys[order]
    times_p = times[order]
    runs = []
    lo = 0
    for s, n in enumerate(counts):
        if n:
            runs.append((s, keys_p[lo : lo + n], times_p[lo : lo + n]))
            lo += n
    return runs
