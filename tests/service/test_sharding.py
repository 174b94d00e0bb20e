"""The engine's partitioner against plain references.

``shard_ids`` reduces the partitioner hash with a mask for a
power-of-two shard count and a remainder otherwise; both must equal the
plain ``%`` reduction and the scalar ``shard_of`` key by key.
``partition`` must equal one masked copy per shard."""

import numpy as np
import pytest

from repro.common.hashing import splitmix64
from repro.service.sharding import DEFAULT_SHARD_SEED, partition, shard_ids
from helpers import shard_of


@pytest.mark.parametrize("seed", [DEFAULT_SHARD_SEED, 7])
@pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 7, 8])
def test_shard_ids_equal_remainder(num_shards, seed):
    keys = np.random.default_rng(num_shards).integers(
        0, 1 << 64, size=5000, dtype=np.uint64
    )
    want = splitmix64(keys ^ np.uint64(seed)) % np.uint64(num_shards)
    got = shard_ids(keys, num_shards, seed)
    assert got.dtype == np.int64
    assert np.array_equal(got, want.astype(np.int64))
    scalar = [shard_of(int(k), num_shards, seed) for k in keys[:300]]
    assert scalar == got[:300].tolist()


def test_shard_ids_leave_keys_untouched():
    keys = np.arange(100, dtype=np.uint64)
    shard_ids(keys, 4)
    assert np.array_equal(keys, np.arange(100, dtype=np.uint64))


@pytest.mark.parametrize("num_shards", [2, 3, 8, 300])
def test_partition_equals_masked_copies(num_shards):
    """Runs come out in shard order, each the shard's keys and times in
    arrival order, whatever width the shard ids sort at."""
    keys = np.random.default_rng(num_shards).integers(
        0, 1 << 64, size=4000, dtype=np.uint64
    )
    times = np.arange(keys.size, dtype=np.int64) * 3
    sids = shard_ids(keys, num_shards)
    runs = partition(keys, times, sids, num_shards)
    want = [s for s in range(num_shards) if np.any(sids == s)]
    assert [s for s, _, _ in runs] == want
    for s, k, t in runs:
        assert np.array_equal(k, keys[sids == s])
        assert np.array_equal(t, times[sids == s])
