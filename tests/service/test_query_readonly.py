"""Queries never write shard state.

Point queries read cells through ``frame.read`` and the fan-in folds
``frame.read_all`` of every shard, so engine state stays a pure
function of the ingested stream however queries interleave with
ingest: a query leaves every shard exactly as it found it, and a serial
engine (which queries its live shards) stays bit-identical to a process
engine (which queries copies shipped back from its workers).
"""

import json

import numpy as np
import pytest

from repro.core.registry import descriptor_of
from repro.service import EngineConfig, StreamEngine, shard_ids

QUERIES = {
    "cm": lambda eng, probes: eng.frequency_many(probes),
    "bf": lambda eng, probes: eng.contains_many(probes),
    "hll": lambda eng, probes: eng.cardinality(),
    "bm": lambda eng, probes: eng.cardinality(),
}


def state_of(engine):
    """Every shard's bit-level (meta, arrays), after a sync."""
    out = []
    for snap in engine.snapshots():
        meta, arrays = descriptor_of(snap).sketch_state(snap)
        out.append((json.dumps(meta, sort_keys=True, default=repr),
                    {k: np.asarray(v).copy() for k, v in arrays.items()}))
    return out


def assert_same_state(got, want):
    assert len(got) == len(want)
    for (meta_g, arr_g), (meta_w, arr_w) in zip(got, want):
        assert meta_g == meta_w
        assert arr_g.keys() == arr_w.keys()
        for k in arr_w:
            assert np.array_equal(arr_g[k], arr_w[k]), k


@pytest.mark.parametrize("kind", sorted(QUERIES))
@pytest.mark.parametrize("frame", ["hardware", "software"])
def test_queries_leave_shards_unchanged_and_serial_matches_process(kind, frame):
    # small frames, sparse per-shard traffic and idle gaps: most groups
    # sit stale between touches, which is what in-place cleaning hit
    window = 1 << 10
    cfg = EngineConfig(kind, window=window, size=1 << 10, num_shards=4,
                       flush_batch_size=256, flush_interval_s=None,
                       sketch_kwargs={"seed": 3, "frame": frame})
    rng = np.random.default_rng(7)
    serial = StreamEngine(cfg)
    process = StreamEngine(cfg, executor="process", num_workers=2)
    try:
        for rnd in range(8):
            keys = rng.integers(0, 1 << 20, size=int(rng.integers(100, 900)),
                                dtype=np.uint64)
            probes = rng.integers(0, 1 << 20, size=64, dtype=np.uint64)
            for eng in (serial, process):
                eng.ingest(keys)
            before = state_of(serial)  # syncs: nothing left to drain
            got = QUERIES[kind](serial, probes)
            assert_same_state(state_of(serial), before)
            assert np.array_equal(got, QUERIES[kind](process, probes)), rnd
            if rnd % 3 == 1:
                # shards 1..3 sit idle while shard 0 takes a window of
                # arrivals: their marks flip past untouched groups
                gap = rng.integers(0, 1 << 40, size=8 * window, dtype=np.uint64)
                gap = gap[shard_ids(gap, cfg.num_shards, cfg.shard_seed) == 0]
                for eng in (serial, process):
                    eng.ingest(gap)
        for eng in (serial, process):
            eng.flush()
        assert_same_state(state_of(serial), state_of(process))
    finally:
        serial.close()
        process.close()
