"""Every arrival is accounted for, across faults and recovery.

The conservation identity the stats layer promises (ISSUE 5)::

    items_ingested == items_flushed + items_buffered
                      + items_shed + items_retained_down

must hold at *every* observable moment — mid-burst, with a shard down,
after shedding, after kill + restart + replay.  These tests walk an
engine through stall, kill and recover sequences (deterministic chaos,
op-indexed) and assert the identity after each step.  ``items_rejected``
(raise policy) sits outside the identity by design: rejected
batches never enter the system at all.
"""

import numpy as np
import pytest

from repro.service import (
    ChaosExecutor,
    EngineConfig,
    EngineOverloadedError,
    ProcessExecutor,
    RetryPolicy,
    SerialExecutor,
    ShardError,
    StreamEngine,
    Supervisor,
)
from repro.service.sharding import shard_ids


def cfg(**kw):
    base = dict(
        window=2048, size=1024, num_shards=4,
        flush_batch_size=500, flush_interval_s=None,
        rpc_timeout_s=5.0, sketch_kwargs={"seed": 7},
    )
    base.update(kw)
    return EngineConfig("cm", **base)


def conserved(engine) -> dict:
    snap = engine.stats_snapshot(tick=False)
    lhs = snap["items_ingested"]
    rhs = (
        snap["items_flushed"] + snap["items_buffered"]
        + snap["items_shed"] + snap["items_retained_down"]
    )
    assert lhs == rhs, snap
    return snap


@pytest.fixture
def stream():
    return np.random.default_rng(17).integers(
        0, 1000, size=12_000, dtype=np.uint64
    )


class TestSteadyState:
    def test_identity_holds_every_step_of_a_clean_run(self, stream):
        eng = StreamEngine(cfg())
        for lo in range(0, stream.size, 997):
            eng.ingest(stream[lo:lo + 997])
            conserved(eng)
        eng.flush()
        snap = conserved(eng)
        assert snap["items_flushed"] == stream.size
        assert snap["items_buffered"] == 0

    def test_identity_with_time_trigger_ticks(self, stream):
        t = [0.0]
        eng = StreamEngine(
            cfg(flush_batch_size=10**9, flush_interval_s=1.0),
            clock=lambda: t[0],
        )
        for i, lo in enumerate(range(0, 6000, 500)):
            eng.ingest(stream[lo:lo + 500])
            if i % 3 == 2:
                t[0] += 2.0
                eng.tick()
            conserved(eng)


class TestDownShardRetention:
    def test_identity_across_mark_down_and_recover(self, stream):
        eng = StreamEngine(cfg())
        eng.ingest(stream[:3000])
        conserved(eng)
        eng._down.add(1)  # stalled: its buffer is retained, not flushed
        eng.ingest(stream[3000:6000])
        snap = conserved(eng)
        down_held = snap["items_retained_down"]
        assert down_held > 0
        eng._down.clear()  # recovered: retained items become flushable
        eng.flush()
        snap = conserved(eng)
        assert snap["items_retained_down"] == 0
        assert snap["items_flushed"] == 6000

    @pytest.mark.parametrize("policy", ["shed_oldest", "shed_newest"])
    def test_identity_with_bounded_down_shard(self, stream, policy):
        eng = StreamEngine(cfg(
            max_buffered_items=200, overload_policy=policy,
        ))
        eng._down.add(2)
        for lo in range(0, 9000, 300):
            eng.ingest(stream[lo:lo + 300])
            snap = conserved(eng)
        assert snap["items_shed"] > 0
        eng._down.clear()
        eng.flush()
        snap = conserved(eng)
        assert snap["items_buffered"] == 0 and snap["items_retained_down"] == 0
        # everything admitted either flushed or was shed — nothing vanished
        assert snap["items_ingested"] == snap["items_flushed"] + snap["items_shed"]

    def test_rejected_batches_stay_outside_the_identity(self, stream):
        c = cfg(max_buffered_items=100, overload_policy="raise")
        eng = StreamEngine(c)
        eng._down.add(0)
        hot_pool = np.arange(60_000, dtype=np.uint64)
        hot = hot_pool[shard_ids(hot_pool, 4, c.shard_seed) == 0]
        rejected = 0
        for lo in range(0, 2000, 100):
            try:
                eng.ingest(hot[lo:lo + 100])
            except EngineOverloadedError:
                rejected += 100
            snap = conserved(eng)
        assert rejected > 0
        assert snap["items_rejected"] == rejected
        assert eng.now() == snap["items_ingested"]  # ticks = admitted only


class TestKillAndRecover:
    def test_identity_across_kill_restart_replay(self, tmp_path, stream):
        config = cfg()
        chaos = {}

        def factory(shards):
            chaos["x"] = ChaosExecutor(
                SerialExecutor(shards), kill_worker_after_ops=9
            )
            return chaos["x"]

        eng = StreamEngine(config, executor=factory)
        Supervisor(eng, tmp_path, policy=RetryPolicy(backoff_base_s=0.0))
        for lo in range(0, stream.size, 1200):
            eng.ingest(stream[lo:lo + 1200])
            conserved(eng)
        assert chaos["x"].kills, "chaos never fired"
        assert eng.stats.worker_restarts >= 1
        eng.flush()
        snap = conserved(eng)
        # replayed items are not double counted as ingested
        assert snap["items_ingested"] == stream.size
        assert snap["items_flushed"] == stream.size

    def test_identity_across_unrecovered_kill(self, stream):
        config = cfg()
        chaos = {}

        def factory(shards):
            chaos["x"] = ChaosExecutor(
                SerialExecutor(shards), kill_worker_after_ops=9
            )
            return chaos["x"]

        eng = StreamEngine(config, executor=factory)  # no supervisor
        for lo in range(0, stream.size, 1200):
            try:
                eng.ingest(stream[lo:lo + 1200])
            except ShardError:
                pass  # the kill surfaces once; buffers retain the batch
            conserved(eng)
        assert chaos["x"].kills
        snap = conserved(eng)
        assert eng.down_shards != ()
        assert snap["items_retained_down"] > 0

    def test_identity_across_process_kill_with_supervision(
        self, tmp_path, stream
    ):
        config = cfg(num_shards=2)
        chaos = {}

        def factory(shards):
            chaos["x"] = ChaosExecutor(
                ProcessExecutor(shards, num_workers=2, timeout_s=5.0),
                kill_worker_after_ops=5,
            )
            return chaos["x"]

        eng = StreamEngine(config, executor=factory)
        Supervisor(eng, tmp_path, policy=RetryPolicy(backoff_base_s=0.0))
        try:
            for lo in range(0, 6000, 1100):
                eng.ingest(stream[lo:lo + 1100])
                conserved(eng)
            assert chaos["x"].kills
            eng.flush()
            snap = conserved(eng)
            assert snap["items_flushed"] == snap["items_ingested"]
        finally:
            eng.close()
