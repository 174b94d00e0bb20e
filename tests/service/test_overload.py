"""Admission control & backpressure: bounded buffers, typed policies.

The acceptance bar (ISSUE 5): with a permanently stalled shard and
sustained ingest, total buffered items never exceed the configured
budget under *every* overload policy; ``"raise"`` rejects batches with
:class:`EngineOverloadedError` without advancing the union-stream clock
for the rejected keys; shed counts exactly satisfy the conservation
identity; and the default unbounded config preserves the pre-budget
behaviour.  The soak test pins a down shard, drives two hundred bursts
through each policy, and asserts both the item bound and a tracemalloc
memory ceiling.
"""

import tracemalloc

import numpy as np
import pytest

from repro.service import (
    OVERLOAD_POLICIES,
    ChaosExecutor,
    EngineConfig,
    EngineOverloadedError,
    ProcessExecutor,
    ShardError,
    StreamEngine,
)
from repro.service.sharding import shard_ids


def cfg(**kw):
    base = dict(
        window=4096, size=1024, num_shards=4,
        flush_batch_size=64, flush_interval_s=None,
        sketch_kwargs={"seed": 3},
    )
    base.update(kw)
    return EngineConfig("cm", **base)


def keys_for_shard(shard, config, n=4000):
    """Keys that all hash to ``shard`` under ``config``'s partitioner."""
    pool = np.arange(n * config.num_shards * 2, dtype=np.uint64)
    sids = shard_ids(pool, config.num_shards, config.shard_seed)
    owned = pool[sids == shard]
    assert owned.size >= n
    return owned[:n]


def assert_conserved(engine):
    snap = engine.stats_snapshot(tick=False)
    assert snap["items_ingested"] == (
        snap["items_flushed"] + snap["items_buffered"]
        + snap["items_shed"] + snap["items_retained_down"]
    ), snap
    return snap


class TestUnboundedDefault:
    def test_default_config_is_unbounded(self):
        c = cfg()
        assert not c.bounded
        assert c.max_buffered_items is None
        assert c.max_buffered_total is None
        assert c.overload_policy == "raise"

    def test_unbounded_engine_admits_everything(self):
        eng = StreamEngine(cfg(flush_batch_size=10**9))
        eng._down.add(0)  # even a down shard retains without limit
        stream = np.arange(5000, dtype=np.uint64)
        eng.ingest(stream)
        assert eng.now() == 5000
        snap = assert_conserved(eng)
        assert snap["items_shed"] == 0 and snap["items_rejected"] == 0


class TestConfigValidation:
    @pytest.mark.parametrize("field", [
        "max_buffered_items", "max_buffered_total", "down_retention_items",
    ])
    def test_budgets_must_be_positive(self, field):
        with pytest.raises((ValueError, TypeError)):
            cfg(**{field: 0})

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="overload_policy"):
            cfg(overload_policy="drop_table")

    def test_budget_fields_round_trip_via_json(self):
        c = cfg(max_buffered_items=32, overload_policy="shed_oldest",
                down_retention_items=8)
        again = EngineConfig.from_json(c.to_json())
        assert again == c and again.bounded


class TestRaisePolicy:
    def test_rejects_atomically_without_clock_ticks(self):
        c = cfg(max_buffered_items=64, overload_policy="raise")
        eng = StreamEngine(c)
        eng._down.add(1)
        hot = keys_for_shard(1, c)
        admitted = rejected = 0
        saw_error = None
        for lo in range(0, 2000, 50):
            batch = hot[lo:lo + 50]
            try:
                eng.ingest(batch)
                admitted += batch.size
            except EngineOverloadedError as err:
                rejected += batch.size
                saw_error = err
        assert rejected > 0
        # the clock advanced exactly once per admitted arrival: no
        # rejected key consumed a tick
        assert eng.now() == admitted
        assert eng.queue_depths()[1] <= 64
        assert saw_error.shard_ids == (1,)
        assert saw_error.depths[1] <= 64
        assert saw_error.limit == 64
        assert saw_error.policy == "raise"
        snap = assert_conserved(eng)
        assert snap["items_rejected"] == rejected
        assert snap["items_ingested"] == admitted

    def test_engine_wide_budget(self):
        c = cfg(max_buffered_total=100, overload_policy="raise")
        eng = StreamEngine(c)
        eng._down.update(range(c.num_shards))  # nothing can drain
        with pytest.raises(EngineOverloadedError) as exc:
            eng.ingest(np.arange(500, dtype=np.uint64))
        assert exc.value.total_limit == 100
        assert eng.now() == 0

    def test_relief_flush_avoids_false_overload(self):
        # live shards drain on demand: a budget smaller than the burst
        # never fires as long as every shard can flush
        c = cfg(max_buffered_total=128, flush_batch_size=10**9,
                overload_policy="raise")
        eng = StreamEngine(c)
        for lo in range(0, 4000, 100):
            eng.ingest(np.arange(lo, lo + 100, dtype=np.uint64))
        snap = assert_conserved(eng)
        assert snap["items_rejected"] == 0
        assert snap["items_flushed"] > 0

    def test_relief_flush_makes_room_under_per_shard_budget(self):
        # live shards: the one relief flush makes room immediately, so
        # a per-shard budget far below the stream rejects nothing
        c = cfg(max_buffered_items=16, flush_batch_size=10**9,
                overload_policy="raise")
        eng = StreamEngine(c)
        for lo in range(0, 1000, 40):
            eng.ingest(np.arange(lo, lo + 40, dtype=np.uint64))
        snap = assert_conserved(eng)
        assert snap["items_rejected"] == 0
        assert eng.now() == 1000


class TestShedPolicies:
    @pytest.mark.parametrize("policy", ["shed_oldest", "shed_newest"])
    def test_bounded_and_conserved(self, policy):
        c = cfg(max_buffered_items=64, overload_policy=policy)
        eng = StreamEngine(c)
        eng._down.add(2)
        hot = keys_for_shard(2, c)
        for lo in range(0, 3000, 77):
            eng.ingest(hot[lo:lo + 77])
        assert eng.queue_depths()[2] <= 64
        snap = assert_conserved(eng)
        assert snap["items_shed"] > 0
        assert snap["items_rejected"] == 0
        assert eng.overload_snapshot()["items_shed_per_shard"][2] == snap["items_shed"]

    def test_shed_newest_door_drops_never_tick(self):
        c = cfg(max_buffered_items=64, overload_policy="shed_newest")
        eng = StreamEngine(c)
        eng._down.add(2)
        hot = keys_for_shard(2, c)
        for lo in range(0, 3000, 77):
            eng.ingest(hot[lo:lo + 77])
        snap = eng.stats_snapshot(tick=False)
        # every tick belongs to an arrival that is flushed, buffered or
        # retained — the door-dropped remainder consumed none
        assert eng.now() == snap["items_ingested"] - snap["items_shed"]

    def test_shed_oldest_keeps_newest(self):
        c = cfg(max_buffered_items=10, overload_policy="shed_oldest")
        eng = StreamEngine(c)
        eng._down.add(2)
        hot = keys_for_shard(2, c)
        eng.ingest(hot[:30])
        buf = eng._buffers[2, 0]
        kept_times = np.concatenate(buf.times)
        assert kept_times.size == 10
        # the survivors are the 10 *newest* stamps
        assert kept_times.min() == 20 and kept_times.max() == 29

    def test_shed_newest_keeps_oldest(self):
        c = cfg(max_buffered_items=10, overload_policy="shed_newest")
        eng = StreamEngine(c)
        eng._down.add(2)
        hot = keys_for_shard(2, c)
        eng.ingest(hot[:30])
        buf = eng._buffers[2, 0]
        kept_times = np.concatenate(buf.times)
        assert kept_times.size == 10
        assert kept_times.min() == 0 and kept_times.max() == 9

    def test_degraded_answer_carries_shed_caveat(self):
        c = cfg(max_buffered_items=32, overload_policy="shed_oldest")
        eng = StreamEngine(c)
        eng._down.add(0)
        hot = keys_for_shard(0, c)
        for lo in range(0, 1000, 50):
            eng.ingest(hot[lo:lo + 50])
        eng._down.clear()  # "recovered": the shard answers again
        ans = eng.frequency_many(hot[:4], strict=False)
        assert ans.degraded
        assert ans.shed_shards == (0,)
        assert ans.missing_shards == ()
        assert "shed" in ans.caveat
        assert 0 in eng.overload_snapshot()["shed_in_window"]

    def test_shed_caveat_expires_with_the_window(self):
        c = cfg(window=64, max_buffered_items=32,
                overload_policy="shed_oldest")
        eng = StreamEngine(c)
        eng._down.add(0)
        hot = keys_for_shard(0, c)
        for lo in range(0, 500, 50):
            eng.ingest(hot[lo:lo + 50])
        eng._down.clear()
        assert eng.frequency_many(hot[:2], strict=False).shed_shards == (0,)
        # slide the window fully past the shed event with clean traffic
        cold = keys_for_shard(1, c, n=200)
        eng.ingest(cold[:100])
        ans = eng.frequency_many(hot[:2], strict=False)
        assert ans.shed_shards == ()
        assert not ans.degraded and ans.caveat is None


class TestDownRetentionCap:
    def test_down_cap_overrides_per_shard_budget(self):
        c = cfg(max_buffered_items=500, down_retention_items=20,
                overload_policy="shed_oldest")
        eng = StreamEngine(c)
        eng._down.add(1)
        hot = keys_for_shard(1, c)
        for lo in range(0, 1000, 50):
            eng.ingest(hot[lo:lo + 50])
        assert eng.queue_depths()[1] <= 20
        assert_conserved(eng)

    def test_live_shard_keeps_the_big_budget(self):
        c = cfg(max_buffered_items=500, down_retention_items=20,
                flush_batch_size=10**9, overload_policy="raise")
        eng = StreamEngine(c)
        eng.ingest(np.arange(300, dtype=np.uint64))  # all live: no limit hit
        assert eng.stats_snapshot(tick=False)["items_rejected"] == 0


class TestTick:
    def test_tick_drains_idle_engine(self):
        t = [0.0]
        c = cfg(flush_batch_size=10**9, flush_interval_s=1.0)
        eng = StreamEngine(c, clock=lambda: t[0])
        eng.ingest(np.arange(100, dtype=np.uint64))
        assert sum(eng.queue_depths()) > 0  # clock pinned: no time trigger
        t[0] = 10.0  # the stream goes quiet; the deadline passes
        eng.tick()
        assert sum(eng.queue_depths()) == 0

    def test_stats_snapshot_ticks_serial_engines(self):
        t = [0.0]
        c = cfg(flush_batch_size=10**9, flush_interval_s=1.0)
        eng = StreamEngine(c, clock=lambda: t[0])
        eng.ingest(np.arange(100, dtype=np.uint64))
        t[0] = 10.0
        snap = eng.stats_snapshot()
        assert snap["items_flushed"] == 100 and snap["items_buffered"] == 0

    def test_tick_is_noop_before_deadline(self):
        c = cfg(flush_batch_size=10**9, flush_interval_s=3600.0)
        eng = StreamEngine(c)
        eng.ingest(np.arange(100, dtype=np.uint64))
        eng.tick()
        assert sum(eng.queue_depths()) == 100


class TestHighWaterAndObs:
    def test_high_water_tracks_deepest_queue(self):
        c = cfg(flush_batch_size=10**9, flush_interval_s=None)
        eng = StreamEngine(c)
        eng.ingest(np.arange(400, dtype=np.uint64))
        depths = eng.queue_depths()
        hw = eng.overload_snapshot()["queue_high_water"]
        assert hw == depths
        eng.flush()
        assert eng.overload_snapshot()["queue_high_water"] == hw  # sticky

    def test_shed_metrics_exported(self):
        c = cfg(max_buffered_items=32, overload_policy="shed_oldest")
        eng = StreamEngine(c, obs=True)
        eng._down.add(0)
        hot = keys_for_shard(0, c)
        for lo in range(0, 500, 50):
            eng.ingest(hot[lo:lo + 50])
        eng.update_probe_gauges()
        text = eng.obs.registry.render()
        assert "engine_items_shed_total" in text
        assert 'engine_shard_items_shed_total{shard="0"}' in text
        assert "engine_queue_depth_high_water" in text
        shed = eng.stats_snapshot(tick=False)["items_shed"]
        assert f"engine_items_shed_total {shed}" in text


SOAK_BURSTS = 200
SOAK_BURST_SIZE = 256


class TestSoakBoundedMemory:
    """Sustained bursts into a permanently stalled shard: items *and*
    bytes stay bounded under every policy (raise callers back off)."""

    @pytest.mark.parametrize("policy", OVERLOAD_POLICIES)
    def test_stalled_shard_soak(self, policy):
        c = cfg(
            max_buffered_items=512, max_buffered_total=2048,
            down_retention_items=512, overload_policy=policy,
            flush_batch_size=128,
        )
        eng = StreamEngine(c)
        eng._down.add(0)  # permanently stalled: never recovers
        rng = np.random.default_rng(11)
        stream = rng.integers(0, 1 << 20, size=SOAK_BURSTS * SOAK_BURST_SIZE,
                              dtype=np.uint64)
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        for i in range(SOAK_BURSTS):
            burst = stream[i * SOAK_BURST_SIZE:(i + 1) * SOAK_BURST_SIZE]
            try:
                eng.ingest(burst)
            except EngineOverloadedError:
                pass  # raise: the caller backs off
            assert sum(eng.queue_depths()) <= 2048
            assert eng.queue_depths()[0] <= 512
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # the bound in bytes: 2048 buffered items is ~32 KiB of key+time
        # payload; give generous headroom for allocator noise and numpy
        # temporaries, but stay far below the ~80 MB an unbounded run
        # of 51k retained items-per-policy sequence would approach
        assert current - baseline < 8 * 1024 * 1024, (baseline, current, peak)
        assert_conserved(eng)

    def test_unbounded_comparison_grows(self):
        # the control: without budgets the stalled shard's buffer grows
        # with the stream, which is exactly what the budgets prevent
        eng = StreamEngine(cfg(flush_batch_size=128))
        eng._down.add(0)
        hot = keys_for_shard(0, cfg(), n=4000)
        for lo in range(0, 4000, 200):
            eng.ingest(hot[lo:lo + 200])
        assert eng.queue_depths()[0] == 4000


class TestSlowWorkerChaos:
    def test_slow_worker_completes_inside_deadline(self):
        c = cfg(num_shards=2, flush_batch_size=8, rpc_timeout_s=5.0)
        chaos_holder = {}

        def factory(shards):
            chaos_holder["exec"] = ChaosExecutor(
                ProcessExecutor(shards, num_workers=2, timeout_s=5.0),
                slow_workers={0: 0.05},
            )
            return chaos_holder["exec"]

        eng = StreamEngine(c, executor=factory, obs=True)
        try:
            eng.ingest(np.arange(64, dtype=np.uint64))
            eng.flush()
            # slow is not a fault: nothing timed out, nothing is down
            assert eng.down_shards == ()
            assert eng.stats_snapshot(tick=False)["rpc_timeouts"] == 0
            chaos = chaos_holder["exec"]
            assert chaos._chaos_events.labels("slow").value >= 1
            assert 'chaos_events_total{event="slow"}' in eng.obs.registry.render()
        finally:
            eng.close()

    def test_slow_must_stay_below_deadline(self):
        import types
        inner = types.SimpleNamespace(timeout_s=1.0)
        with pytest.raises(ValueError, match="slow_workers"):
            ChaosExecutor(inner, slow_workers={0: 2.0})

    def test_slow_seconds_must_be_positive(self):
        from repro.service import SerialExecutor
        with pytest.raises(ValueError, match="positive"):
            ChaosExecutor(SerialExecutor([]), slow_workers={0: 0.0})
