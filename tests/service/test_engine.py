"""Engine semantics: shard invariance, fan-in, triggers, rejections."""

import numpy as np
import pytest

from repro.core import (
    SheBitmap,
    SheBloomFilter,
    SheCountMin,
    SheHyperLogLog,
    SheMinHash,
    TimedStream,
    merge_many,
)
from helpers import partition
from repro.exact import ExactWindow
from repro.service import EngineConfig, StreamEngine, shard_ids


def make_engine(kind, window, size, shards, **sketch_kwargs):
    cfg = EngineConfig(
        kind,
        window=window,
        size=size,
        num_shards=shards,
        flush_batch_size=777,  # deliberately unaligned with batch sizes
        flush_interval_s=None,
        sketch_kwargs=sketch_kwargs,
    )
    return StreamEngine(cfg)


@pytest.fixture
def stream():
    return np.random.default_rng(42).integers(0, 500, size=12_000, dtype=np.uint64)


class TestShardInvariance:
    """Engine answers are invariant to the shard count where theory says
    they must be (the ISSUE's acceptance criteria)."""

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_bf_bit_exact_vs_unsharded(self, stream, shards):
        """Merged BF fan-in == one unsharded sketch, bit for bit; point
        queries, read from each key's owner, are never looser."""
        eng = make_engine("bf", 2048, 1 << 13, shards, seed=3, num_hashes=4)
        eng.ingest(stream)
        whole = SheBloomFilter(2048, 1 << 13, seed=3, num_hashes=4)
        whole.insert_many(stream)
        merged = eng.merged()
        whole.frame.prepare_query_all(whole.now())
        assert np.array_equal(merged.frame.cells, whole.frame.cells)
        # membership comes from the owner shard alone: no false
        # negatives on window keys, and every positive is one the
        # unsharded sketch (which holds every shard's bits) gives too
        ew = ExactWindow(2048)
        ew.insert_many(stream)
        assert np.all(eng.contains_many(ew.distinct_keys()))
        probes = np.arange(2048, dtype=np.uint64)
        got = eng.contains_many(probes)
        assert not np.any(got & ~whole.contains_many(probes))

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_bm_bit_exact_vs_unsharded(self, stream, shards):
        eng = make_engine("bm", 2048, 1 << 12, shards, seed=2)
        eng.ingest(stream)
        whole = SheBitmap(2048, 1 << 12, seed=2)
        whole.insert_many(stream)
        assert eng.cardinality() == whole.cardinality()

    def test_hll_superset_and_close(self, stream):
        """w = 1 registers merge one-sidedly (see core/merge.py): the
        fan-in can only retain *stale extra* content, so merged cells
        dominate the unsharded sketch and estimates stay close."""
        eng = make_engine("hll", 2048, 256, 4, seed=5)
        eng.ingest(stream)
        whole = SheHyperLogLog(2048, 256, seed=5)
        whole.insert_many(stream)
        merged = eng.merged()
        whole.frame.prepare_query_all(whole.now())
        assert np.all(merged.frame.cells >= whole.frame.cells)
        assert abs(eng.cardinality() - whole.cardinality()) <= 0.3 * whole.cardinality()

    def test_bf_no_false_negatives(self, stream):
        eng = make_engine("bf", 2048, 1 << 13, 4, seed=3)
        eng.ingest(stream)
        ew = ExactWindow(2048)
        ew.insert_many(stream)
        assert np.all(eng.contains_many(ew.distinct_keys()))

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_cm_fan_in_sum_and_error_envelope(self, stream, shards):
        """CM property test: the engine's frequency equals the owning
        shard's estimate, never dips below the true windowed count
        (mature-counter guarantee), and stays inside the unsharded
        sketch's error envelope."""
        window, m = 2048, 1024
        eng = make_engine("cm", window, m, shards, seed=7)
        eng.ingest(stream)
        single = SheCountMin(window, m, seed=7)
        single.insert_many(stream)
        ew = ExactWindow(window)
        ew.insert_many(stream)
        probes = ew.distinct_keys()
        true = ew.frequency_many(probes)

        est = eng.frequency_many(probes)
        # (a) owner-shard read: engine == the owning shard's estimate
        snaps = eng.snapshots()
        owners = shard_ids(probes, shards, eng.config.shard_seed)
        owned = [
            snaps[s].frequency(k, eng.now()) for k, s in zip(probes, owners)
        ]
        assert np.array_equal(est, owned)
        # (b) never underestimates through mature counters; the only
        # legal dip is SHE-CM's documented all-young fallback (§4.4),
        # which at alpha=1, k=8 affects ~(1/2)^8 of point queries
        under = np.count_nonzero(est < true)
        assert under <= max(2, int(0.02 * probes.size))
        # (c) within the single unsharded sketch's error envelope: the
        # sharded engine has S disjoint key sets on S arrays, so its
        # aggregate overestimate should not exceed the single sketch's
        # (generously slackened for hash luck at fixed seeds)
        single_err = np.mean(single.frequency_many(probes) - true)
        engine_err = np.mean(est - true)
        assert engine_err <= max(1.5 * single_err, 2.0)

    def test_single_shard_equals_plain_sketch(self, stream):
        eng = make_engine("cm", 2048, 1024, 1, seed=7)
        eng.ingest(stream)
        single = SheCountMin(2048, 1024, seed=7)
        single.insert_many(stream)
        probes = np.arange(200, dtype=np.uint64)
        assert np.array_equal(eng.frequency_many(probes), single.frequency_many(probes))

    @pytest.mark.parametrize("shards", [1, 4])
    def test_buffers_own_their_keys(self, shards):
        """A caller reusing its array must not change keys that wait in
        the buffers (one shard used to buffer the caller's array)."""
        def engine():
            return StreamEngine(EngineConfig(
                "cm", window=2048, size=1024, num_shards=shards,
                flush_batch_size=10**6, flush_interval_s=None,
                sketch_kwargs={"seed": 7},
            ))

        eng, ref = engine(), engine()
        a = np.arange(100, dtype=np.uint64)
        eng.ingest(a)
        ref.ingest(np.arange(100, dtype=np.uint64))
        a[:] = 999
        probes = np.asarray([0, 1, 999], dtype=np.uint64)
        got = eng.frequency_many(probes)
        assert got[0] >= 1 and got[2] == 0
        assert np.array_equal(got, ref.frequency_many(probes))

    def test_engine_matches_hand_built_shards(self, stream):
        """The whole ingest path (buffering, times, flush) reproduces a
        hand-built reference partition driven through TimedStream."""
        cfg = EngineConfig(
            "bf", window=1024, size=4096, num_shards=3,
            flush_batch_size=100, flush_interval_s=None,
            sketch_kwargs={"seed": 9},
        )
        eng = StreamEngine(cfg)
        # several ingest calls to exercise multiple flush rounds
        for lo in range(0, stream.size, 1234):
            eng.ingest(stream[lo : lo + 1234])

        times = np.arange(stream.size, dtype=np.int64)
        parts = partition(stream, times, 3, cfg.shard_seed)
        hand = []
        for keys, tms in parts:
            s = SheBloomFilter(1024, 4096, seed=9)
            TimedStream(s).insert_many(keys, tms)
            s.t = stream.size
            hand.append(s)
        ref = merge_many(hand, t=stream.size, require_aligned=True)
        merged = eng.merged()
        assert np.array_equal(merged.frame.cells, ref.frame.cells)


class TestIngestOne:
    """One-key arrivals: ``insert(key)`` is ``ingest([key])``."""

    def test_ingest_one_two_stream_sides(self):
        eng = make_engine("mh", 1024, 64, 2, seed=5)
        for k in range(500):
            eng.ingest([k], side=k % 2)
        eng.flush()
        assert eng.now(0) == 250 and eng.now(1) == 250
        with pytest.raises(ValueError, match="side"):
            eng.ingest([3])

    def test_ingest_one_rejects_non_integers(self):
        eng = make_engine("cm", 2048, 1024, 2, seed=7)
        with pytest.raises(TypeError, match="integers"):
            eng.insert("seven")

    def test_insert_alias_matches_batched_ingest(self, stream):
        via_insert = make_engine("cm", 2048, 1024, 4, seed=7)
        via_batch = make_engine("cm", 2048, 1024, 4, seed=7)
        for k in stream[:2000]:
            via_insert.insert(int(k))
        via_batch.ingest(stream[:2000])
        via_insert.flush()
        via_batch.flush()
        probes = np.unique(stream[:2000])[:100]
        assert np.array_equal(
            via_insert.frequency_many(probes),
            via_batch.frequency_many(probes),
        )
        assert via_insert.stats_snapshot(tick=False)["items_ingested"] == 2000
        assert via_insert.now() == via_batch.now() == 2000


class TestEmptyBatches:
    """A size-0 batch is a no-op on every entry point, whatever the
    dtype a bare ``[]`` brings (``np.asarray([])`` is float64)."""

    def test_empty_ingest_and_point_queries(self, stream):
        eng = make_engine("bf", 2048, 1 << 12, 4, seed=3)
        eng.ingest(stream[:1000])
        eng.ingest([])
        eng.flush()
        assert eng.now() == 1000
        assert eng.stats_snapshot(tick=False)["items_ingested"] == 1000
        got = eng.contains_many([])
        assert got.dtype == bool and got.shape == (0,)
        cm = make_engine("cm", 2048, 1024, 2, seed=7)
        cm.ingest([])
        assert cm.now() == 0
        est = cm.frequency_many([])
        assert est.shape == (0,)

    @pytest.mark.parametrize("kind", ["bf", "cm"])
    def test_empty_sketch_calls(self, kind):
        sk = SheBloomFilter(256, 1024) if kind == "bf" else SheCountMin(256, 1024)
        sk.insert_many([])
        assert sk.now() == 0
        query = sk.contains_many if kind == "bf" else sk.frequency_many
        assert query([]).shape == (0,)


class TestTwoStream:
    def test_mh_similarity_matches_unsharded(self):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 300, size=5000, dtype=np.uint64)
        b = np.where(rng.random(5000) < 0.5, a, rng.integers(300, 600, size=5000, dtype=np.uint64))
        eng = make_engine("mh", 2048, 128, 2, seed=5)
        eng.ingest(a, side=0)
        eng.ingest(b, side=1)
        whole = SheMinHash(2048, 128, seed=5)
        whole.insert_many(0, a)
        whole.insert_many(1, b)
        assert eng.similarity() == pytest.approx(whole.similarity(), abs=0.1)

    def test_side_required_and_rejected(self):
        mh = make_engine("mh", 256, 64, 2, seed=5)
        with pytest.raises(ValueError, match="side"):
            mh.ingest(np.arange(4, dtype=np.uint64))
        bf = make_engine("bf", 256, 512, 2, seed=1)
        with pytest.raises(ValueError, match="side"):
            bf.ingest(np.arange(4, dtype=np.uint64), side=1)


class TestBufferingAndTriggers:
    def test_size_trigger_flushes_only_full_queues(self):
        cfg = EngineConfig(
            "cm", window=1024, size=512, num_shards=2,
            flush_batch_size=50, flush_interval_s=None,
            sketch_kwargs={"seed": 7},
        )
        eng = StreamEngine(cfg)
        # keys all landing on one shard: find them via the partitioner
        keys = np.arange(4000, dtype=np.uint64)
        sids = shard_ids(keys, 2, cfg.shard_seed)
        one_shard = keys[sids == 0][:60]
        eng.ingest(one_shard)
        # the triggered round stays in flight, counted as buffered,
        # until the next call that reaches the executor settles it
        assert eng.queue_depths() == [60, 0]
        eng.tick()
        assert eng.stats.items_flushed == 60
        assert eng.queue_depths() == [0, 0]

    def test_below_threshold_buffers(self):
        eng = make_engine("cm", 1024, 512, 2, seed=7)
        eng.ingest(np.arange(100, dtype=np.uint64))
        assert eng.stats.items_flushed == 0
        assert sum(eng.queue_depths()) == 100
        assert eng.stats_snapshot()["items_buffered"] == 100

    def test_time_trigger(self):
        fake = [0.0]
        cfg = EngineConfig(
            "cm", window=1024, size=512, num_shards=2,
            flush_batch_size=10**9, flush_interval_s=5.0,
            sketch_kwargs={"seed": 7},
        )
        eng = StreamEngine(cfg, clock=lambda: fake[0])
        eng.ingest(np.arange(100, dtype=np.uint64))
        assert eng.stats.items_flushed == 0
        fake[0] = 6.0
        eng.ingest(np.arange(5, dtype=np.uint64))
        eng.tick()  # settles the round the interval trigger sent
        assert eng.stats.items_flushed == 105

    def test_queries_see_buffered_items(self):
        eng = make_engine("cm", 1024, 512, 2, seed=7)
        eng.ingest(np.full(10, 42, dtype=np.uint64))
        assert eng.frequency(42) >= 10

    def test_closed_engine_rejects_work(self):
        eng = make_engine("cm", 256, 512, 2, seed=7)
        eng.close()
        with pytest.raises(RuntimeError, match="closed"):
            eng.ingest(np.arange(3, dtype=np.uint64))


class TestFanInRejections:
    """merge_sketches rejection paths exercised through engine queries."""

    def test_drifted_clock_rejected(self, stream):
        eng = make_engine("bm", 1024, 2048, 3, seed=2)
        eng.ingest(stream[:4000])
        eng.flush()
        # a shard that silently fell behind the union clock must not be
        # merged: poke one shard's clock backwards behind the others
        eng._exec._shards[1].t -= 7
        with pytest.raises(ValueError, match="drifted"):
            merge_many(eng._exec._shards, require_aligned=True)
        # the query fan-in advances shards to the global clock first,
        # healing a *behind* shard; a shard AHEAD of the union clock
        # cannot be healed and is rejected end to end
        eng._exec._shards[1].t = eng.now() + 99
        with pytest.raises(ValueError, match="drifted|rewind"):
            eng.cardinality()

    def test_mismatched_seed_rejected_through_fan_in(self, stream):
        eng = make_engine("bm", 1024, 2048, 2, seed=2)
        eng.ingest(stream[:3000])
        eng._exec._shards[1] = SheBitmap(1024, 2048, seed=99)
        eng._exec._shards[1].advance_to(eng.now())
        with pytest.raises(ValueError, match="seeds must all match"):
            eng.cardinality()

    def test_mismatched_window_rejected_through_fan_in(self, stream):
        eng = make_engine("bf", 1024, 4096, 2, seed=1)
        eng.ingest(stream[:3000])
        eng._exec._shards[1] = SheBloomFilter(2048, 4096, seed=1)
        eng._exec._shards[1].advance_to(eng.now())
        with pytest.raises(ValueError, match="must all match"):
            eng.merged()

    def test_mismatched_alpha_rejected_through_fan_in(self, stream):
        eng = make_engine("bm", 1024, 2048, 2, seed=2)
        eng.ingest(stream[:3000])
        eng._exec._shards[1] = SheBitmap(1024, 2048, seed=2, alpha=0.4)
        eng._exec._shards[1].advance_to(eng.now())
        with pytest.raises(ValueError, match="must all match"):
            eng.cardinality()

    def test_wrong_kind_query_rejected(self):
        eng = make_engine("bf", 256, 512, 2, seed=1)
        with pytest.raises(TypeError, match="frequency"):
            eng.frequency(1)
        with pytest.raises(TypeError, match="cardinality"):
            eng.cardinality()


class TestEngineConfigJson:
    """to_json/from_json round-trips: the checkpoint manifest contract."""

    def test_round_trip_defaults(self):
        cfg = EngineConfig("bf", window=1024, size=2048)
        assert EngineConfig.from_json(cfg.to_json()) == cfg

    def test_round_trip_with_sketch_kwargs(self):
        import json

        cfg = EngineConfig(
            "cm",
            window=4096,
            size=1 << 13,
            num_shards=6,
            flush_batch_size=512,
            flush_interval_s=None,
            rpc_timeout_s=2.5,
            sketch_kwargs={"seed": 7, "alpha": 3.0, "frame": "software"},
        )
        # through actual JSON text, as the checkpoint manifest does
        back = EngineConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert back == cfg
        assert back.sketch_kwargs == {"seed": 7, "alpha": 3.0, "frame": "software"}

    def test_unknown_keys_rejected_by_name(self):
        data = EngineConfig("bm", window=256, size=512).to_json()
        data["shard_count"] = 4  # typo'd / future-version key
        with pytest.raises(ValueError, match="shard_count"):
            EngineConfig.from_json(data)

    @pytest.mark.parametrize("value", ["pickle", "shm", "anything"])
    def test_retired_transport_key_is_dropped(self, value):
        """Older manifests carry the removed flush-transport field."""
        cfg = EngineConfig("bm", window=256, size=512)
        data = dict(cfg.to_json(), transport=value)
        assert EngineConfig.from_json(data) == cfg
        data["shard_count"] = 4  # other unknown keys still fail by name
        with pytest.raises(ValueError, match="shard_count"):
            EngineConfig.from_json(data)

    def test_unknown_key_error_lists_known_keys(self):
        data = EngineConfig("bm", window=256, size=512).to_json()
        data["nope"] = 1
        with pytest.raises(ValueError, match="known keys") as exc:
            EngineConfig.from_json(data)
        assert "num_shards" in str(exc.value)

    def test_unregistered_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            EngineConfig.from_json(
                {"kind": "not-a-kind", "window": 256, "size": 512}
            )


class TestApplications:
    def test_heavy_hitters_over_engine(self):
        """HeavyHitters drives a sharded engine as its CM backend."""
        from repro.applications import HeavyHitters

        rng = np.random.default_rng(17)
        window = 2048
        hot = np.full(600, 7, dtype=np.uint64)
        noise = rng.integers(100, 4000, size=3000, dtype=np.uint64)
        stream = rng.permutation(np.concatenate([hot, noise]))
        eng = make_engine("cm", window, 4096, 4, seed=7)
        hh = HeavyHitters(window, threshold=200.0, sketch=eng)
        hh.insert_many(stream[-window:])
        top = hh.heavy_hitters()
        assert top and top[0][0] == 7
        assert hh.is_heavy(7)
        assert hh.memory_bytes > 0


class TestStats:
    def test_counters_and_percentiles(self):
        fake = [0.0]
        cfg = EngineConfig(
            "cm", window=1024, size=512, num_shards=2,
            flush_batch_size=64, flush_interval_s=None,
            sketch_kwargs={"seed": 7},
        )
        eng = StreamEngine(cfg, clock=lambda: fake[0])
        for _ in range(5):
            eng.ingest(np.arange(200, dtype=np.uint64))
        eng.frequency(3)
        snap = eng.stats_snapshot()
        assert snap["items_ingested"] == 1000
        assert snap["items_flushed"] == 1000
        assert snap["flush_count"] >= 5
        assert snap["query_count"] == 1
        assert "flush_p99_ms" in snap
        report = eng.stats_report()
        assert "items_ingested" in report and "1000" in report
