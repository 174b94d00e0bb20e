"""Supervised recovery: restart-from-checkpoint + replay, degradation.

The acceptance bar for the fault-tolerance layer (ISSUE): a worker
SIGKILLed mid-stream under supervision recovers so completely that
strict queries are *bit-identical* to a run that never failed; with
recovery disabled the engine degrades honestly (``strict=False``
answers carry shard coverage, strict calls raise typed errors) and no
executor call blocks past its configured deadline.  All chaos is
scheduled by deterministic op index — no sleeps, no retries, no flaky
reruns.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.registry import get_descriptor
from repro.service import (
    ChaosExecutor,
    DegradedAnswer,
    EngineConfig,
    MemoryLog,
    ProcessExecutor,
    RetryPolicy,
    SerialExecutor,
    ShardError,
    ShardUnrecoverableError,
    StreamEngine,
    Supervisor,
    save_checkpoint,
    shard_ids,
)
from repro.service.engine import _ShardBuffer


@pytest.fixture
def stream():
    return np.random.default_rng(5).integers(0, 500, size=8_000, dtype=np.uint64)


def cfg(kind="cm", **kw):
    base = dict(
        window=2048, size=1024, num_shards=4,
        flush_batch_size=700, flush_interval_s=None,
        rpc_timeout_s=5.0, sketch_kwargs={"seed": 7},
    )
    base.update(kw)
    return EngineConfig(kind, **base)


def reference_run(config, stream):
    ref = StreamEngine(config)
    ref.ingest(stream)
    return ref


def chunked_ingest(engine, stream, chunk=1500):
    for lo in range(0, stream.size, chunk):
        engine.ingest(stream[lo:lo + chunk])


class TestRetryPolicy:
    def test_backoff_grows_then_caps(self):
        p = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.5)
        assert [p.backoff_s(a) for a in range(4)] == [0.1, 0.2, 0.4, 0.5]


class TestMemoryLog:
    def test_records_in_order_and_owns_its_keys(self):
        log = MemoryLog(limit_items=100)
        keys = np.arange(7, dtype=np.uint64)
        log.append(0, np.arange(5, dtype=np.uint64))
        log.append(1, keys)
        log.append(0, np.arange(3, dtype=np.uint64))
        keys[:] = 99  # the caller reuses its array
        assert log.items == 15 and len(log) == 3
        records = list(log.records())
        assert [side for side, _ in records] == [0, 1, 0]
        assert [k.size for _, k in records] == [5, 7, 3]
        assert np.array_equal(records[1][1], np.arange(7))
        assert [k.size for _, k in log.records(2)] == [3]

    def test_overflow_drops_the_log_until_reset(self):
        log = MemoryLog(limit_items=10)
        log.append(0, np.arange(11, dtype=np.uint64))
        assert log.overflowed and len(log) == 0 and log.items == 0
        log.append(0, np.arange(1, dtype=np.uint64))  # ignored: unrecoverable
        assert len(log) == 0
        log.reset()
        assert not log.overflowed
        log.append(0, np.arange(1, dtype=np.uint64))
        assert len(log) == 1


class TestSupervisedRecovery:
    """A killed worker comes back bit-identical to one that never died."""

    def test_serial_kill_restart_replay_is_bit_identical(self, tmp_path, stream):
        config = cfg("cm")
        chaos = {}

        def factory(shards):
            chaos["x"] = ChaosExecutor(SerialExecutor(shards),
                                       kill_worker_after_ops=15)
            return chaos["x"]

        eng = StreamEngine(config, executor=factory)
        sup = Supervisor(eng, tmp_path, policy=RetryPolicy(backoff_base_s=0.0))
        try:
            chunked_ingest(eng, stream)      # kill + recovery happen inline
            assert chaos["x"].kills, "chaos never fired"
            assert eng.stats.worker_restarts >= 1
            assert eng.stats.items_replayed > 0
            assert eng.down_shards == ()
            ref = reference_run(config, stream)
            probes = np.unique(stream)[:200]
            assert np.array_equal(eng.frequency_many(probes),
                                  ref.frequency_many(probes))
        finally:
            eng.close()

    @pytest.mark.parametrize("kind", ["bf", "bm"])
    def test_sigkill_process_worker_state_bit_identical(self, tmp_path,
                                                        stream, kind):
        config = cfg(kind, size=4096, sketch_kwargs={"seed": 1})
        chaos = {}

        def factory(shards):
            chaos["x"] = ChaosExecutor(
                ProcessExecutor(shards, num_workers=2, timeout_s=5.0),
                kill_worker_after_ops=15)
            return chaos["x"]

        eng = StreamEngine(config, executor=factory)
        sup = Supervisor(eng, tmp_path, policy=RetryPolicy(backoff_base_s=0.0))
        try:
            chunked_ingest(eng, stream)
            assert chaos["x"].kills, "chaos never fired"
            assert eng.stats.worker_restarts >= 1
            ref = reference_run(config, stream)
            assert np.array_equal(eng.merged().frame.cells,
                                  ref.merged().frame.cells)
        finally:
            eng.close()

    def test_checkpoint_trims_replay_and_refills_breaker(self, tmp_path, stream):
        eng = StreamEngine(cfg("cm"))
        sup = Supervisor(eng, tmp_path)
        try:
            eng.ingest(stream[:4000])
            assert len(sup.log) > 0
            sup._restarts[0] = 2
            save_checkpoint(eng, tmp_path)
            assert len(sup.log) == 0 and sup.log.items == 0
            assert sup.restarts(0) == 0
            assert sup.snapshot()["base_checkpoint"].startswith(str(tmp_path))
        finally:
            eng.close()

    def test_heartbeat_check_recovers_a_dead_worker(self, tmp_path, stream):
        chaos = {}

        def factory(shards):
            chaos["x"] = ChaosExecutor(
                ProcessExecutor(shards, num_workers=2, timeout_s=5.0))
            return chaos["x"]

        eng = StreamEngine(cfg("cm"), executor=factory)
        sup = Supervisor(eng, tmp_path, policy=RetryPolicy(backoff_base_s=0.0))
        try:
            eng.ingest(stream[:4000])
            chaos["x"]._kill(1)              # out-of-band death, no RPC in flight
            assert not eng._exec.is_worker_alive(1)
            result = sup.check()
            assert result == {0: True, 1: True}
            assert eng.stats.worker_deaths >= 1
            assert eng.stats.worker_restarts >= 1
        finally:
            eng.close()

    def test_replay_overflow_is_unrecoverable(self, tmp_path, stream):
        chaos = {}

        def factory(shards):
            chaos["x"] = ChaosExecutor(SerialExecutor(shards),
                                       kill_worker_after_ops=15)
            return chaos["x"]

        eng = StreamEngine(cfg("cm"), executor=factory)
        sup = Supervisor(eng, tmp_path, replay_limit_items=100,
                         policy=RetryPolicy(backoff_base_s=0.0))
        try:
            with pytest.raises(ShardError):
                chunked_ingest(eng, stream)  # log overflowed before the kill
            assert sup.log.overflowed
            assert eng.down_shards != ()
        finally:
            eng.close()


class TestDegradedQueries:
    """Recovery disabled: the engine keeps answering from survivors."""

    def run_to_degraded(self, tmp_path, stream, config):
        chaos = {}

        def factory(shards):
            chaos["x"] = ChaosExecutor(
                ProcessExecutor(shards, num_workers=2, timeout_s=5.0),
                kill_worker_after_ops=15)
            return chaos["x"]

        eng = StreamEngine(config, executor=factory)
        sup = Supervisor(eng, tmp_path, policy=RetryPolicy(max_restarts=0))
        failures = 0
        for lo in range(0, stream.size, 1500):
            chunk = stream[lo:lo + 1500]
            try:
                eng.ingest(chunk)            # items buffer before any flush,
            except ShardError:               # so a raised flush loses nothing
                failures += 1
        assert failures == 1 and eng.down_shards != ()
        return eng, sup, chaos["x"]

    def test_strict_raises_then_degraded_answers_with_coverage(
            self, tmp_path, stream):
        config = cfg("cm")
        eng, sup, chaos = self.run_to_degraded(tmp_path, stream, config)
        try:
            probes = np.unique(stream)[:50]
            with pytest.raises(ShardUnrecoverableError, match="down"):
                eng.frequency_many(probes)
            res = eng.frequency_many(probes, strict=False)
            assert isinstance(res, DegradedAnswer) and res.degraded
            assert res.shards_total == 4
            assert res.shards_answered == 4 - len(res.missing_shards)
            assert set(res.missing_shards) == set(eng.down_shards)
            assert "underestimated" in res.caveat
            assert res.value.shape == probes.shape
            single = eng.frequency(int(probes[0]), strict=False)
            assert single.coverage == res.shards_answered / 4
            assert eng.stats.degraded_queries == 2
            assert eng.stats_snapshot()["shards_down"] == list(eng.down_shards)
        finally:
            eng.close()

    def test_late_recovery_after_breaker_reset_is_bit_identical(
            self, tmp_path, stream):
        config = cfg("cm")
        eng, sup, chaos = self.run_to_degraded(tmp_path, stream, config)
        try:
            # operator intervention: refill the budget, bring shards back
            sup.policy = RetryPolicy(max_restarts=2, backoff_base_s=0.0)
            sup.reset_breaker()
            assert sup.recover_down()
            assert eng.down_shards == ()
            ref = reference_run(config, stream)
            probes = np.unique(stream)[:200]
            assert np.array_equal(eng.frequency_many(probes),
                                  ref.frequency_many(probes))
        finally:
            eng.close()

    def test_stalled_worker_degrades_within_the_deadline(self, tmp_path):
        """No executor call may block past its deadline (acceptance)."""
        config = cfg("cm", num_shards=2, rpc_timeout_s=0.3)
        chaos = {}

        def factory(shards):
            chaos["x"] = ChaosExecutor(
                ProcessExecutor(shards, num_workers=2, timeout_s=0.3))
            return chaos["x"]

        eng = StreamEngine(config, executor=factory)
        sup = Supervisor(eng, tmp_path, policy=RetryPolicy(max_restarts=0))
        try:
            eng.ingest(np.arange(500, dtype=np.uint64))
            eng.flush()
            # stall worker 0 on its next op (the query's read)
            chaos["x"]._delay_ops = {chaos["x"].ops + 1: 1.0}
            t0 = time.monotonic()
            res = eng.frequency_many(np.arange(10, dtype=np.uint64),
                                     strict=False)
            elapsed = time.monotonic() - t0
            assert elapsed < 1.0, f"query blocked {elapsed:.2f}s past deadline"
            assert res.degraded and len(res.missing_shards) == 1
            assert eng.stats.rpc_timeouts >= 1
        finally:
            eng.close()


def same_state(desc, a, b) -> bool:
    meta_a, arrays_a = desc.sketch_state(a)
    meta_b, arrays_b = desc.sketch_state(b)
    return (
        meta_a == meta_b
        and arrays_a.keys() == arrays_b.keys()
        and all(np.array_equal(arrays_a[k], arrays_b[k]) for k in arrays_a)
    )


class TestRecoveryUnderShedding:
    """Every shard down under ``shed_oldest``, then an operator brings
    them back: the rebuilt shards hold exactly the arrivals that were
    admitted and not evicted, whichever log the replay reads."""

    def run(self, root, stream, source, monkeypatch):
        # remember the union times of every evicted item: the oracle
        evicted = []
        real_shed = _ShardBuffer.shed_oldest

        def spy(buf, n):
            times = np.concatenate(buf.times)
            dropped = real_shed(buf, n)
            evicted.append(times[:dropped])
            return dropped

        monkeypatch.setattr(_ShardBuffer, "shed_oldest", spy)
        config = cfg(
            "cm", overload_policy="shed_oldest", down_retention_items=100,
            wal_dir=str(root / "wal") if source == "wal" else None,
        )
        eng = StreamEngine(config, executor=lambda shards: ChaosExecutor(
            SerialExecutor(shards), kill_worker_after_ops=15))
        # the WAL source ignores the in-memory bound
        sup = Supervisor(
            eng, root / "ckpt", policy=RetryPolicy(max_restarts=0),
            **({"replay_limit_items": 100} if source == "wal" else {}),
        )
        for lo in range(0, stream.size, 500):
            try:
                eng.ingest(stream[lo:lo + 500])
            except ShardError:
                pass  # the kill surfaces once; every shard goes down
        assert eng.down_shards == (0, 1, 2, 3)
        sup.policy = RetryPolicy(max_restarts=2, backoff_base_s=0.0)
        sup.reset_breaker()
        assert sup.recover_down()
        eng.flush()
        snap = eng.stats_snapshot(tick=False)
        shards = eng.snapshots()
        eng.close()
        return config, shards, snap, np.concatenate(evicted)

    @pytest.mark.parametrize("source", ["memory", "wal"])
    def test_rebuilt_shards_skip_evicted_items(
            self, tmp_path, stream, source, monkeypatch):
        config, shards, snap, evicted = self.run(
            tmp_path, stream, source, monkeypatch)
        assert snap["items_shed"] == evicted.size > 0
        assert snap["items_ingested"] == (
            snap["items_flushed"] + snap["items_buffered"]
            + snap["items_shed"] + snap["items_retained_down"]
        )
        # oracle: each shard built directly from its admitted substream
        # minus the evicted items, at the same clock
        desc = get_descriptor("cm")
        times = np.arange(stream.size, dtype=np.int64)
        live = ~np.isin(times, evicted)
        owner = shard_ids(stream, config.num_shards, config.shard_seed)
        for s, got in enumerate(shards):
            want = desc.build(config.window, config.size,
                              **config.sketch_kwargs)
            mine = live & (owner == s)
            want.insert_at(stream[mine], times[mine])
            want.advance_to(stream.size)
            assert same_state(desc, got, want), f"shard {s}"

    def test_memory_and_wal_sources_rebuild_identical_shards(
            self, tmp_path, stream, monkeypatch):
        _c, mem, _s, _e = self.run(tmp_path / "m", stream, "memory",
                                   monkeypatch)
        _c, wal, _s, _e = self.run(tmp_path / "w", stream, "wal",
                                   monkeypatch)
        desc = get_descriptor("cm")
        assert all(same_state(desc, a, b) for a, b in zip(mem, wal))


class TestUnreadableBase:
    @pytest.mark.parametrize("damage", ["garbage", "edited-clock"])
    def test_damaged_base_manifest_is_unrecoverable(
            self, tmp_path, stream, damage):
        eng = StreamEngine(cfg("cm"), executor=lambda shards: ChaosExecutor(
            SerialExecutor(shards), kill_worker_after_ops=15))
        sup = Supervisor(eng, tmp_path, policy=RetryPolicy(backoff_base_s=0.0))
        base = Path(sup.snapshot()["base_checkpoint"])
        manifest = base / "MANIFEST.json"
        if damage == "garbage":
            manifest.write_text("{not json")
        else:  # still parses: only the self-checksum can tell
            meta = json.loads(manifest.read_text())
            meta["clock"] = [meta["clock"][0] + 1]
            manifest.write_text(json.dumps(meta))
        try:
            with pytest.raises(ShardError):
                chunked_ingest(eng, stream)
            assert eng.down_shards == (0, 1, 2, 3)
            assert eng.stats.worker_restarts == 0
            reason = sup.snapshot()["last_error"]
            assert str(base) in reason and "unreadable" in reason
        finally:
            eng.close()


class TestRecoveryMidSync:
    """A worker killed on the read that aligns its shards before
    ``snapshots()`` ships them comes back with every shard at its
    replayed clock; the retried read must catch all of them up.  Chaos
    counts that read as one op per shard it advances (ops 21-24 here),
    so a kill at any of them fails the worker's whole read."""

    @pytest.mark.parametrize("kill_at", [22, 23, 24])
    def test_every_shard_reaches_the_engine_clock(
            self, tmp_path, stream, kill_at):
        config = cfg(
            "cm", overload_policy="shed_oldest", down_retention_items=100
        )
        eng = StreamEngine(config, executor=lambda shards: ChaosExecutor(
            SerialExecutor(shards), kill_worker_after_ops=kill_at))
        sup = Supervisor(
            eng, tmp_path,
            policy=RetryPolicy(max_restarts=2, backoff_base_s=0.0),
        )
        try:
            for lo in range(0, stream.size, 500):
                eng.ingest(stream[lo:lo + 500])
            eng.flush()
            shards = eng.snapshots()
            # the kill landed on the aligning read inside snapshots()
            assert eng._exec.kills and eng._exec.kills[0][0] == kill_at
            assert eng.stats.worker_restarts == 1
            assert eng.down_shards == ()
            assert [s.t for s in shards] == [stream.size] * config.num_shards
            assert sup.snapshot()["last_error"] is None
        finally:
            eng.close()


class TestRecoveryMidRead:
    """A worker killed while a strict read fans out over the synced
    shards is rebuilt by the supervisor, caught up to the clock, and
    the read retried once: the caller sees the full answer, not
    ``ShardDeadError``."""

    @pytest.mark.parametrize("kill_at", [25, 26, 27, 28])
    def test_snapshots_survive_a_kill_in_the_fan_out(
            self, tmp_path, stream, kill_at):
        config = cfg(
            "cm", overload_policy="shed_oldest", down_retention_items=100
        )
        eng = StreamEngine(config, executor=lambda shards: ChaosExecutor(
            SerialExecutor(shards), kill_worker_after_ops=kill_at))
        sup = Supervisor(
            eng, tmp_path,
            policy=RetryPolicy(max_restarts=2, backoff_base_s=0.0),
        )
        try:
            for lo in range(0, stream.size, 500):
                eng.ingest(stream[lo:lo + 500])
            eng.flush()
            ops_before = eng._exec.ops
            shards = eng.snapshots()
            # the kill landed on a snapshot op, after the aligning read
            assert eng._exec.kills and eng._exec.kills[0][0] == kill_at
            assert kill_at > ops_before + config.num_shards
            assert eng.stats.worker_restarts == 1
            assert eng.down_shards == ()
            assert [s.t for s in shards] == [stream.size] * config.num_shards
            assert sup.snapshot()["last_error"] is None
        finally:
            eng.close()

    @pytest.mark.parametrize("kind,query", [
        ("hll", lambda e: e.cardinality()),  # merged() fan-in
        ("cm", lambda e: e.frequency_many(np.arange(50, dtype=np.uint64))),
    ], ids=["merged", "summed"])
    def test_strict_queries_survive_a_worker_lost_mid_read(
            self, tmp_path, stream, monkeypatch, kind, query):
        config = cfg(kind)
        eng = StreamEngine(config, executor=lambda shards: ChaosExecutor(
            SerialExecutor(shards)))
        chaos = eng._exec
        Supervisor(
            eng, tmp_path,
            policy=RetryPolicy(max_restarts=2, backoff_base_s=0.0),
        )
        real_read = chaos.read

        def dying_read(*args):
            # a query's read is an RPC to the worker: it can die under it
            if not chaos.kills:
                chaos._kill(0)
            return real_read(*args)

        monkeypatch.setattr(chaos, "read", dying_read)
        try:
            chunked_ingest(eng, stream)
            got = query(eng)
            assert chaos.kills and eng.stats.worker_restarts == 1
            assert eng.down_shards == ()
            np.testing.assert_array_equal(
                got, query(reference_run(config, stream)))
        finally:
            eng.close()
