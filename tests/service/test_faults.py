"""Deterministic fault injection: ChaosExecutor semantics.

Chaos here is *scripted*, not random: faults fire at exact operation
indices, and since the op sequence is a pure function of the ingested
stream, every failure reproduces under ``pytest -x`` with no seeds or
sleeps.  These tests pin the injector itself — kills, stalls, dropped
acks, corrupted checkpoint files — so the recovery tests in
``test_supervisor.py`` can trust their fault source.
"""

import time

import numpy as np
import pytest

from repro.core import SheBloomFilter, SheCountMin
from repro.service import (
    ChaosExecutor,
    EngineConfig,
    ProcessExecutor,
    SerialExecutor,
    ShardDeadError,
    ShardTimeoutError,
    StreamEngine,
    recover_engine,
    save_checkpoint,
)


def make_shards(n=2):
    return [SheCountMin(256, 512, seed=7) for _ in range(n)]


def keys_times(n, t0=0):
    return (
        np.arange(n, dtype=np.uint64),
        np.arange(t0, t0 + n, dtype=np.int64),
    )


class TestKillInjection:
    def test_kill_fires_exactly_once_at_op_index(self):
        ex = ChaosExecutor(SerialExecutor(make_shards()),
                           kill_worker_after_ops=3, kill_worker_id=0)
        keys, times = keys_times(8)
        try:
            later = np.arange(8, 16, dtype=np.int64)
            ex.flush_many([(0, keys, times, None)])  # op 1
            ex.flush_many([(1, keys, times, None)])  # op 2
            with pytest.raises(ShardDeadError):
                ex.flush_many([(0, keys, later, None)])  # op 3: kill
            assert ex.kills == [(3, 0)]
            with pytest.raises(ShardDeadError):
                ex.snapshot(0)            # stays dead until restarted
        finally:
            ex.close()

    def test_kill_defaults_to_the_op_target_worker(self):
        ex = ChaosExecutor(SerialExecutor(make_shards()), kill_worker_after_ops=1)
        keys, times = keys_times(4)
        try:
            with pytest.raises(ShardDeadError):
                ex.flush_many([(1, keys, times, None)])
            assert ex.kills == [(1, 0)]   # serial: everything is worker 0
        finally:
            ex.close()

    def test_restart_revives_a_killed_serial_worker(self):
        ex = ChaosExecutor(SerialExecutor(make_shards()),
                           kill_worker_after_ops=1, kill_worker_id=0)
        keys, times = keys_times(4)
        try:
            with pytest.raises(ShardDeadError):
                ex.flush_many([(0, keys, times, None)])
            ex.restart_worker(0, dict(enumerate(make_shards())))
            ex.flush_many([(0, keys, times, None)])
            assert ex.snapshot(0).frequency(1, 3) >= 1
        finally:
            ex.close()

    def test_kill_is_a_real_sigkill_for_process_workers(self):
        ex = ChaosExecutor(ProcessExecutor(make_shards(), num_workers=2,
                                           timeout_s=10.0),
                           kill_worker_after_ops=1, kill_worker_id=1)
        keys, times = keys_times(4)
        try:
            with pytest.raises(ShardDeadError):
                ex.flush_many([(1, keys, times, None)])
            assert not ex.is_worker_alive(1)
            assert ex.is_worker_alive(0)
            # the surviving worker is unaffected
            ex.flush_many([(0, keys, times, None)])
        finally:
            ex.close()


class TestDelayAndDropAck:
    def test_delay_must_exceed_the_rpc_deadline(self):
        inner = ProcessExecutor(make_shards(), timeout_s=5.0)
        try:
            with pytest.raises(ValueError, match="delay"):
                ChaosExecutor(inner, delay_ops={1: 1.0})
        finally:
            inner.close()

    def test_stall_trips_the_deadline_within_bounded_wall_time(self):
        ex = ChaosExecutor(ProcessExecutor(make_shards(), num_workers=1,
                                           timeout_s=0.3),
                           delay_ops={1: 2.0})
        keys, times = keys_times(4)
        try:
            t0 = time.monotonic()
            with pytest.raises(ShardTimeoutError) as exc_info:
                ex.flush_many([(0, keys, times, None)])
            elapsed = time.monotonic() - t0
            assert elapsed < 1.5, f"deadline not enforced: {elapsed:.2f}s"
            assert exc_info.value.timeout_s == pytest.approx(0.3)
        finally:
            ex.close()

    def test_missed_deadline_poisons_the_worker(self):
        ex = ChaosExecutor(ProcessExecutor(make_shards(), num_workers=1,
                                           timeout_s=0.3),
                           delay_ops={1: 2.0})
        keys, times = keys_times(4)
        try:
            with pytest.raises(ShardTimeoutError):
                ex.flush_many([(0, keys, times, None)])
            # the stale ack may still be in the pipe: nothing this worker
            # says can be trusted until it is restarted
            with pytest.raises(ShardDeadError, match="untrusted"):
                ex.snapshot(0)
        finally:
            ex.close()

    def test_drop_ack_raises_timeout_but_the_op_applied(self):
        ex = ChaosExecutor(ProcessExecutor(make_shards(), num_workers=2,
                                           timeout_s=10.0),
                           drop_ack_ops=(1,))
        keys, times = keys_times(4)
        try:
            with pytest.raises(ShardTimeoutError):
                # applied server-side, ack dropped
                ex.flush_many([(0, keys, times, None)])
            with pytest.raises(ShardDeadError):
                ex.snapshot(0)            # worker 0 poisoned
            ex.restart_worker(0, {0: make_shards()[0]})
            # rebuilt from scratch: one insert
            ex.flush_many([(0, keys, times, None)])
            assert ex.snapshot(0).frequency(1, 3) == 1
        finally:
            ex.close()


class TestCorruptCheckpoint:
    def test_corrupted_shard_file_falls_back_to_older_checkpoint(self, tmp_path):
        config = EngineConfig("cm", window=2048, size=1024, num_shards=2,
                              flush_batch_size=500, flush_interval_s=None,
                              sketch_kwargs={"seed": 7})
        stream = np.random.default_rng(3).integers(0, 300, size=4_000,
                                                   dtype=np.uint64)
        chaos = {}

        def factory(shards):
            chaos["x"] = ChaosExecutor(SerialExecutor(shards))
            return chaos["x"]

        eng = StreamEngine(config, executor=factory)
        eng.ingest(stream[:2000])
        good = save_checkpoint(eng, tmp_path)
        probes = np.unique(stream)[:100]
        at_good = eng.frequency_many(probes)

        eng.ingest(stream[2000:])
        # arm corruption for every op in the upcoming save: only the
        # checkpoint writes honour it, so both shard files get mangled
        chaos["x"]._corrupt_ops = set(range(chaos["x"].ops + 1,
                                            chaos["x"].ops + 50))
        bad = save_checkpoint(eng, tmp_path)
        assert bad != good
        assert b"chaos" in (bad / "shard-00.npz").read_bytes()
        eng.close()

        # recovery skips the newest (corrupt) checkpoint for the older one
        back = recover_engine(tmp_path)
        try:
            assert back.stats.recovered_from == str(good)
            assert np.array_equal(back.frequency_many(probes), at_good)
        finally:
            back.close()


class TestDeterminism:
    def test_same_script_same_stream_same_kill_point(self):
        stream = np.random.default_rng(9).integers(0, 400, size=6_000,
                                                   dtype=np.uint64)
        config = EngineConfig("bf", window=2048, size=4096, num_shards=4,
                              flush_batch_size=600, flush_interval_s=None,
                              sketch_kwargs={"seed": 1})

        def run_once():
            chaos = {}

            def factory(shards):
                chaos["x"] = ChaosExecutor(SerialExecutor(shards),
                                           kill_worker_after_ops=5)
                return chaos["x"]

            eng = StreamEngine(config, executor=factory)
            try:
                with pytest.raises(ShardDeadError) as exc_info:
                    for lo in range(0, stream.size, 1000):
                        eng.ingest(stream[lo:lo + 1000])
                    eng.flush()  # a failed triggered round raises here
                return chaos["x"].kills, exc_info.value.shard_ids
            finally:
                eng.close()

        assert run_once() == run_once()
