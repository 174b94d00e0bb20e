"""Multiprocessing executor: bit-equivalence with serial, lifecycle."""

import os
import signal

import numpy as np
import pytest

from repro.core import SheCountMin
from repro.service import (
    EngineConfig,
    ProcessExecutor,
    ShardDeadError,
    ShardFailedError,
    ShardTimeoutError,
    StreamEngine,
    recover_engine,
    save_checkpoint,
)


@pytest.fixture
def stream():
    return np.random.default_rng(11).integers(0, 600, size=15_000, dtype=np.uint64)


def cfg(kind="cm", **kw):
    base = dict(
        window=2048, size=1024, num_shards=4,
        flush_batch_size=900, flush_interval_s=None,
        sketch_kwargs={"seed": 7},
    )
    base.update(kw)
    return EngineConfig(kind, **base)


class TestProcessEquivalence:
    def test_frequency_identical_to_serial(self, stream):
        with StreamEngine(cfg(), executor="process", num_workers=2) as proc:
            serial = StreamEngine(cfg())
            for lo in range(0, stream.size, 4096):
                chunk = stream[lo : lo + 4096]
                proc.ingest(chunk)
                serial.ingest(chunk)
            probes = np.unique(stream)[:200]
            assert np.array_equal(
                proc.frequency_many(probes), serial.frequency_many(probes)
            )

    def test_merged_membership_identical_to_serial(self, stream):
        with StreamEngine(cfg("bf", size=8192, sketch_kwargs={"seed": 1}),
                          executor="process") as proc:
            serial = StreamEngine(cfg("bf", size=8192, sketch_kwargs={"seed": 1}))
            proc.ingest(stream)
            serial.ingest(stream)
            assert np.array_equal(
                proc.merged().frame.cells, serial.merged().frame.cells
            )

    def test_two_stream_similarity_identical_to_serial(self):
        left = np.random.default_rng(9).integers(0, 300, 6000, dtype=np.uint64)
        right = np.random.default_rng(10).integers(0, 300, 6000, dtype=np.uint64)
        conf = cfg("mh", window=1024, size=64, num_shards=2,
                   flush_batch_size=500, sketch_kwargs={"seed": 5})
        with StreamEngine(conf, executor="process") as proc:
            serial = StreamEngine(conf)
            for eng in (serial, proc):
                for lo in range(0, 6000, 1500):
                    eng.ingest(left[lo:lo + 1500], side=0)
                    eng.ingest(right[lo:lo + 1500], side=1)
                eng.flush()
            assert proc.similarity() == serial.similarity()

    def test_checkpoint_and_recover_through_workers(self, tmp_path, stream):
        with StreamEngine(cfg(), executor="process", num_workers=3) as proc:
            proc.ingest(stream)
            probes = np.unique(stream)[:100]
            before = proc.frequency_many(probes)
            save_checkpoint(proc, tmp_path)
        back = recover_engine(tmp_path, executor="process", num_workers=2)
        try:
            assert np.array_equal(back.frequency_many(probes), before)
        finally:
            back.close()


class TestLifecycle:
    def test_worker_error_propagates(self):
        shards = [SheCountMin(256, 512, seed=7) for _ in range(2)]
        ex = ProcessExecutor(shards, num_workers=2)
        try:
            keys = np.arange(10, dtype=np.uint64)
            times = np.arange(10, dtype=np.int64)
            ex.flush_many([(0, keys, times, None)])
            with pytest.raises(RuntimeError, match="shard worker failed"):
                # rewinding times is invalid -> the worker reports it
                ex.flush_many([(0, keys, times, None)])
        finally:
            ex.close()

    def test_close_is_idempotent(self):
        ex = ProcessExecutor([SheCountMin(256, 512, seed=7)])
        ex.close()
        ex.close()

    def test_workers_capped_by_shards(self):
        ex = ProcessExecutor([SheCountMin(256, 512, seed=7)], num_workers=8)
        try:
            assert ex.num_workers == 1
        finally:
            ex.close()

    def test_worker_error_is_typed_and_attributed(self):
        ex = ProcessExecutor([SheCountMin(256, 512, seed=7) for _ in range(2)],
                             num_workers=2)
        try:
            keys = np.arange(10, dtype=np.uint64)
            times = np.arange(10, dtype=np.int64)
            ex.flush_many([(1, keys, times, None)])
            with pytest.raises(ShardFailedError) as exc_info:
                ex.flush_many([(1, keys, times, None)])
            assert exc_info.value.shard_ids == (1,)
            assert exc_info.value.worker_id == 1
            # a data error left the worker alive and trustworthy
            assert ex.ping(1)
        finally:
            ex.close()


class TestFailureSurface:
    def make(self, num_workers=2, **kw):
        shards = [SheCountMin(256, 512, seed=7) for _ in range(4)]
        return ProcessExecutor(shards, num_workers=num_workers, **kw)

    def test_topology_helpers(self):
        ex = self.make(num_workers=2)
        try:
            assert ex.worker_of(0) == 0 and ex.worker_of(3) == 1
            assert ex.shards_of(0) == [0, 2] and ex.shards_of(1) == [1, 3]
            assert all(ex.is_worker_alive(w) for w in range(2))
        finally:
            ex.close()

    def test_dead_worker_raises_shard_dead_error(self):
        ex = self.make(num_workers=2)
        try:
            proc = ex._procs[1]
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=5)
            assert not ex.is_worker_alive(1)
            keys = np.arange(4, dtype=np.uint64)
            times = np.arange(4, dtype=np.int64)
            with pytest.raises(ShardDeadError) as exc_info:
                ex.flush_many([(1, keys, times, None)])
            assert 1 in exc_info.value.worker_ids
            ex.flush_many([(0, keys, times, None)])  # others fine
        finally:
            ex.close()

    def test_flush_many_names_a_dead_workers_batches_unapplied(self):
        """Every batch bound for a SIGKILLed worker counts as unapplied,
        and the surviving worker's batches still apply."""
        ex = self.make(num_workers=2)
        try:
            proc = ex._procs[0]
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=5)
            keys = np.arange(8, dtype=np.uint64)
            times = np.arange(8, dtype=np.int64)
            with pytest.raises(ShardDeadError) as exc_info:
                ex.flush_many([(s, keys, times, None) for s in range(4)])
            assert exc_info.value.shard_ids == (0, 2)
            assert exc_info.value.worker_ids == (0,)
            for s in (1, 3):
                assert ex.snapshot(s).frequency(1, 7) == 1
        finally:
            ex.close()

    def test_flush_many_names_a_stalled_workers_batches_unapplied(self):
        """A missed deadline poisons the worker: all its batches in the
        round count as unapplied, whatever it did with them later."""
        ex = self.make(num_workers=2, timeout_s=1.0)
        try:
            ex._send(1, ("sleep", 2.5))  # wedge worker 1 past the deadline
            keys = np.arange(8, dtype=np.uint64)
            times = np.arange(8, dtype=np.int64)
            with pytest.raises(ShardTimeoutError) as exc_info:
                ex.flush_many([(s, keys, times, None) for s in range(4)])
            assert exc_info.value.shard_ids == (1, 3)
            assert exc_info.value.worker_ids == (1,)
            assert exc_info.value.timeout_s == 1.0
            for s in (0, 2):
                assert ex.snapshot(s).frequency(1, 7) == 1
            with pytest.raises(ShardDeadError, match="untrusted"):
                ex.snapshot(1)
        finally:
            ex.close()

    def test_close_reaps_workers_even_after_sigkill(self):
        ex = self.make(num_workers=2)
        procs = [p for p in ex._procs]
        os.kill(procs[0].pid, signal.SIGKILL)
        procs[0].join(timeout=5)
        ex.close()  # must not hang or leak the dead worker
        assert ex._procs == [None, None]
        for p in procs:
            # a reaped Process raises on further use: the handle was closed
            with pytest.raises(ValueError):
                p.is_alive()

    def test_restart_worker_validates_the_shard_set(self):
        ex = self.make(num_workers=2)
        try:
            with pytest.raises(ValueError, match="owns shards"):
                ex.restart_worker(0, {0: SheCountMin(256, 512, seed=7)})
        finally:
            ex.close()

    def test_restart_worker_installs_fresh_state(self):
        ex = self.make(num_workers=2)
        try:
            keys = np.arange(8, dtype=np.uint64)
            times = np.arange(8, dtype=np.int64)
            ex.flush_many([(0, keys, times, None)])
            ex.restart_worker(
                0, {s: SheCountMin(256, 512, seed=7) for s in (0, 2)}
            )
            assert ex.snapshot(0).frequency(1, 7) == 0  # state was replaced
            ex.flush_many([(0, keys, times, None)])
            assert ex.snapshot(0).frequency(1, 7) == 1
        finally:
            ex.close()
