"""Shared-memory flush transport: ring lifecycle + bit-equivalence.

The shm data plane must be invisible to correctness: every executor ×
transport combination produces bit-identical shard state, oversized or
ring-exhausted batches fall back to pickle transparently, the ring's
segment stays within its size cap however large the flush batches, a
ring that cannot be created leaves the executor on pickle, a SIGKILLed
worker never leaks ring slots or segments, and closing an engine leaves
``/dev/shm`` exactly as it found it (no resource-tracker leak warnings).
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core import SheCountMin
from repro.core.registry import descriptor_of
from repro.service import (
    ChaosExecutor,
    EngineConfig,
    ProcessExecutor,
    SerialExecutor,
    ShardDeadError,
    ShardError,
    StreamEngine,
)
from repro.service import executor as executor_mod
from repro.service.executor import MAX_RING_BYTES
from repro.service.shm import ITEM_BYTES, SlotRing


def _shm_segments() -> set[str]:
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


@pytest.fixture
def stream():
    return np.random.default_rng(23).integers(
        0, 900, size=20_000, dtype=np.uint64
    )


def cfg(transport, **kw):
    base = dict(
        window=2048, size=1024, num_shards=4,
        flush_batch_size=900, flush_interval_s=None,
        transport=transport, sketch_kwargs={"seed": 7},
    )
    base.update(kw)
    return EngineConfig("cm", **base)


def _shard_states(engine):
    """Canonical per-shard state arrays, for bit-level comparison."""
    out = []
    for sketch in engine.snapshots():
        desc = descriptor_of(sketch)
        _meta, arrays = desc.to_state(desc, sketch)
        out.append(arrays)
    return out


class TestSlotRing:
    def test_acquire_release_exhaustion(self):
        with SlotRing(16, 3) as ring:
            slots = [ring.acquire() for _ in range(3)]
            assert sorted(slots) == [0, 1, 2]
            assert ring.in_use() == 3
            assert ring.acquire() is None  # exhausted, no blocking
            ring.release(slots[1])
            assert ring.in_use() == 2
            assert ring.acquire() == slots[1]

    def test_write_and_views_round_trip(self):
        with SlotRing(8, 2) as ring:
            keys = np.arange(5, dtype=np.uint64) * 3
            times = np.arange(5, dtype=np.int64) + 100
            slot = ring.acquire()
            n = ring.write(slot, keys, times)
            assert n == 5
            assert np.array_equal(ring.keys_view(slot, n), keys)
            assert np.array_equal(ring.times_view(slot, n), times)

    def test_oversized_write_raises(self):
        with SlotRing(4, 1) as ring:
            slot = ring.acquire()
            with pytest.raises(ValueError, match="exceeds slot capacity"):
                ring.write(slot, np.zeros(5, dtype=np.uint64),
                           np.zeros(5, dtype=np.int64))

    def test_release_out_of_range_raises(self):
        with SlotRing(4, 2) as ring:
            with pytest.raises(ValueError, match="out of range"):
                ring.release(7)

    def test_attach_sees_owner_writes(self):
        with SlotRing(8, 2) as owner:
            keys = np.asarray([11, 22, 33], dtype=np.uint64)
            times = np.asarray([1, 2, 3], dtype=np.int64)
            slot = owner.acquire()
            owner.write(slot, keys, times)
            reader = SlotRing(8, 2, name=owner.name)
            try:
                assert np.array_equal(reader.keys_view(slot, 3), keys)
                assert np.array_equal(reader.times_view(slot, 3), times)
            finally:
                reader.close()

    def test_attach_geometry_mismatch_raises(self):
        with SlotRing(4, 2) as owner:
            with pytest.raises(ValueError, match="ring geometry"):
                SlotRing(1024, 64, name=owner.name)

    def test_close_unlinks_segment_and_is_idempotent(self):
        before = _shm_segments()
        ring = SlotRing(16, 2)
        assert _shm_segments() - before  # segment exists while open
        ring.close()
        ring.close()  # idempotent
        assert _shm_segments() == before


class TestTransportEquivalence:
    def test_all_executor_transport_combinations_bit_identical(self, stream):
        states = {}
        answers = {}
        for executor in ("serial", "process"):
            for transport in ("pickle", "shm"):
                with StreamEngine(
                    cfg(transport), executor=executor, num_workers=2
                ) as eng:
                    for lo in range(0, stream.size, 2048):
                        eng.ingest(stream[lo:lo + 2048])
                    eng.flush()
                    states[executor, transport] = _shard_states(eng)
                    probes = np.unique(stream)[:200]
                    answers[executor, transport] = eng.frequency_many(probes)
        base_state = states["serial", "pickle"]
        base_ans = answers["serial", "pickle"]
        for combo, state in states.items():
            assert np.array_equal(answers[combo], base_ans), combo
            for got, want in zip(state, base_state):
                assert set(got) == set(want), combo
                for name in want:
                    assert np.array_equal(got[name], want[name]), (combo, name)

    def test_two_stream_kind_identical_across_transports(self):
        left = np.random.default_rng(9).integers(0, 300, 6000, dtype=np.uint64)
        right = np.random.default_rng(10).integers(0, 300, 6000, dtype=np.uint64)
        sims = []
        for transport in ("pickle", "shm"):
            conf = EngineConfig(
                "mh", window=1024, size=64, num_shards=2,
                flush_batch_size=500, flush_interval_s=None,
                transport=transport, sketch_kwargs={"seed": 5},
            )
            with StreamEngine(conf, executor="process") as eng:
                for lo in range(0, 6000, 1500):
                    eng.ingest(left[lo:lo + 1500], side=0)
                    eng.ingest(right[lo:lo + 1500], side=1)
                eng.flush()
                sims.append(eng.similarity())
        assert sims[0] == sims[1]


class TestFallbacks:
    def test_oversized_batch_falls_back_to_pickle(self, stream):
        shards = [SheCountMin(2048, 1024, seed=7) for _ in range(2)]
        mirror = [SheCountMin(2048, 1024, seed=7) for _ in range(2)]
        ex = ProcessExecutor(
            shards, num_workers=1, transport="shm", ring_slot_items=64
        )
        try:
            keys = stream[:1000]  # 1000 > 64-item slots: must fall back
            times = np.arange(1000, dtype=np.int64)
            ex.flush(0, keys, times)
            mirror[0].insert_at(keys, times)
            snap = ex.snapshot(0)
            assert np.array_equal(snap.frame.cells, mirror[0].frame.cells)
        finally:
            ex.close()

    def test_exhausted_ring_falls_back_to_pickle(self, stream):
        shards = [SheCountMin(2048, 1024, seed=7) for _ in range(2)]
        mirror = SheCountMin(2048, 1024, seed=7)
        ex = ProcessExecutor(shards, num_workers=1, transport="shm")
        try:
            held = []
            while True:  # drain the free list from under the executor
                slot = ex._ring.acquire()
                if slot is None:
                    break
                held.append(slot)
            keys = stream[:500]
            times = np.arange(500, dtype=np.int64)
            ex.flush(1, keys, times)  # no slot free -> pickle path
            mirror.insert_at(keys, times)
            snap = ex.snapshot(1)
            assert np.array_equal(snap.frame.cells, mirror.frame.cells)
            for slot in held:
                ex._ring.release(slot)
        finally:
            ex.close()


class TestRingBudget:
    def test_large_flush_batch_size_caps_ring_segment(self):
        # a 1M-item flush batch on 4 shards would ask for ~160 MB of
        # slots, more than a small container /dev/shm can back
        conf = cfg("shm", flush_batch_size=1_000_000)
        stream = np.random.default_rng(5).integers(
            0, 5000, size=600_000, dtype=np.uint64
        )
        probes = np.unique(stream)[:300]
        answers = {}
        for executor in ("serial", "process"):
            with StreamEngine(
                conf, executor=executor, num_workers=2, obs=True
            ) as eng:
                if executor == "process":
                    ring = eng._exec._ring
                    ring_bytes = ring.slot_items * ring.num_slots * ITEM_BYTES
                    assert ring_bytes <= MAX_RING_BYTES
                eng.ingest(stream)
                eng.flush()
                if executor == "process":
                    # ~150k items per shard outgrow the capped slots
                    assert eng._exec._c_shm_fallback.value > 0
                    assert ring.in_use() == 0
                answers[executor] = eng.frequency_many(probes)
        assert np.array_equal(answers["serial"], answers["process"])

    def test_ring_creation_failure_falls_back_to_pickle(
        self, stream, monkeypatch
    ):
        def no_shm(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(executor_mod, "SlotRing", no_shm)
        shards = [SheCountMin(2048, 1024, seed=7) for _ in range(2)]
        mirror = SheCountMin(2048, 1024, seed=7)
        ex = ProcessExecutor(shards, num_workers=1, transport="shm")
        try:
            assert ex.transport == "pickle"
            assert ex._ring is None
            keys = stream[:500]
            times = np.arange(500, dtype=np.int64)
            ex.flush(0, keys, times)
            mirror.insert_at(keys, times)
            assert np.array_equal(ex.snapshot(0).frame.cells, mirror.frame.cells)
        finally:
            ex.close()


class TestLifecycle:
    def test_engine_close_leaves_no_segments(self, stream):
        before = _shm_segments()
        with StreamEngine(cfg("shm"), executor="process") as eng:
            eng.ingest(stream)
            eng.flush()
        assert _shm_segments() == before

    def test_sigkilled_worker_releases_in_flight_slots(self, stream):
        shards = [SheCountMin(2048, 1024, seed=7) for _ in range(2)]
        ex = ProcessExecutor(
            shards, num_workers=2, transport="shm", timeout_s=5.0
        )
        try:
            keys = stream[:500]
            times = np.arange(500, dtype=np.int64)
            ex.flush(0, keys, times)
            assert ex._ring.in_use() == 0
            os.kill(ex._procs[0].pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while ex.is_worker_alive(0) and time.monotonic() < deadline:
                time.sleep(0.01)
            with pytest.raises(ShardDeadError):
                ex.flush(0, keys, times)
            # the parent's error path reclaimed the descriptor's slot
            assert ex._ring.in_use() == 0
            # the untouched worker still flushes over shm
            ex.flush(1, keys, times)
            assert ex._ring.in_use() == 0
        finally:
            ex.close()

    def test_chaos_sigkill_mid_flush_under_shm(self, stream):
        """A real SIGKILL between shm sends must surface as a typed
        ShardError while the parent reclaims every in-flight slot."""
        before = _shm_segments()
        inner_holder = {}

        def factory(shards):
            inner = ProcessExecutor(
                shards, num_workers=2, transport="shm", timeout_s=5.0
            )
            inner_holder["ex"] = inner
            return ChaosExecutor(inner, kill_worker_after_ops=3)

        with StreamEngine(cfg("shm"), executor=factory) as eng:
            with pytest.raises(ShardError):
                for lo in range(0, stream.size, 2048):
                    eng.ingest(stream[lo:lo + 2048])
                    eng.flush()
            assert inner_holder["ex"]._ring.in_use() == 0
        assert _shm_segments() == before

    def test_no_resource_tracker_warnings_on_clean_exit(self):
        """A fresh interpreter that runs an shm engine end-to-end must
        exit without resource_tracker leak warnings on stderr."""
        code = (
            "import numpy as np\n"
            "from repro.service import EngineConfig, StreamEngine\n"
            "cfg = EngineConfig('cm', window=2048, size=1024, num_shards=2,\n"
            "                   flush_batch_size=500, flush_interval_s=None,\n"
            "                   transport='shm', sketch_kwargs={'seed': 7})\n"
            "eng = StreamEngine(cfg, executor='process')\n"
            "eng.ingest(np.arange(4000, dtype=np.uint64) % 700)\n"
            "eng.flush()\n"
            "print(eng.frequency(13))\n"
            "eng.close()\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = env.get("PYTHONPATH", "src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked shared_memory" not in proc.stderr, proc.stderr


class TestConfig:
    def test_transport_rejected_when_unknown(self):
        with pytest.raises(ValueError, match="transport"):
            EngineConfig("cm", window=2048, size=1024, transport="carrier-pigeon")

    def test_transport_default_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "shm")
        assert EngineConfig("cm", window=2048, size=1024).transport == "shm"
        monkeypatch.delenv("REPRO_TRANSPORT")
        assert EngineConfig("cm", window=2048, size=1024).transport == "pickle"

    def test_transport_round_trips_through_json(self):
        conf = cfg("shm")
        back = EngineConfig.from_json(conf.to_json())
        assert back.transport == "shm"

    def test_serial_executor_validates_transport(self):
        with pytest.raises(ValueError, match="transport"):
            SerialExecutor([SheCountMin(256, 512, seed=7)], transport="nope")
