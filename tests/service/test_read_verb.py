"""Queries travel to the data: one ``read`` per worker.

Every engine query, scrape and clock alignment reaches the shards
through the executor's ``read`` verb: each worker advances its own
shards to the engine clock and answers where they live (a point
query's answers, one ``merge_many`` operand, a scrape's ints and probe
dicts).  ``SerialExecutor`` runs the same function in place, so the
answers of the two executors must agree bit for bit, whatever the
worker count; a process query must cost one message per worker and no
whole-shard ``snapshot``; and a lost worker is reported missing from a
degraded read, or rebuilt and read again under a supervisor.
"""

import os
import signal

import numpy as np
import pytest

from repro.core.merge import merge_many
from repro.core.registry import get_descriptor
from repro.service import (
    EngineConfig,
    RetryPolicy,
    StreamEngine,
    Supervisor,
    shard_ids,
)

SHARDS = 4
KINDS = {
    "bf": dict(window=2048, size=4096, sketch_kwargs={"seed": 3, "num_hashes": 4}),
    "cm": dict(window=2048, size=1024, sketch_kwargs={"seed": 7}),
    "hll": dict(window=2048, size=256, sketch_kwargs={"seed": 5}),
    "bm": dict(window=256, size=512, sketch_kwargs={"seed": 2}),
    "mh": dict(window=1024, size=64, sketch_kwargs={"seed": 5}),
    "wq": dict(window=4096, size=2048),
}
#: never-inserted probes: the stream's keys are all below 3000
ABSENT = np.arange(1 << 40, (1 << 40) + 512, dtype=np.uint64)


@pytest.fixture(scope="module")
def stream():
    return np.random.default_rng(17).integers(0, 3000, size=9_000, dtype=np.uint64)


def build(kind, executor="serial", workers=None):
    config = EngineConfig(
        kind, num_shards=SHARDS, flush_batch_size=600, flush_interval_s=None,
        rpc_timeout_s=5.0, **KINDS[kind],
    )
    return StreamEngine(config, executor=executor, num_workers=workers)


def feed(eng, stream):
    """Ingest in uneven chunks; a two-stream engine alternates sides
    with unequal shares, so its two clocks differ."""
    for i, lo in enumerate(range(0, stream.size, 1300)):
        chunk = stream[lo:lo + 1300]
        if eng.config.descriptor().two_stream:
            eng.ingest(chunk[: 900 if i % 2 else 400], side=i % 2)
        else:
            eng.ingest(chunk)


def same_state(kind, a, b) -> bool:
    meta_a, arrays_a = get_descriptor(kind).sketch_state(a)
    meta_b, arrays_b = get_descriptor(kind).sketch_state(b)
    return (
        meta_a == meta_b
        and arrays_a.keys() == arrays_b.keys()
        and all(np.array_equal(arrays_a[k], arrays_b[k]) for k in arrays_a)
    )


@pytest.fixture(params=[1, 2], ids=["one-worker", "two-workers"])
def workers(request):
    return request.param


class TestSerialEqualsProcess:
    """The same read answered in place and in the workers: one worker
    ships a lone operand, two make the driver fold theirs."""

    @pytest.mark.parametrize("kind,method", [
        ("bf", "contains_many"), ("cm", "frequency_many"),
    ])
    def test_point_queries(self, stream, workers, kind, method):
        spread = np.concatenate([np.unique(stream), ABSENT])
        empty = np.zeros(0, dtype=np.uint64)
        with build(kind) as ref, build(kind, "process", workers) as eng:
            owners = shard_ids(spread, SHARDS, eng.config.shard_seed)
            one_owner = spread[owners == 2]
            feed(ref, stream)
            feed(eng, stream)
            for keys in (spread, one_owner, empty):
                want = getattr(ref, method)(keys)
                got = getattr(eng, method)(keys)
                assert got.dtype == want.dtype and got.shape == keys.shape
                assert np.array_equal(got, want)
            assert eng.now() == ref.now()

    @pytest.mark.parametrize("kind,ask", [
        ("hll", lambda e: e.cardinality()),
        ("bm", lambda e: e.cardinality()),
        ("mh", lambda e: e.similarity()),
        ("wq", lambda e: e.quantile(0.9)),
    ])
    def test_whole_array_queries(self, stream, workers, kind, ask):
        with build(kind) as ref, build(kind, "process", workers) as eng:
            feed(ref, stream)
            feed(eng, stream)
            if kind == "mh":
                assert eng.now(0) != eng.now(1)  # both side clocks carried
            assert ask(eng) == ask(ref)
            assert same_state(kind, eng.merged(), ref.merged())

    @pytest.mark.parametrize("kind", ["cm", "hll", "mh"])
    def test_scrapes(self, stream, workers, kind):
        with build(kind) as ref, build(kind, "process", workers) as eng:
            feed(ref, stream)
            feed(eng, stream)
            for e in (ref, eng):
                e.flush()
            assert eng.memory_bytes == ref.memory_bytes
            assert eng.probe_shards() == ref.probe_shards()


class _PipeSpy:
    """Records ``(worker, verb)`` of every message the driver sends,
    and the op and shards each ``read`` carries."""

    def __init__(self, executor, monkeypatch):
        self.sent: list[tuple[int, str]] = []
        self.read_ops: list = []
        self.read_shards: dict[int, list[int]] = {}
        real = executor._send

        def send(worker_id, message, **kw):
            self.sent.append((worker_id, message[0]))
            if message[0] == "read":
                self.read_ops.append(message[2])
                self.read_shards[worker_id] = sorted(message[3])
            return real(worker_id, message, **kw)

        monkeypatch.setattr(executor, "_send", send)


class TestOneMessagePerWorker:
    @pytest.mark.parametrize("kind,ask", [
        ("hll", lambda e: e.cardinality()),
        ("cm", lambda e: e.frequency_many(np.arange(200, dtype=np.uint64))),
        ("cm", lambda e: e.frequency_many(np.zeros(0, dtype=np.uint64))),
        ("cm", lambda e: e.memory_bytes),
    ], ids=["cardinality", "frequency_many", "no-keys", "memory_bytes"])
    def test_a_query_sends_one_read_per_worker(
            self, stream, monkeypatch, kind, ask):
        with build(kind, "process", 2) as eng:
            feed(eng, stream)
            eng.flush()
            spy = _PipeSpy(eng._exec, monkeypatch)
            ask(eng)
            assert sorted(spy.sent) == [(0, "read"), (1, "read")]
            # each worker hears of its own shards only
            assert spy.read_shards == {0: [0, 2], 1: [1, 3]}

    def test_a_lone_worker_answers_whole_array_queries(self, stream, monkeypatch):
        """Its merge is the whole merge: the value comes back, not the
        operand; ``merged()`` still ships the operand."""
        with build("wq", "process", 1) as eng:
            feed(eng, stream)
            eng.flush()
            spy = _PipeSpy(eng._exec, monkeypatch)
            eng.quantile(0.5)
            eng.merged()
            assert spy.read_ops == [("answer", "quantile", (0.5,)), "merge"]

    def test_several_workers_ship_operands(self, stream, monkeypatch):
        with build("hll", "process", 2) as eng:
            feed(eng, stream)
            eng.flush()
            spy = _PipeSpy(eng._exec, monkeypatch)
            eng.cardinality()
            assert spy.read_ops == ["merge", "merge"]

    def test_snapshots_still_ship_whole_shards(self, stream, monkeypatch):
        with build("cm", "process", 2) as eng:
            feed(eng, stream)
            eng.flush()
            spy = _PipeSpy(eng._exec, monkeypatch)
            eng.snapshots()
            verbs = [verb for _w, verb in spy.sent]
            assert verbs.count("read") == 2
            assert verbs.count("snapshot") == SHARDS
            assert "advance" not in verbs


class TestLostWorker:
    """Worker 1 (shards 1 and 3) SIGKILLed between reads."""

    def kill(self, eng, worker_id=1):
        proc = eng._exec._procs[worker_id]
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=5)

    def test_degraded_read_reports_its_shards_missing(self, stream):
        with build("hll") as ref, build("hll", "process", 2) as eng:
            feed(ref, stream)
            feed(eng, stream)
            eng.flush()
            self.kill(eng)
            res = eng.cardinality(strict=False)
            assert res.missing_shards == (1, 3)
            assert set(eng.down_shards) == {1, 3}
            snaps = ref.snapshots()
            survivors = merge_many([snaps[0], snaps[2]], t=ref.now())
            assert res.value == survivors.cardinality()
            # the next read knows worker 1 is down: worker 0 holds every
            # live shard and answers itself, with the same value
            again = eng.cardinality(strict=False)
            assert again.missing_shards == (1, 3)
            assert again.value == res.value

    def test_supervised_read_is_rebuilt_and_equals_serial(self, tmp_path, stream):
        with build("hll") as ref, build("hll", "process", 2) as eng:
            Supervisor(eng, tmp_path, policy=RetryPolicy(backoff_base_s=0.0))
            feed(ref, stream)
            feed(eng, stream)
            eng.flush()
            self.kill(eng)
            assert eng.cardinality() == ref.cardinality()
            assert eng.stats.worker_restarts == 1
            assert eng.down_shards == ()
            # the rebuilt worker's shards came back at their replayed
            # clock; the retried read brought every one to the engine's
            assert [p["t"] for p in eng.probe_shards()] == [eng.now()] * SHARDS
