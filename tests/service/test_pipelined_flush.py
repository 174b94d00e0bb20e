"""Pipelined flushes: the round an ingest trigger leaves in flight.

``ingest``'s size/interval trigger sends its round and returns without
waiting for the acknowledgements; the next call that reaches the
executor settles it first.  These tests pin what that must not change:
a worker that dies or stalls under an unacknowledged round is reported
by the next engine call, naming exactly that round's shards, with the
round's batches back at their buffer fronts; a supervisor rebuilds the
worker bit-identical to a serial engine; at most one round is ever in
flight; and serial and process engines end in the same state.

Every test drives a :class:`ChaosExecutor` over a real
:class:`ProcessExecutor`.  A kill lands while the worker sleeps ahead of
the round's first batch (a chaos "slow worker" sleep queued in the same
round), so the round is unapplied and unacknowledged when it dies.
"""

import json
import time

import numpy as np
import pytest

from repro.core.registry import descriptor_of
from repro.service import (
    ChaosExecutor,
    EngineConfig,
    ProcessExecutor,
    RetryPolicy,
    ShardDeadError,
    ShardTimeoutError,
    ShardUnrecoverableError,
    StreamEngine,
    Supervisor,
)

BATCH = 500


def cfg(**kw):
    base = dict(
        window=4096, size=1024, num_shards=2,
        flush_batch_size=BATCH, flush_interval_s=None,
        rpc_timeout_s=5.0, sketch_kwargs={"seed": 7},
    )
    base.update(kw)
    return EngineConfig("cm", **base)


def stream(n=40_000, seed=3):
    return np.random.default_rng(seed).integers(0, 5000, size=n, dtype=np.uint64)


def chaos_engine(config, **chaos_kw):
    """A process engine (one worker, both shards) behind a chaos
    wrapper; returns ``(engine, holder)`` with the wrapper in
    ``holder["x"]``."""
    holder = {}

    def factory(shards):
        holder["x"] = ChaosExecutor(
            ProcessExecutor(shards, num_workers=1,
                            timeout_s=config.rpc_timeout_s),
            **chaos_kw,
        )
        return holder["x"]

    return StreamEngine(config, executor=factory), holder


def conserved(eng) -> bool:
    snap = eng.stats_snapshot(tick=False)
    return snap["items_ingested"] == (
        snap["items_flushed"] + snap["items_buffered"]
        + snap["items_shed"] + snap["items_retained_down"]
    )


def state_of(eng):
    """Every shard's bit-level (meta, arrays): cells, marks and clock."""
    out = []
    for snap in eng.snapshots():
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


def send_stalled_round(eng, chaos, keys):
    """Ingest ``keys`` (enough to trigger both shards) with the worker
    made to sleep ahead of the round, then SIGKILL it while it sleeps.
    Returns the round as ``{(shard, side): (keys, times)}``."""
    chaos._slow_workers[0] = 2.0  # well inside the 5 s deadline
    eng.ingest(keys)
    chaos._slow_workers.clear()
    rnd = eng._inflight
    assert rnd is not None, "the triggered round must stay in flight"
    sent = {key: (k.copy(), t.copy()) for key, k, t in rnd.staged}
    assert conserved(eng)  # in-flight items count as buffered
    chaos._kill(0)  # unapplied, unacknowledged: the worker was asleep
    return sent


class TestWorkerKilledUnderTheRound:
    def test_next_call_raises_naming_the_round_and_requeues_it(self):
        eng, holder = chaos_engine(cfg())
        chaos = holder["x"]
        try:
            data = stream(6000)
            eng.ingest(data[:600])  # below the trigger: buffered only
            assert eng._inflight is None
            sent = send_stalled_round(eng, chaos, data[600:5000])
            round_shards = {s for s, _side in sent}
            assert round_shards == {0, 1}
            # more arrivals while the dead round is still unsettled;
            # below the trigger, so nothing reaches the executor
            eng.ingest(data[5000:5050])
            assert eng._inflight is not None
            with pytest.raises(ShardDeadError) as exc_info:
                eng.flush()
            assert set(exc_info.value.shard_ids) == round_shards
            assert set(eng.down_shards) == round_shards
            for (s, side), (keys, times) in sent.items():
                buf = eng._buffers[s, side]
                # the round is back at the front, ahead of the newer
                # arrivals, and the buffer is in time order
                assert np.array_equal(buf.keys[0], keys)
                assert np.array_equal(buf.times[0], times)
                all_times = np.concatenate(buf.times)
                assert np.all(np.diff(all_times) > 0)
            assert conserved(eng)
            snap = eng.stats_snapshot(tick=False)
            assert snap["items_retained_down"] == snap["items_ingested"] - snap["items_flushed"]
            with pytest.raises(ShardUnrecoverableError):
                eng.frequency(1)
        finally:
            eng.close()

    def test_supervisor_recovers_bit_identical_to_serial(self, tmp_path):
        config = cfg()
        data = stream(30_000)
        eng, holder = chaos_engine(config)
        chaos = holder["x"]
        Supervisor(eng, tmp_path, policy=RetryPolicy(backoff_base_s=0.0))
        ref = StreamEngine(config)
        try:
            eng.ingest(data[:600])
            send_stalled_round(eng, chaos, data[600:5000])
            for lo in range(5000, data.size, 700):
                eng.ingest(data[lo:lo + 700])  # the next trigger recovers
            eng.flush()
            assert chaos.kills
            assert eng.stats.worker_restarts >= 1
            assert eng.down_shards == ()
            assert conserved(eng)
            for lo in range(0, data.size, 700):
                ref.ingest(data[lo:lo + 700])
            assert_same_state(state_of(eng), state_of(ref))
        finally:
            eng.close()
            ref.close()


class TestWorkerStalledUnderTheRound:
    def test_stall_past_deadline_poisons_and_next_call_reports_it(self):
        eng, holder = chaos_engine(cfg(rpc_timeout_s=0.3))
        chaos = holder["x"]
        try:
            data = stream(5000)
            eng.ingest(data[:600])
            # stall the round's first batch's worker past the deadline
            chaos._delay_ops = {chaos.ops + 1: 1.5}
            t0 = time.monotonic()
            eng.ingest(data[600:5000])
            sent_in = time.monotonic() - t0
            assert eng._inflight is not None
            assert sent_in < 1.0, "ingest must not wait for the stalled round"
            round_shards = {s for (s, _side), _k, _t in eng._inflight.staged}
            t0 = time.monotonic()
            with pytest.raises(ShardTimeoutError) as exc_info:
                eng.flush()
            assert time.monotonic() - t0 < 1.2
            assert exc_info.value.timeout_s == pytest.approx(0.3)
            assert set(exc_info.value.shard_ids) == round_shards
            assert 0 in chaos._inner._poisoned
            assert set(eng.down_shards) == round_shards
            assert conserved(eng)
        finally:
            eng.close()


class _Spy:
    """Executor wrapper recording the order of round sends, settles and
    every other verb."""

    def __init__(self, inner):
        self.inner = inner
        self.events: list[str] = []
        self.in_flight = 0
        self.max_in_flight = 0

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name in ("read", "snapshot", "snapshots",
                    "checkpoint", "ping", "restart_worker", "flush_many"):
            def verb(*args, **kwargs):
                assert self.in_flight == 0, f"{name} with a round in flight"
                self.events.append(name)
                return attr(*args, **kwargs)
            return verb
        return attr

    def send_many(self, batches, trace=None):
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        self.events.append("send")
        self.inner.send_many(batches, trace)

    def settle(self):
        self.in_flight = 0
        self.events.append("settle")
        self.inner.settle()


class TestOrdering:
    def test_one_round_in_flight_settled_before_the_next_send(self, tmp_path):
        config = cfg(flush_interval_s=None)
        spy = {}

        def factory(shards):
            spy["x"] = _Spy(ChaosExecutor(
                ProcessExecutor(shards, num_workers=1, timeout_s=5.0)))
            return spy["x"]

        eng = StreamEngine(config, executor=factory)
        Supervisor(eng, tmp_path, policy=RetryPolicy(backoff_base_s=0.0))
        data = stream(40_000)
        returned_in_flight = 0
        try:
            for i, lo in enumerate(range(0, data.size, 400)):
                eng.ingest(data[lo:lo + 400])
                returned_in_flight += eng._inflight is not None
                if i % 9 == 4:
                    eng.frequency(int(data[lo]))
                if i % 13 == 6:
                    eng.memory_bytes
                if i % 17 == 8:
                    eng._supervisor.check()
                if i % 23 == 11:
                    eng.tick()
            eng.flush()
        finally:
            eng.close()
        s = spy["x"]
        assert s.max_in_flight == 1
        assert returned_in_flight > 0, "ingest never left a round in flight"
        sends = [i for i, e in enumerate(s.events) if e == "send"]
        assert len(sends) >= 20
        for a, b in zip(sends, sends[1:]):
            # each round is settled after its send, before the next one
            assert "settle" in s.events[a + 1:b]
        assert s.events[sends[-1] + 1:].count("settle") >= 1


class TestEquivalence:
    def test_serial_equals_process_after_many_triggered_rounds(self):
        config = cfg(flush_batch_size=256)
        data = stream(60_000)
        eng, _holder = chaos_engine(config)
        ref = StreamEngine(config)
        try:
            for lo in range(0, data.size, 300):
                for e in (eng, ref):
                    e.ingest(data[lo:lo + 300])
            rounds = eng.stats.flush_count
            assert rounds >= 50
            for e in (eng, ref):
                e.flush()
            assert_same_state(state_of(eng), state_of(ref))
            assert eng.now() == ref.now()
        finally:
            eng.close()
            ref.close()
