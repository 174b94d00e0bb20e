"""Stacked shards behind the engine: serial == process, bit for bit.

Engine shards are clones of one prototype, so the shards a worker holds
sit on one base array each for cells and marks (:mod:`repro.core.stack`):
a worker applies its whole flush round, sent as one ``apply`` message,
and answers a point read in one kernel call over its base when the
round allows it, shard by shard when not.  Whatever the route and the
worker count, the shards must end bit for bit where the serial engine
leaves them: cells, marks, clocks and the three cleaning counters.
Three workers over eight shards hold rows of the base that are not
contiguous (worker ``w`` owns shards ``w, w + 3, ...``).  Under a
:class:`ChaosExecutor` a round still goes out as one message per
worker, and a worker killed inside one recovers bit for bit.
"""

import numpy as np
import pytest

import repro.core.stack as stack
from repro.core.registry import get_descriptor
from repro.service import (
    ChaosExecutor,
    EngineConfig,
    ProcessExecutor,
    RetryPolicy,
    StreamEngine,
    Supervisor,
)

SHARDS = 8
KINDS = {
    "bf": dict(window=2048, size=4096, sketch_kwargs={"seed": 3, "num_hashes": 4}),
    "cm": dict(window=2048, size=1024, sketch_kwargs={"seed": 7, "num_hashes": 4}),
}
METHOD = {"bf": "contains_many", "cm": "frequency_many"}


def build(kind, executor="serial", workers=None):
    config = EngineConfig(
        kind, num_shards=SHARDS, flush_batch_size=10**6, flush_interval_s=None,
        rpc_timeout_s=5.0, **KINDS[kind],
    )
    return StreamEngine(config, executor=executor, num_workers=workers)


def drive(eng, kind, rounds=40):
    """Flush rounds of uneven size, most spanning less than ``Tcycle``
    (stacked) and every fifth several ``Tcycle``s (shard by shard),
    with a point read over every owner after each; the answers."""
    rng = np.random.default_rng(11)
    answers = []
    for r in range(rounds):
        n = int(rng.integers(9_000, 12_000)) if r % 5 == 4 else int(rng.integers(0, 900))
        eng.ingest(rng.integers(0, 4000, size=n, dtype=np.uint64))
        eng.flush()
        probes = rng.integers(0, 5000, size=int(rng.integers(1, 300)), dtype=np.uint64)
        answers.append(getattr(eng, METHOD[kind])(probes))
    return answers


def shard_state(kind, sketch):
    meta, arrays = get_descriptor(kind).sketch_state(sketch)
    f = sketch.frame
    counters = (f.cleaning_checks, f.groups_cleaned, f.cells_cleaned)
    return meta, {k: v.tobytes() for k, v in arrays.items()}, sketch.t, counters


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_rounds_and_point_reads_serial_equals_process(kind, workers, monkeypatch):
    routes = {"stacked": 0, "reads": 0}
    apply, read = stack.ShardStack.apply, stack.ShardStack.read_point

    def counted_apply(self, prepared):
        routes["stacked"] += 1
        return apply(self, prepared)

    def counted_read(self, keys, t):
        routes["reads"] += 1
        return read(self, keys, t)

    monkeypatch.setattr(stack.ShardStack, "apply", counted_apply)
    monkeypatch.setattr(stack.ShardStack, "read_point", counted_read)
    with build(kind) as ref, build(kind, "process", workers) as eng:
        want = drive(ref, kind)
        got = drive(eng, kind)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert eng.now() == ref.now()
        for s, (a, b) in enumerate(zip(eng.snapshots(), ref.snapshots())):
            assert shard_state(kind, a) == shard_state(kind, b), f"shard {s}"
    # the serial engine took both routes; the patch does not reach the
    # already-forked workers, so these counts are the serial engine's
    assert 0 < routes["stacked"] < 40 and routes["reads"] == 40


def under_chaos(workers, **faults):
    """An executor factory: a process pool wrapped in a
    :class:`ChaosExecutor` with ``faults``, kept in the returned dict."""
    made = {}

    def factory(shards):
        made["chaos"] = ChaosExecutor(
            ProcessExecutor(shards, num_workers=workers, timeout_s=5.0), **faults
        )
        return made["chaos"]

    return factory, made


@pytest.mark.parametrize("workers,chaos", [
    pytest.param(1, False, id="1"),
    pytest.param(3, False, id="3"),
    pytest.param(1, True, id="1-chaos"),
    pytest.param(3, True, id="3-chaos"),
])
def test_a_flush_round_is_one_message_per_worker(workers, chaos, monkeypatch):
    """Under chaos too: each batch counts as its own op, and the
    batches that pass their faults still go out as one round."""
    factory, made = under_chaos(workers)
    with build("bf", factory if chaos else "process", workers) as eng:
        ex = made["chaos"]._inner if chaos else eng._exec
        sent = []
        real = ex._send

        def send(worker_id, message, **kw):
            sent.append((worker_id, message[0], [b[0] for b in message[1]]))
            return real(worker_id, message, **kw)

        monkeypatch.setattr(ex, "_send", send)
        eng.ingest(np.arange(4000, dtype=np.uint64))
        eng.flush()
        assert sorted(sent) == [
            (w, "apply", ex.shards_of(w)) for w in range(workers)
        ]
        if chaos:
            assert made["chaos"].ops == SHARDS


def test_a_kill_inside_a_stacked_round_recovers_bit_identical(tmp_path):
    """Supervisor attach counts 16 ops (8 clock advances, 8
    checkpoints), each round 8 (one per batch): op 28 is the fourth
    batch of the second round, shard 3, whose worker 1 dies with the
    round's first batches sent and the rest still to go."""
    factory, made = under_chaos(2, kill_worker_after_ops=28)
    rng = np.random.default_rng(5)
    with build("bf") as ref, build("bf", factory) as eng:
        Supervisor(eng, tmp_path, policy=RetryPolicy(backoff_base_s=0.0))
        for _ in range(4):
            # 600 keys: under Tcycle and under M touches, so stacked
            keys = rng.integers(0, 4000, size=600, dtype=np.uint64)
            for e in (ref, eng):
                e.ingest(keys)
                e.flush()
        assert made["chaos"].kills == [(28, 1)]
        assert eng.stats.worker_restarts == 1 and eng.down_shards == ()
        probes = rng.integers(0, 5000, size=300, dtype=np.uint64)
        assert np.array_equal(eng.contains_many(probes), ref.contains_many(probes))
        for s, (a, b) in enumerate(zip(eng.snapshots(), ref.snapshots())):
            # a recovered shard restarts its cleaning counters
            assert shard_state("bf", a)[:3] == shard_state("bf", b)[:3], f"shard {s}"
