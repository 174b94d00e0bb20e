"""Whole-array answers from folded cells equal the merged sketch's.

An engine answers cardinality, similarity and quantile queries with the
kind's registered estimator over its shards' folded cell arrays, never
from a merged sketch (:func:`repro.core.merge.estimate`).  The oracle
is the sketch those answers stand for: ``merge_many`` over the aligned
shards, asked the same query.  The two must agree bit for bit whatever
the executor and worker count (one worker answers from its own fold,
several ship their folds for the driver to combine), on a degraded
read that misses a shard, and after ``recover_engine``, whose ledger
check compares ``cardinality()`` with ``==``.
"""

import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge import merge_many
from repro.core.registry import get_descriptor
from repro.service import EngineConfig, StreamEngine, recover_engine, save_checkpoint

SHARDS = 3
KINDS = {
    "hll": dict(window=2048, size=256, sketch_kwargs={"seed": 5}),
    "bm": dict(window=256, size=512, sketch_kwargs={"seed": 2}),
    "mh": dict(window=1024, size=64, sketch_kwargs={"seed": 5}),
    "wq": dict(window=4096, size=2048),
}
#: the query each kind answers, and its arguments
ASK = {
    "hll": ("cardinality", ()),
    "bm": ("cardinality", ()),
    "mh": ("similarity", ()),
    "wq": ("quantile", (0.9,)),
}
EXECUTORS = [("serial", None), ("process", 1), ("process", 2), ("process", 3)]


def build(kind, executor="serial", workers=None):
    config = EngineConfig(
        kind, num_shards=SHARDS, flush_batch_size=500, flush_interval_s=None,
        rpc_timeout_s=5.0, **KINDS[kind],
    )
    return StreamEngine(config, executor=executor, num_workers=workers)


def feed(eng, kind, rng, chunks):
    """Ingest ``chunks`` calls of random size; a two-stream engine
    picks a side per call, so its two clocks differ."""
    for _ in range(chunks):
        keys = rng.integers(0, 4000, size=int(rng.integers(0, 1500)), dtype=np.uint64)
        if kind == "mh":
            eng.ingest(keys, side=int(rng.integers(0, 2)))
        else:
            eng.ingest(keys)


def ask(eng, kind, **kw):
    method, margs = ASK[kind]
    return getattr(eng, method)(*margs, **kw)


def oracle(kind, sketches, t=None):
    method, margs = ASK[kind]
    return getattr(merge_many(sketches, t=t), method)(*margs)


def same(a, b) -> bool:
    """Bit-equal floats, NaN included (an empty window's quantile)."""
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def state(kind, sketch):
    meta, arrays = get_descriptor(kind).sketch_state(sketch)
    return meta, {k: np.asarray(v).tobytes() for k, v in arrays.items()}


@pytest.mark.parametrize("executor,workers", EXECUTORS)
@pytest.mark.parametrize("kind", sorted(KINDS))
@given(seed=st.integers(0, 2**32 - 1), chunks=st.integers(1, 8))
@settings(max_examples=8, deadline=None)
def test_answers_equal_the_merged_sketch(kind, executor, workers, seed, chunks):
    rng = np.random.default_rng(seed)
    with build(kind, executor, workers) as eng:
        for _ in range(2):
            feed(eng, kind, rng, chunks)
            got = ask(eng, kind)
            snaps = eng.snapshots()
            assert same(got, oracle(kind, snaps))
            # merged() installs the same fold: the sketch merge_many builds
            assert state(kind, eng.merged()) == state(kind, merge_many(snaps))


def kill(eng, worker_id):
    proc = eng._exec._procs[worker_id]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=5)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_degraded_answer_is_the_survivors_merge(kind, workers):
    """Worker 1 owns shard 1 alone; with it dead, two workers leave one
    to answer from its fold, three leave two folds for the driver."""
    rng = np.random.default_rng(23)
    with build(kind) as ref, build(kind, "process", workers) as eng:
        feed(ref, kind, np.random.default_rng(23), 6)
        feed(eng, kind, rng, 6)
        eng.flush()
        kill(eng, 1)
        res = ask(eng, kind, strict=False)
        assert res.missing_shards == (1,)
        snaps = ref.snapshots()
        assert same(res.value, oracle(kind, [snaps[0], snaps[2]]))


@pytest.mark.parametrize("executor,workers", EXECUTORS)
@pytest.mark.parametrize("kind", ["bm", "hll"])
def test_recovered_cardinality_is_the_same_float(tmp_path, kind, executor, workers):
    with build(kind, executor, workers) as eng:
        feed(eng, kind, np.random.default_rng(31), 6)
        live = eng.cardinality()
        save_checkpoint(eng, tmp_path)
    rec = recover_engine(tmp_path, executor=executor, num_workers=workers)
    with rec:
        assert rec.cardinality() == live
        assert same(rec.cardinality(), oracle(kind, rec.snapshots()))
