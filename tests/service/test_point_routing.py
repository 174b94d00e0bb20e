"""Point queries read each key's owning shard, with no fan-in.

Keys hash-partition, so every arrival of a key lives on its owner and
the owner's answer is the sketch's own, within the paper's §5 bound of
the items that one shard holds.  Exact-window tests pin that on both
executors at S = 1, 2 and 8: the engine answers every key exactly as
the owner shard's snapshot does, SHE-BF has no false negatives on
window keys, SHE-CM under-reports no more than its all-young fallback
allows, and neither error grows with the shard count.  A degraded read
answers live owners' keys exactly and missing owners' keys with the
kind's empty value; every query files one ``query_fanin`` stage sample.
"""

import math

import numpy as np
import pytest

from repro.core.registry import get_descriptor
from repro.exact import ExactWindow
from repro.service import (
    ChaosExecutor,
    EngineConfig,
    ProcessExecutor,
    RetryPolicy,
    ShardError,
    StreamEngine,
    Supervisor,
    shard_ids,
)
from repro.service.sharding import shard_of

WINDOW = 2048
SHARD_COUNTS = (1, 2, 8)
SIZES = {"bf": 1 << 14, "cm": 1024, "hll": 256}
#: never-inserted probes: the stream's keys are all below 3000
ABSENT = np.arange(1 << 40, (1 << 40) + 4096, dtype=np.uint64)


@pytest.fixture(scope="module")
def stream():
    return np.random.default_rng(11).integers(0, 3000, size=12_000, dtype=np.uint64)


@pytest.fixture(scope="module")
def exact(stream):
    ew = ExactWindow(WINDOW)
    ew.insert_many(stream)
    return ew


def make_engine(kind, shards, executor="serial", **kw):
    config = EngineConfig(
        kind, window=WINDOW, size=SIZES[kind], num_shards=shards,
        flush_batch_size=777, flush_interval_s=None,
        sketch_kwargs={"seed": 3, "num_hashes": 8} if kind != "hll" else {"seed": 3},
    )
    workers = min(shards, 2) if executor == "process" else None
    return StreamEngine(config, executor=executor, num_workers=workers, **kw)


def owner_answers(eng, keys, method):
    """Each key asked of its owner's snapshot, one key at a time."""
    snaps = eng.snapshots()
    n, seed, t = eng.num_shards, eng.config.shard_seed, eng.now()
    return np.array([
        getattr(snaps[shard_of(int(k), n, seed)], method)(int(k), t)
        for k in keys
    ])


def young_allowance(n: int, alpha: float, k: int) -> int:
    """Keys SHE-CM may under-report: those whose k mapped counters are
    all younger than the window, probability ``(1/(1+alpha))^k`` each
    (mean plus four standard deviations, at least two)."""
    mean = n * (1.0 / (1.0 + alpha)) ** k
    return max(2, math.ceil(mean + 4 * math.sqrt(mean)))


@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("shards", SHARD_COUNTS)
class TestOwnerShardAnswers:
    def test_bf_answers_are_the_owner_shards(self, stream, exact, executor, shards):
        with make_engine("bf", shards, executor) as eng:
            eng.ingest(stream)
            members = exact.distinct_keys()
            probes = np.concatenate([members, ABSENT])
            got = eng.contains_many(probes)
            assert np.array_equal(got, owner_answers(eng, probes, "contains"))
            assert got[: members.size].all(), "false negative on a window key"

    def test_cm_answers_are_the_owner_shards(self, stream, exact, executor, shards):
        with make_engine("cm", shards, executor) as eng:
            eng.ingest(stream)
            probes = exact.distinct_keys()
            got = eng.frequency_many(probes)
            assert np.array_equal(got, owner_answers(eng, probes, "frequency"))
            under = np.count_nonzero(got < exact.frequency_many(probes))
            assert under <= young_allowance(probes.size, alpha=1.0, k=8)


class TestErrorDoesNotGrowWithShards:
    def test_bf_false_positive_rate(self, stream):
        rates = []
        for shards in SHARD_COUNTS:
            with make_engine("bf", shards) as eng:
                eng.ingest(stream)
                rates.append(float(np.mean(eng.contains_many(ABSENT))))
        assert rates[0] > 0, "the single-shard sketch must show some error"
        assert rates == sorted(rates, reverse=True), rates
        assert rates[-1] < rates[0], rates

    def test_cm_mean_overestimate(self, stream, exact):
        probes = exact.distinct_keys()
        true = exact.frequency_many(probes)
        errors = []
        for shards in SHARD_COUNTS:
            with make_engine("cm", shards) as eng:
                eng.ingest(stream)
                errors.append(float(np.mean(eng.frequency_many(probes) - true)))
        assert errors[0] > 0, "the single-shard sketch must show some error"
        assert errors == sorted(errors, reverse=True), errors
        assert errors[-1] < errors[0], errors


def fanin_samples(eng) -> int:
    return eng.obs.stages.threshold_totals("query_fanin", 1e9)[1]


class TestDegradedPointQueries:
    """One shard held down (chaos kill, restarts disabled): a
    ``strict=False`` point query answers the live owners' keys exactly
    as those shards do and the missing owner's keys as empty."""

    @pytest.mark.parametrize("kind,method,empty", [
        ("cm", "frequency_many", 0.0),
        ("bf", "contains_many", False),
    ])
    def test_live_owners_exact_missing_owner_empty(
            self, tmp_path, stream, kind, method, empty):
        chaos = {}

        def factory(shards):
            chaos["x"] = ChaosExecutor(
                ProcessExecutor(shards, num_workers=4, timeout_s=5.0),
                kill_worker_after_ops=15)
            return chaos["x"]

        config = EngineConfig(
            kind, window=WINDOW, size=SIZES[kind], num_shards=4,
            flush_batch_size=700, flush_interval_s=None, rpc_timeout_s=5.0,
            sketch_kwargs={"seed": 3},
        )
        eng = StreamEngine(config, executor=factory, obs=True)
        Supervisor(eng, tmp_path, policy=RetryPolicy(max_restarts=0))
        try:
            for lo in range(0, stream.size, 1500):
                try:
                    eng.ingest(stream[lo:lo + 1500])
                except ShardError:
                    pass  # buffered before the flush: nothing is lost
            (down,) = eng.down_shards
            eng.obs.stages.track_threshold("query_fanin", 1e9)
            probes = np.concatenate([np.unique(stream), ABSENT[:256]])
            res = getattr(eng, method)(probes, strict=False)
            assert fanin_samples(eng) == 1
            assert res.missing_shards == (down,)
            assert res.shards_answered == 3
            assert res.caveat == get_descriptor(kind).caveat(missing=True)

            owners = shard_ids(probes, 4, config.shard_seed)
            assert np.all(res.value[owners == down] == empty)
            live = [s for s in range(4) if s != down]
            for s, snap in zip(live, chaos["x"].snapshots(live)):
                mine = owners == s
                assert np.array_equal(
                    res.value[mine], getattr(snap, method)(probes[mine], eng.now())
                ), f"shard {s}"
        finally:
            eng.close()


class TestOneStageSamplePerQuery:
    @pytest.mark.parametrize("kind,ask", [
        ("bf", lambda e, k: e.contains_many(k)),
        ("bf", lambda e, k: e.contains(int(k[0]))),
        ("cm", lambda e, k: e.frequency_many(k)),
        ("cm", lambda e, k: e.frequency(int(k[0]))),
        ("cm", lambda e, k: e.frequency_many(k, strict=False)),
        ("hll", lambda e, k: e.cardinality()),
        ("hll", lambda e, k: e.cardinality(strict=False)),
        ("hll", lambda e, k: e.merged()),
    ])
    def test_each_query_files_one_sample(self, stream, kind, ask):
        with make_engine(kind, 4, obs=True) as eng:
            eng.obs.stages.track_threshold("query_fanin", 1e9)
            eng.ingest(stream)
            for n in (1, 2, 3):
                ask(eng, stream[:64])
                assert fanin_samples(eng) == n
