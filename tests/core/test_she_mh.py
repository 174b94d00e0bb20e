"""Tests for SHE-MH (sliding-window MinHash)."""

import numpy as np
import pytest

from repro.common.hashing import splitmix64
from repro.core import SheMinHash
from repro.core.csm import UpdateKind
from repro.exact import ExactJaccard

from helpers import NaiveHardwareFrame, NaiveSoftwareFrame


@pytest.fixture(params=["hardware", "software"])
def frame(request):
    return request.param


def feed_pair(mh, a, b, chunk=128):
    for lo in range(0, len(a), chunk):
        mh.insert_many(0, a[lo : lo + chunk])
        mh.insert_many(1, b[lo : lo + chunk])


class TestBasics:
    def test_identical_streams_similarity_one(self, frame):
        n = 256
        mh = SheMinHash(n, 128, frame=frame)
        stream = np.arange(2 * n, dtype=np.uint64) % np.uint64(100)
        feed_pair(mh, stream, stream)
        assert mh.similarity() == 1.0

    def test_disjoint_streams_similarity_low(self, frame):
        n = 256
        mh = SheMinHash(n, 256, frame=frame)
        a = np.arange(2 * n, dtype=np.uint64) % np.uint64(100)
        b = (np.arange(2 * n, dtype=np.uint64) % np.uint64(100)) + np.uint64(10_000)
        feed_pair(mh, a, b)
        assert mh.similarity() < 0.1

    def test_partial_overlap(self, frame):
        n = 512
        rng = np.random.default_rng(3)
        pool = np.arange(300, dtype=np.uint64)
        a = rng.choice(pool[:200], size=3 * n).astype(np.uint64)
        b = rng.choice(pool[100:], size=3 * n).astype(np.uint64)
        mh = SheMinHash(n, 512, frame=frame)
        ej = ExactJaccard(n)
        feed_pair(mh, a, b)
        ej.insert_many(0, a)
        ej.insert_many(1, b)
        assert abs(mh.similarity() - ej.similarity()) < 0.15

    def test_rejects_bad_side(self, frame):
        mh = SheMinHash(64, 32, frame=frame)
        with pytest.raises(ValueError):
            mh.insert(2, 1)

    def test_window_expiry(self, frame):
        n = 256
        mh = SheMinHash(n, 128, frame=frame)
        shared = np.arange(100, dtype=np.uint64)
        # phase 1: both sides identical
        for _ in range(4):
            mh.insert_many(0, shared)
            mh.insert_many(1, shared)
        # phase 2: completely disjoint for many windows
        for i in range(12):
            mh.insert_many(0, np.uint64(1000 + i * 100) + shared)
            mh.insert_many(1, np.uint64(90_000 + i * 100) + shared)
        assert mh.similarity() < 0.25

    def test_cells_match_bruteforce_minima(self, frame):
        """The counters hold exact minima over each column's age span."""
        n = 200
        mh = SheMinHash(n, 64, frame=frame, alpha=0.3)
        rng = np.random.default_rng(5)
        stream = rng.integers(0, 5000, size=900, dtype=np.uint64)
        # irregular chunk sizes stress the chunked batch logic
        for lo, hi in [(0, 1), (1, 130), (130, 131), (131, 500), (500, 900)]:
            mh.insert_many(0, stream[lo:hi])
        t = mh.counts[0]
        f = mh.frames[0]
        f.prepare_query_all(t)
        ages = f.group_ages(t) if hasattr(f, "group_ages") else None
        mask24 = np.uint64((1 << 24) - 1)
        for j in range(0, 64, 7):
            age = int(ages[j])
            span = stream[max(0, t - age) : t]
            if span.size == 0:
                continue
            expected = int(np.min(splitmix64(span ^ mh._col_seeds[j]) & mask24))
            assert int(f.cells[j]) == expected, f"column {j}, age {age}"

    def test_from_memory_covers_both_sides(self):
        mh = SheMinHash.from_memory(128, 2048)
        assert mh.memory_bytes <= 2048

    def test_reset(self, frame):
        mh = SheMinHash(64, 32, frame=frame)
        mh.insert(0, 1)
        mh.insert(1, 2)
        mh.reset()
        assert mh.counts == [0, 0]

    def test_independent_clocks(self, frame):
        mh = SheMinHash(64, 32, frame=frame)
        mh.insert_many(0, np.arange(10, dtype=np.uint64))
        assert mh.counts == [10, 0]


def _oracle_calls(case, tc, rng):
    """``(keys, times)`` insert calls; ``times`` None means insert_many."""
    keys = lambda n: rng.integers(0, 1 << 40, size=n, dtype=np.uint64)  # noqa: E731
    if case == "irregular-chunks":
        # 2500 items exceed SheMinHash's internal chunk of 2048
        return [(keys(n), None) for n in (1, 129, 1, 2500, 7)]
    if case == "sparse-times":
        times = np.cumsum(rng.integers(0, tc, size=900))
        return [(keys(400), times[:400]), (keys(500), times[400:])]
    if case == "sparse-times-wrapping":
        # consecutive items up to 3 Tcycle apart inside one call: some
        # groups flip twice between two items and keep the earlier ones
        return [(keys(300), np.cumsum(rng.integers(0, 3 * tc, size=300)))]
    if case == "chunk-wider-than-tcycle":
        return [(keys(10), None), (keys(5 * tc), None)]
    if case == "two-cycle-gap":
        return [
            (keys(100), None),
            (keys(60), 100 + 2 * tc + np.arange(60)),
            (keys(60), 160 + 4 * tc + 7 + np.arange(60)),
        ]
    raise AssertionError(case)


@pytest.mark.parametrize(
    "case",
    ["irregular-chunks", "sparse-times", "sparse-times-wrapping",
     "chunk-wider-than-tcycle", "two-cycle-gap"],
)
def test_inserts_match_per_item_oracle(frame, case):
    """Every insert call leaves cells, marks and the sweep position
    exactly where Algorithm 1 / the sweep leave them when each item
    MINs every counter, one touch at a time."""
    m = 24
    mh = SheMinHash(40, m, frame=frame, alpha=0.3)
    fast = mh.frames[0]
    naive_cls = NaiveHardwareFrame if frame == "hardware" else NaiveSoftwareFrame
    naive = naive_cls(mh.config, m, empty_value=int(fast.empty_value))
    rng = np.random.default_rng(21)
    for keys, times in _oracle_calls(case, mh.config.t_cycle, rng):
        if times is None:
            times = mh.counts[0] + np.arange(keys.size)
            mh.insert_many(0, keys)
        else:
            mh.insert_at(0, keys, times)
        hashes = mh._column_hashes(keys)
        for i, t in enumerate(times):
            for j in range(m):
                naive.touch(j, int(t), UpdateKind.MIN_HASH, int(hashes[i, j]))
        assert fast.cells.tolist() == naive.cells
        if frame == "hardware":
            assert fast.marks.tolist() == naive.marks
        else:
            assert fast._boundaries_done == naive._boundaries_done
