"""Property-based test: a stacked round equals per-shard application.

A worker's flush round either goes through one stacked kernel call over
its shards' base (``ShardStack.apply``) or applies batch by batch; the
executors' one routine (``_apply_round``) picks by input size.  Whatever
it picks, every shard must end bit for bit where ``insert_at`` on its
own batch leaves an independent copy: cells, marks, clock and the three
cleaning counters.  Hypothesis draws the kind (SHE-BF, SHE-CM, SHE-BM,
SHE-HLL and the ``wq`` windowed quantile, which stacks like SHE-BM),
the geometry, random shard subsets per round, empty batches, tied times
and gaps, so rounds land on both sides of the ``Tcycle`` and
counted-path selection; a fixed-seed sweep asserts that every route is
really reached.
"""

import copy
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SheBitmap, SheBloomFilter, SheCountMin, SheHyperLogLog
from repro.core.stack import stack_shards, stacked_clones
from repro.obs.windows import SheWindowedQuantile
from repro.service.executor import _apply_round

KIND_NAMES = ["bf", "cm", "bm", "hll", "wq"]


def build(kind: str, window: int, width: int, groups: int, k: int):
    if kind == "bf":
        return SheBloomFilter(window, width * groups, num_hashes=k, group_width=width, seed=3)
    if kind == "cm":
        return SheCountMin(window, width * groups, num_hashes=k, group_width=width, seed=4)
    if kind == "bm":
        return SheBitmap(window, width * groups, group_width=width, seed=2)
    if kind == "hll":
        return SheHyperLogLog(window, groups, seed=5)
    # keys are measurements, bucketed by their log: gamma 0.5 spreads
    # the draws' keys over ~25 buckets
    return SheWindowedQuantile(window, width * groups, group_width=width, gamma=0.5)


def state(sketch) -> tuple:
    f = sketch.frame
    return (
        f.cells.tobytes(), f.marks.tobytes(), sketch.t,
        f.cleaning_checks, f.groups_cleaned, f.cells_cleaned,
    )


def random_round(rng, clocks: list[int], shards: int, scale: int):
    """One round over a random subset of shards: a non-decreasing run of
    union times from the latest clock (gaps up to ``scale // 4 + 1``,
    or on a dense round up to 1; ties allowed), each time dealt to a
    shard of the subset; a chosen shard may get no item (an empty
    batch)."""
    subset = sorted(rng.choice(shards, size=int(rng.integers(1, shards + 1)), replace=False))
    n = int(rng.integers(0, 4 * scale))
    start = max(clocks)
    gap = 2 if rng.random() < 0.3 else scale // 4 + 2
    times = start + np.cumsum(rng.integers(0, gap, size=n))
    owner = rng.choice(subset, size=n)
    keys = rng.integers(0, 1 << 40, size=n, dtype=np.uint64)
    return [
        (int(s), keys[owner == s], times[owner == s].astype(np.int64), None)
        for s in subset
    ]


def route(stack, batches) -> str:
    """Which side of the selection a round falls on, and why."""
    if stack.prepare(batches) is not None:
        return "stacked"
    times = np.concatenate([b[2] for b in batches])
    if times.size and times.max() - times.min() >= stack.frame.t_cycle:
        return "wide"  # spans a Tcycle
    if sum(b[1].size for b in batches) * stack.touches >= stack.block_cells:
        return "counted"  # M touches or more, as one shard's counted path
    return "other"  # fewer than two batches


def run(kind, window, width, groups, k, shards, rounds, seed):
    """``(stacked, reference, routes)`` after ``rounds`` rounds through
    the routine and through ``insert_at``; ``routes`` counts the rounds
    per :func:`route`."""
    proto = build(kind, window, width, groups, k)
    reference = [proto.clone_empty() for _ in range(shards)]
    stacked = stacked_clones(proto, shards)
    stack = stack_shards(dict(enumerate(stacked)))
    assert stack is not None
    rng = np.random.default_rng(seed)
    scale = max(4, proto.config.t_cycle // 4)
    routes = Counter()
    for _ in range(rounds):
        batches = random_round(rng, [sk.t for sk in stacked], shards, scale)
        routes[route(stack, batches)] += 1
        _apply_round(stacked, stack, batches)
        for s, keys, times, _side in batches:
            reference[s].insert_at(keys, times)
    return stacked, reference, routes


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KIND_NAMES),
    window=st.integers(4, 48),
    width=st.sampled_from([1, 2, 3, 4, 8]),
    groups=st.integers(1, 40),
    k=st.integers(1, 4),
    shards=st.integers(2, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_stacked_round_equals_per_shard_application(kind, window, width, groups, k, shards, seed):
    stacked, reference, _routes = run(kind, window, width, groups, k, shards, 12, seed)
    for s, (a, b) in enumerate(zip(stacked, reference)):
        assert state(a) == state(b), f"shard {s} diverged"


def test_rounds_fall_on_both_sides_of_the_selection():
    """The draws above reach every route: over these fixed seeds every
    kind has rounds that stack, rounds that span a ``Tcycle`` and
    rounds of counted size, and each ends bit-identical."""
    for kind in KIND_NAMES:
        routes = Counter()
        for seed in range(6):
            stacked, reference, r = run(kind, 48, 4, 6, 3, 4, 20, seed)
            routes += r
            assert [state(a) for a in stacked] == [state(b) for b in reference]
        assert routes["stacked"] and routes["wide"] and routes["counted"], (kind, routes)


def test_point_reads_equal_per_shard_reads():
    """One stacked read answers every shard as its own point method."""
    rng = np.random.default_rng(7)
    for proto in (SheBloomFilter(64, 1024, num_hashes=4, group_width=16),
                  SheCountMin(64, 512, num_hashes=3, group_width=8)):
        shards = stacked_clones(proto, 5)
        stack = stack_shards(dict(enumerate(shards)))
        for r in range(30):
            batches = random_round(rng, [sk.t for sk in shards], 5, 40)
            _apply_round(shards, stack, batches)
            t = max(sk.t for sk in shards) + int(rng.integers(0, 50))
            keys = {s: rng.integers(0, 1 << 40, size=int(rng.integers(0, 30)), dtype=np.uint64)
                    for s in sorted(rng.choice(5, size=3, replace=False))}
            op = "contains_many" if isinstance(proto, SheBloomFilter) else "frequency_many"
            assert stack.reads(op, keys)
            got = stack.read_point(keys, t)
            for s, k in keys.items():
                want = getattr(copy.deepcopy(shards[s]), op)(k, t)
                assert got[s].dtype == want.dtype
                assert np.array_equal(got[s], want)


def test_shards_from_elsewhere_are_copied_into_a_fresh_base():
    """Shards that arrive pickled (a spawn-started worker, a restart, a
    recovery) own their arrays: stacking copies them into one fresh
    base with their state intact; shards whose layouts or seeds differ
    do not stack."""
    import pickle

    shards = stacked_clones(SheCountMin(64, 256, num_hashes=3, group_width=8, seed=4), 4)
    stack = stack_shards(dict(enumerate(shards)))
    rng = np.random.default_rng(3)
    for _ in range(5):
        _apply_round(shards, stack, random_round(rng, [sk.t for sk in shards], 4, 40))
    arrived = pickle.loads(pickle.dumps({s: shards[s] for s in (3, 1)}))
    before = {s: state(sk) for s, sk in arrived.items()}
    restacked = stack_shards(arrived)
    assert restacked is not None and restacked.rows == {3: 0, 1: 1}
    base = arrived[3].frame.cells.base
    assert base is not None and arrived[1].frame.cells.base is base
    assert not np.shares_memory(base, shards[0].frame.cells.base)
    assert {s: state(sk) for s, sk in arrived.items()} == before
    other = SheCountMin(64, 256, num_hashes=3, group_width=8, seed=5)
    assert stack_shards({0: copy.deepcopy(shards[0]), 1: other}) is None
