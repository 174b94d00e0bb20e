"""Direct whole-array queries run ``CheckGroup`` over every group (§3.3).

Paper §3.3 checks a group "on insert/query".  A whole-array query on a
sketch (``cardinality``, ``similarity``, ``quantile``/``sample_count``,
and the custom kind of ``examples/custom_algorithm.py``) cleans every
frame in place at the query time, so afterwards each frame holds exactly
what ``read_all(t)`` returned before the query and every mark is
current.  That write is what keeps a regularly queried sketch clear of
the Eq. 1 wrap: a group no insert touches for two flips is still reset
by the query in between.  Engine queries do not write shards: they query
``merge_many``'s fresh output.
"""

import copy
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core import SheBitmap, SheHyperLogLog, SheMinHash
from repro.core.registry import unregister_algorithm
from repro.obs.windows import SheWindowedQuantile

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "custom_algorithm.py"

WINDOW = 256


@pytest.fixture
def example_kind():
    """``TwoProbeBitmap`` from ``examples/custom_algorithm.py`` (loading
    the example registers its kind, so unregister it afterwards)."""
    spec = importlib.util.spec_from_file_location("custom_algorithm_example", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module.TwoProbeBitmap
    unregister_algorithm("two-probe-bm")


#: query name -> (build(frame, example_cls), query(sketch, t))
QUERIES = {
    "bm.cardinality": (
        lambda frame, _: SheBitmap(WINDOW, 1024, group_width=8, frame=frame, seed=3),
        lambda sk, t: sk.cardinality(t),
    ),
    "hll.cardinality": (
        lambda frame, _: SheHyperLogLog(WINDOW, 128, frame=frame, seed=3),
        lambda sk, t: sk.cardinality(t),
    ),
    "mh.similarity": (
        lambda frame, _: SheMinHash(WINDOW, 64, frame=frame, seed=3),
        lambda sk, t: sk.similarity(t),
    ),
    "wq.quantile": (
        lambda frame, _: SheWindowedQuantile(WINDOW, 64, group_width=4, frame=frame, seed=3),
        lambda sk, t: sk.quantile(0.5, t),
    ),
    "wq.sample_count": (
        lambda frame, _: SheWindowedQuantile(WINDOW, 64, group_width=4, frame=frame, seed=3),
        lambda sk, t: sk.sample_count(t),
    ),
    "example.cardinality": (
        lambda frame, cls: cls(WINDOW, 512, frame=frame, seed=3),
        lambda sk, t: sk.cardinality(t),
    ),
}


def _frames(sketch):
    return sketch.frames if getattr(sketch, "two_stream", False) else (sketch.frame,)


def _feed(sketch, keys, times):
    if getattr(sketch, "two_stream", False):
        sketch.insert_at(0, keys, times)
        sketch.insert_at(1, keys[::2], times[::2])
    else:
        sketch.insert_at(keys, times)


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("frame", ["hardware", "software"])
def test_direct_query_cleans_every_group(query, frame, example_kind):
    build, ask = QUERIES[query]
    sketch = build(frame, example_kind)
    tc = sketch.config.t_cycle
    rng = np.random.default_rng(17)
    t = 0
    for rnd in range(6):
        # sparse times and idle gaps: stale groups, and marks that wrap
        n = int(rng.integers(50, 400))
        times = t + np.cumsum(rng.integers(0, 4, size=n)).astype(np.int64)
        _feed(sketch, rng.integers(1, 5000, size=n, dtype=np.uint64), times)
        t = int(times[-1]) + 1 + int(rng.integers(0, 2 * tc))
        for tq in (t, t + tc // 2, t + tc, t + 2 * tc):
            want = [f.read_all(tq) for f in _frames(sketch)]
            ask(sketch, tq)
            for f, cells in zip(_frames(sketch), want):
                assert np.array_equal(f.cells, cells), (rnd, tq)
                if frame == "hardware":
                    assert np.array_equal(f.marks, f._current_marks_all(tq))
                else:
                    assert f._boundaries_done >= f._boundaries_at(tq)


def test_query_between_flips_prevents_the_wrap():
    """A group last touched at t=0 and read again two flips later: with
    a query in between, the query resets the group and the later insert
    starts from empty; without it, the mark wraps back and the insert
    keeps the stale bit (the Eq. 1 failure mode)."""
    bm = SheBitmap(WINDOW, 64, group_width=64, seed=3)  # one group, offset 0
    tc = bm.config.t_cycle
    bits = bm.hashes.indices(np.arange(1, 64, dtype=np.uint64), 64)[:, 0]
    k1, k2 = 1, 1 + int(np.flatnonzero(bits != bits[0])[0])
    bm.insert_at(np.asarray([k1], dtype=np.uint64), np.asarray([0]))
    unqueried = copy.deepcopy(bm)
    bm.cardinality(tc)  # one flip in: the query resets the group
    for sk in (bm, unqueried):
        sk.insert_at(np.asarray([k2], dtype=np.uint64), np.asarray([2 * tc]))
    assert np.count_nonzero(bm.frame.cells) == 1
    assert np.count_nonzero(unqueried.frame.cells) == 2
