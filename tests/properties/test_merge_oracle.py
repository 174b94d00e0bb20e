"""``merge_many``'s one-pass read-only fold against the pairwise algorithm.

The reference below is the pairwise merge ``merge_many`` used to be:
deep-copy the first operand, bring all three frames to the common time
with ``prepare_query_all`` (cleaning the operands in place), combine,
and fold that over the operands two at a time.  The fold under test
reads every operand once at the common time and never writes it.

The two agree bit for bit whenever every pairwise step runs at the
same time: an explicit ``t``, or operands whose clocks are aligned (the
engine's fan-in, which advances every shard to the global clock before
it merges).  With drifted clocks and ``t=None`` the pairwise fold ran
its steps at the running maximum clock, so a group read stale at an
intermediate step but wrapped back to its stored mark at the final time
(the two-cycle wrap, Eq. 1's failure mode) came out differently
depending on operand order; the one-pass fold reads every operand at
the one final time and is order-independent.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HYPERLOGLOG_SPEC, GenericSheSketch
from repro.core.merge import merge_many
from repro.core.registry import cell_merge_for, descriptor_of, get_descriptor
from repro.obs.windows import SheWindowedQuantile

WINDOW = 32
KINDS = ("bf", "bm", "hll", "cm", "mh", "wq", "generic")


def _build(kind: str, frame: str):
    if kind == "generic":
        return GenericSheSketch(HYPERLOGLOG_SPEC, WINDOW, 64, frame=frame, seed=5)
    if kind == "wq":
        return SheWindowedQuantile(WINDOW, 64, frame=frame, seed=5)
    size = {"bf": 256, "bm": 128, "hll": 32, "cm": 128, "mh": 32}[kind]
    return get_descriptor(kind).build(WINDOW, size, frame=frame, seed=5)


# -- the pairwise reference (the algorithm merge_many replaced) ---------------


def _frames(sketch, desc):
    return tuple(sketch.frames) if desc.two_stream else (sketch.frame,)


def _clocks(sketch, desc):
    if desc.two_stream:
        return tuple(int(c) for c in sketch.counts)
    return (int(sketch.t),)


def _set_clocks(sketch, desc, times):
    if desc.two_stream:
        sketch.counts = list(times)
    else:
        sketch.t = times[0]


def _combine_of(sketch, desc):
    if desc.cell_merge is not None:
        return desc.cell_merge
    return cell_merge_for(sketch.spec.update)


def _pairwise_merge(a, b, t):
    desc = descriptor_of(a)
    combine = _combine_of(a, desc)
    times = tuple(
        t if t is not None else max(ca, cb)
        for ca, cb in zip(_clocks(a, desc), _clocks(b, desc))
    )
    out = copy.deepcopy(a)
    for fa, fb, fo, tt in zip(
        _frames(a, desc), _frames(b, desc), _frames(out, desc), times
    ):
        fa.prepare_query_all(tt)
        fb.prepare_query_all(tt)
        fo.prepare_query_all(tt)
        fo.cells[:] = combine(fa.cells, fb.cells)
        if hasattr(fo, "marks"):
            fo.marks[:] = fa.marks
    _set_clocks(out, desc, times)
    return out


def _pairwise_merge_many(sketches, t):
    sketches = [copy.deepcopy(s) for s in sketches]  # it cleans operands
    first = sketches[0]
    if len(sketches) == 1:
        desc = descriptor_of(first)
        out = copy.deepcopy(first)
        times = tuple(t if t is not None else c for c in _clocks(first, desc))
        for frame, tt in zip(_frames(out, desc), times):
            frame.prepare_query_all(tt)
        _set_clocks(out, desc, times)
        return out
    out = _pairwise_merge(first, sketches[1], t)
    for s in sketches[2:]:
        out = _pairwise_merge(out, s, t)
    return out


# -- comparison -----------------------------------------------------------------


def _state(sketch):
    desc = descriptor_of(sketch)
    frames = [
        (
            f.cells.copy(),
            getattr(f, "marks", np.empty(0)).copy(),
            getattr(f, "_boundaries_done", None),
            f.cleaning_checks,
            f.groups_cleaned,
            f.cells_cleaned,
        )
        for f in _frames(sketch, desc)
    ]
    return _clocks(sketch, desc), frames


def _assert_same_result(got, want):
    desc = descriptor_of(want)
    assert type(got) is type(want)
    assert _clocks(got, desc) == _clocks(want, desc)
    for fg, fw in zip(_frames(got, desc), _frames(want, desc)):
        assert fg.cells.dtype == fw.cells.dtype
        assert np.array_equal(fg.cells, fw.cells)
        if hasattr(fw, "marks"):
            assert np.array_equal(fg.marks, fw.marks)
        else:
            assert fg._boundaries_done == fw._boundaries_done


def _assert_same_state(a, b):
    clocks_a, frames_a = a
    clocks_b, frames_b = b
    assert clocks_a == clocks_b
    for fa, fb in zip(frames_a, frames_b):
        assert np.array_equal(fa[0], fb[0]), "cells written"
        assert np.array_equal(fa[1], fb[1]), "marks written"
        assert fa[2:] == fb[2:], "sweep position or counters written"


def _insert(sketch, kind, keys, times, side):
    if kind == "mh":
        sketch.insert_at(side, keys, times)
    else:
        sketch.insert_at(keys, times)


def _operands(kind, frame, n, seed, aligned):
    """``n`` shard-shaped operands: disjoint substreams of one stream,
    inserted at their union-stream times, with gaps long enough to
    leave groups stale and to wrap marks."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 12 * WINDOW))
    keys = rng.integers(0, 300, size=size, dtype=np.uint64)
    if kind == "wq":
        keys = rng.integers(0, 5000, size=size, dtype=np.uint64)
    times = np.cumsum(rng.integers(0, 5, size=size)).astype(np.int64)
    owner = rng.integers(0, n, size=size)
    sides = rng.integers(0, 2, size=size)
    out = []
    for i in range(n):
        s = _build(kind, frame)
        for side in (0, 1) if kind == "mh" else (0,):
            mask = (owner == i) & (sides == side if kind == "mh" else True)
            _insert(s, kind, keys[mask], times[mask], side)
        out.append(s)
    end = int(times[-1]) + 1 + int(rng.integers(0, 3 * WINDOW))
    for s in out:
        target = end if aligned else end - int(rng.integers(0, 2 * WINDOW))
        s.advance_to(max(target, *(s.counts if kind == "mh" else [s.t])))
    return out, end


@given(
    kind=st.sampled_from(KINDS),
    frame=st.sampled_from(("hardware", "software")),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    explicit_t=st.booleans(),
    t_shift=st.integers(-WINDOW, 3 * WINDOW),
)
@settings(max_examples=300, deadline=None)
def test_fold_is_bit_identical_to_pairwise(kind, frame, n, seed, explicit_t, t_shift):
    # an explicit t may sit before some operand's clock and still be
    # honoured; drifted clocks are fine then, every step runs at t
    ops, end = _operands(kind, frame, n, seed, aligned=not explicit_t)
    t = max(end + t_shift, 0) if explicit_t else None
    before = [_state(s) for s in ops]
    got = merge_many(ops, t=t)
    for s, b in zip(ops, before):
        _assert_same_state(_state(s), b)
    _assert_same_result(got, _pairwise_merge_many(ops, t))
    # the output owns its arrays: a later operand insert cannot leak in
    desc = descriptor_of(got)
    for fg in _frames(got, desc):
        for s in ops:
            for fs in _frames(s, desc):
                assert not np.shares_memory(fg.cells, fs.cells)
                if hasattr(fs, "marks"):
                    assert not np.shares_memory(fg.marks, fs.marks)


@given(
    kind=st.sampled_from(KINDS),
    frame=st.sampled_from(("hardware", "software")),
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    perm_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_fold_is_order_independent_with_drifted_clocks(kind, frame, n, seed, perm_seed):
    """With drifted clocks and ``t=None`` every operand is read at the one
    common time, whatever the order the operands come in."""
    ops, _ = _operands(kind, frame, n, seed, aligned=False)
    order = np.random.default_rng(perm_seed).permutation(n)
    a = merge_many(ops)
    b = merge_many([ops[i] for i in order])
    desc = descriptor_of(a)
    assert _clocks(a, desc) == _clocks(b, desc)
    for fa, fb in zip(_frames(a, desc), _frames(b, desc)):
        assert np.array_equal(fa.cells, fb.cells)
