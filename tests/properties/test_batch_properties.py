"""Property-based tests: batch cleaning semantics vs Algorithm 1.

Hypothesis drives random touch sequences through the vectorised apply
kernel (``apply_columnar``) and the literal per-item reference; they
must agree bit for bit on cells (and marks for the hardware frame)
under every update kind, window, alpha, group width, touch pattern and
layout (one time per touch, or one per item with ``k`` touches, either
item-major or as a touch-major ``(k, B)`` block), on pieces both below
and at or above ``M`` touches (the kernel's scattered and counted
paths) and on cells narrow enough to wrap.  On the hardware frame the
cleaning telemetry must match too: one ``CheckGroup`` pass per kernel
piece, and the groups the reference resets inside a piece counted once.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import make_frame
from repro.core.batch import _tcycle_pieces, apply_columnar
from repro.core.config import SheConfig
from repro.core.csm import UpdateKind

from helpers import NaiveHardwareFrame, NaiveSoftwareFrame

KINDS = st.sampled_from(list(UpdateKind))


@st.composite
def touch_sequences(draw):
    window = draw(st.integers(5, 60))
    alpha = draw(st.floats(0.1, 3.0))
    w = draw(st.sampled_from([1, 2, 3, 4, 5, 8]))
    n = draw(st.integers(1, 120))
    # few groups: most hardware pieces have at least M touches (the
    # counted path); more: most have fewer (the scattered path), with
    # many touches per group, about one (T ~ G) or very few (T << G)
    groups = draw(st.one_of(
        st.integers(1, 6),
        st.integers(20, 90),
        st.integers(max(1, n // 2), 2 * n),
        st.integers(500, 5000),
    ))
    m = w * groups
    cfg = SheConfig(window=window, alpha=alpha, group_width=w)
    # up to ~200 Tcycles: batches the kernel splits into many pieces,
    # with gaps long enough for a group's mark to wrap (Eq. 1)
    span = draw(st.one_of(
        st.integers(1, 5 * cfg.t_cycle),
        st.integers(1, 200 * cfg.t_cycle),
    ))
    times = sorted(draw(st.lists(st.integers(0, span), min_size=n, max_size=n)))
    cells = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    values = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    return cfg, m, times, cells, values


def _naive_pieces(naive, times, cells, values, kind, k, t_cycle):
    """Feed the per-item reference one kernel piece at a time and return
    the cleaning telemetry the kernel must report: one ``CheckGroup``
    pass per piece, and each group reset in a piece counted once."""
    checks = groups = 0
    for lo, hi in _tcycle_pieces(np.asarray(times, dtype=np.int64), t_cycle):
        start = len(naive.reset_log)
        for i in range(lo * k, hi * k):
            naive.touch(cells[i], times[i // k], kind, values[i])
        checks += 1
        groups += len(set(naive.reset_log[start:]))
    return checks, groups, groups * naive.w


def _telemetry(frame):
    return frame.cleaning_checks, frame.groups_cleaned, frame.cells_cleaned


@given(touch_sequences(), KINDS)
@settings(max_examples=120, deadline=None)
def test_hardware_batch_equals_algorithm1(seq, kind):
    cfg, m, times, cells, values = seq
    empty = 999 if kind is UpdateKind.MIN_HASH else 0
    fast = make_frame("hardware", cfg, m, dtype=np.int64, empty_value=empty, cell_bits=8)
    naive = NaiveHardwareFrame(cfg, m, empty_value=empty)

    t_arr = np.asarray(times, dtype=np.int64)
    c_arr = np.asarray(cells, dtype=np.int64)
    v_arr = np.asarray(values, dtype=np.int64)
    apply_columnar(fast, t_arr, c_arr, v_arr, kind)
    want = _naive_pieces(naive, times, cells, values, kind, 1, cfg.t_cycle)

    assert fast.cells.tolist() == naive.cells
    assert fast.marks.tolist() == naive.marks
    assert _telemetry(fast) == want


@given(touch_sequences(), KINDS)
@settings(max_examples=120, deadline=None)
def test_software_batch_equals_sweep(seq, kind):
    cfg, m, times, cells, values = seq
    empty = 999 if kind is UpdateKind.MIN_HASH else 0
    fast = make_frame("software", cfg, m, dtype=np.int64, empty_value=empty, cell_bits=8)
    naive = NaiveSoftwareFrame(cfg, m, empty_value=empty)

    apply_columnar(
        fast,
        np.asarray(times, dtype=np.int64),
        np.asarray(cells, dtype=np.int64),
        np.asarray(values, dtype=np.int64),
        kind,
    )
    for t, c, v in zip(times, cells, values):
        naive.touch(c, t, kind, v)
    naive.advance(times[-1])

    assert fast.cells.tolist() == naive.cells


@st.composite
def item_major_sequences(draw):
    cfg, m, times, cells, values = draw(touch_sequences())
    # k >= 2 is the kernel's per-item parity path (k == 1 is per touch)
    k = draw(st.integers(2, 8))
    # far from t = 0, marks start mid-history; centring the batch on a
    # cycle boundary makes pieces straddle two values of t // Tcycle
    tc = cfg.t_cycle
    base = draw(st.integers(0, 1 << 40))
    if draw(st.booleans()):
        pivot = draw(st.sampled_from(times))
        base = (base // tc + 201) * tc - pivot + draw(st.integers(0, 1))
    extra = draw(st.lists(
        st.integers(0, m - 1), min_size=len(cells) * (k - 1),
        max_size=len(cells) * (k - 1),
    ))
    # item-major: item i touches cells[i*k : (i+1)*k] at times[i]
    cells = [c for i, c0 in enumerate(cells)
             for c in [c0] + extra[i * (k - 1):(i + 1) * (k - 1)]]
    values = [v for v in values for _ in range(k)]
    return cfg, m, k, base, times, cells, values


@given(
    item_major_sequences(),
    KINDS,
    st.sampled_from(["hardware", "software"]),
    st.sampled_from(["item-major", "touch-major"]),
    st.sampled_from([np.int64, np.uint8]),
)
@settings(max_examples=200, deadline=None)
def test_item_major_batch_equals_reference(seq, kind, frame_kind, layout, dtype):
    cfg, m, k, base, times, cells, values = seq
    # uint8 cells: ADD_ONE counts wrap modulo 256 (compared as such)
    modulus = 256 if dtype is np.uint8 else None
    empty = (255 if modulus else 999) if kind is UpdateKind.MIN_HASH else 0
    fast = make_frame(frame_kind, cfg, m, dtype=dtype, empty_value=empty, cell_bits=8)
    naive_cls = NaiveHardwareFrame if frame_kind == "hardware" else NaiveSoftwareFrame
    naive = naive_cls(cfg, m, empty_value=empty)
    if frame_kind == "hardware":
        # the reference sweep crosses every boundary since t = 0 one at
        # a time, so only the hardware frame starts far from it
        times = [base + t for t in times]

    c_arr = np.asarray(cells, dtype=np.int64)
    v_arr = np.asarray(values, dtype=np.int64)
    if layout == "touch-major":
        # row j holds every item's j-th touch
        c_arr = c_arr.reshape(-1, k).T.copy()
        v_arr = v_arr.reshape(-1, k).T.copy()
    apply_columnar(fast, np.asarray(times, dtype=np.int64), c_arr, v_arr, kind)
    if frame_kind == "software":
        touch_times = [t for t in times for _ in range(k)]
        for t, c, v in zip(touch_times, cells, values):
            naive.touch(c, t, kind, v)
        naive.advance(times[-1])
    else:
        want = _naive_pieces(naive, times, cells, values, kind, k, cfg.t_cycle)
        assert fast.marks.tolist() == naive.marks
        assert _telemetry(fast) == want

    want = naive.cells if modulus is None else [c % modulus for c in naive.cells]
    assert fast.cells.tolist() == want


@given(touch_sequences())
@settings(max_examples=60, deadline=None)
def test_hardware_ages_bounded(seq):
    cfg, m, times, cells, _ = seq
    f = make_frame("hardware", cfg, m, dtype=np.int64, empty_value=0, cell_bits=8)
    t = times[-1]
    ages = f.all_cell_ages(t)
    assert ages.min() >= 0
    assert ages.max() < cfg.t_cycle


@given(touch_sequences())
@settings(max_examples=60, deadline=None)
def test_mature_implies_legal_everywhere(seq):
    cfg, m, times, _, _ = seq
    for kind in ("hardware", "software"):
        f = make_frame(kind, cfg, m, dtype=np.int64, empty_value=0, cell_bits=8)
        t = times[-1]
        idx = np.arange(m)
        mature = f.mature_mask(idx, t)
        legal = f.legal_mask(idx, t)
        assert np.all(~mature | legal)
