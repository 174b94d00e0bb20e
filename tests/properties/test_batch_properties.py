"""Property-based tests: batch cleaning semantics vs Algorithm 1.

Hypothesis drives random touch sequences through the vectorised apply
kernel (``apply_columnar``) and the literal per-item reference; they
must agree bit for bit on cells (and marks for the hardware frame)
under every update kind, window, alpha, group width, touch pattern and
time layout (one time per touch, or one per item with ``k`` touches).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import make_frame
from repro.core.batch import apply_columnar
from repro.core.config import SheConfig
from repro.core.csm import UpdateKind

from helpers import NaiveHardwareFrame, NaiveSoftwareFrame

KINDS = st.sampled_from(list(UpdateKind))


@st.composite
def touch_sequences(draw):
    window = draw(st.integers(5, 60))
    alpha = draw(st.floats(0.1, 3.0))
    w = draw(st.sampled_from([1, 2, 3, 4, 5, 8]))
    groups = draw(st.integers(1, 6))
    m = w * groups
    cfg = SheConfig(window=window, alpha=alpha, group_width=w)
    n = draw(st.integers(1, 120))
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
    for t, c, v in zip(times, cells, values):
        naive.touch(c, t, kind, v)

    assert fast.cells.tolist() == naive.cells
    assert fast.marks.tolist() == naive.marks


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
    k = draw(st.integers(1, 4))
    extra = draw(st.lists(
        st.integers(0, m - 1), min_size=len(cells) * (k - 1),
        max_size=len(cells) * (k - 1),
    ))
    # item-major: item i touches cells[i*k : (i+1)*k] at times[i]
    cells = [c for i, c0 in enumerate(cells)
             for c in [c0] + extra[i * (k - 1):(i + 1) * (k - 1)]]
    values = [v for v in values for _ in range(k)]
    return cfg, m, k, times, cells, values


@given(item_major_sequences(), KINDS, st.sampled_from(["hardware", "software"]))
@settings(max_examples=120, deadline=None)
def test_item_major_batch_equals_reference(seq, kind, frame_kind):
    cfg, m, k, times, cells, values = seq
    empty = 999 if kind is UpdateKind.MIN_HASH else 0
    fast = make_frame(frame_kind, cfg, m, dtype=np.int64, empty_value=empty, cell_bits=8)
    naive_cls = NaiveHardwareFrame if frame_kind == "hardware" else NaiveSoftwareFrame
    naive = naive_cls(cfg, m, empty_value=empty)

    apply_columnar(
        fast,
        np.asarray(times, dtype=np.int64),
        np.asarray(cells, dtype=np.int64),
        np.asarray(values, dtype=np.int64),
        kind,
    )
    touch_times = [t for t in times for _ in range(k)]
    for t, c, v in zip(touch_times, cells, values):
        naive.touch(c, t, kind, v)
    if frame_kind == "software":
        naive.advance(times[-1])
    else:
        assert fast.marks.tolist() == naive.marks

    assert fast.cells.tolist() == naive.cells


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
