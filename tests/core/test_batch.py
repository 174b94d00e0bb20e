"""Equivalence tests: the vectorised apply kernel vs the literal Algorithm 1.

These are the keystone correctness tests of the repository — every SHE
sketch funnels its insertions through ``apply_columnar``, so it must
match the naive per-item references in ``helpers.py`` bit for bit on
every update kind, both frames, touch-major ``(k, B)`` blocks of one
touch per time or ``k`` touches per item (the item-major cases go
through ``helpers.touch_major``) and both of the hardware kernel's paths:
ADD_ONE / SET_ONE pieces with at least ``M`` touches are counted, the
rest are scattered.  A hardware batch spanning ``Tcycle`` or more is
cut into pieces narrower than ``Tcycle`` before the kernel sees it; the
"general" batches below are such inputs.
"""

import numpy as np
import pytest

import repro.core.batch as batch
from repro.core.base import make_frame
from repro.core.batch import apply_columnar
from repro.core.config import SheConfig
from repro.core.csm import UpdateKind

from helpers import NaiveHardwareFrame, NaiveSoftwareFrame, touch_major


def random_touches(rng, n, m, t_span, kind):
    times = np.sort(rng.integers(0, t_span, size=n)).astype(np.int64)
    cells = rng.integers(0, m, size=n).astype(np.int64)
    if kind in (UpdateKind.MAX_RANK, UpdateKind.MIN_HASH):
        values = rng.integers(1, 30, size=n).astype(np.int64)
    else:
        values = None
    return times, cells, values


KINDS = [UpdateKind.SET_ONE, UpdateKind.ADD_ONE, UpdateKind.MAX_RANK, UpdateKind.MIN_HASH]


def _frames(frame_kind, cfg, m, kind, dtype=np.int64):
    empty = 255 if kind is UpdateKind.MIN_HASH else 0
    fast = make_frame(frame_kind, cfg, m, dtype=dtype, empty_value=empty, cell_bits=8)
    naive_cls = NaiveHardwareFrame if frame_kind == "hardware" else NaiveSoftwareFrame
    return fast, naive_cls(cfg, m, empty_value=empty)


def _naive_apply(naive, touch_times, cells, values, kind):
    for i in range(cells.size):
        naive.touch(
            int(cells[i]), int(touch_times[i]), kind,
            None if values is None else int(values[i]),
        )
    if isinstance(naive, NaiveSoftwareFrame):
        naive.advance(int(touch_times[-1]))


def _assert_same(fast, naive, modulus=None):
    want = naive.cells if modulus is None else [c % modulus for c in naive.cells]
    assert fast.cells.tolist() == want
    if isinstance(naive, NaiveHardwareFrame):
        assert fast.marks.tolist() == naive.marks


@pytest.fixture
def paths(monkeypatch):
    """Names of the hardware kernel paths each piece took, in order."""
    seen = []
    for name in ("_apply_counted", "_apply_scattered"):
        real = getattr(batch, name)

        def spy(*args, _real=real, _name=name):
            seen.append(_name[len("_apply_"):])
            _real(*args)

        monkeypatch.setattr(batch, name, spy)
    return seen


def _hardware_branch(frame, touch_times, cells):
    """Which kind of hardware batch this is.

    Recomputed from Algorithm 1's parity definition, independent of the
    kernel: ``"no-flip"`` when no group changes parity inside the batch,
    ``"single-flip"`` when some do but the batch spans < Tcycle (the
    kernel's two branches), ``"general"`` otherwise — a batch that
    ``apply_columnar`` splits into pieces spanning < Tcycle each.
    """
    gids = cells // frame.group_width
    phase = (frame.t_cycle * gids) // frame.num_groups  # -d_gid
    parity = ((touch_times - phase) // frame.t_cycle) % 2
    flips = any(
        np.unique(parity[gids == g]).size > 1 for g in np.unique(gids)
    )
    if not flips:
        return "no-flip"
    if int(touch_times[-1]) - int(touch_times[0]) < frame.t_cycle:
        return "single-flip"
    return "general"


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hardware_batch_matches_naive(kind, seed):
    rng = np.random.default_rng(seed)
    cfg = SheConfig(window=40, alpha=0.3, group_width=4)
    fast, naive = _frames("hardware", cfg, 16, kind)
    times, cells, values = random_touches(rng, 400, 16, 6 * cfg.t_cycle, kind)
    apply_columnar(fast, times, *touch_major(times, cells, values), kind)
    _naive_apply(naive, times, cells, values, kind)
    _assert_same(fast, naive)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_software_batch_matches_naive(kind, seed):
    rng = np.random.default_rng(seed + 100)
    cfg = SheConfig(window=40, alpha=0.3)
    fast, naive = _frames("software", cfg, 16, kind)
    times, cells, values = random_touches(rng, 400, 16, 6 * cfg.t_cycle, kind)
    apply_columnar(fast, times, *touch_major(times, cells, values), kind)
    _naive_apply(naive, times, cells, values, kind)
    _assert_same(fast, naive)


def _check_per_item_layout(frame_kind, kind, k, layout, m):
    """One time per item and ``k`` touches per item, item-major
    (through ``touch_major``) or as a contiguous touch-major ``(k, B)``
    block, against the per-item oracle."""
    rng = np.random.default_rng(10 * k)
    cfg = SheConfig(window=40, alpha=0.3, group_width=4)
    fast, naive = _frames(frame_kind, cfg, m, kind)
    n = 150
    times = np.sort(rng.integers(0, 5 * cfg.t_cycle, size=n)).astype(np.int64)
    cells = rng.integers(0, m, size=n * k).astype(np.int64)
    values = (
        rng.integers(1, 30, size=n * k).astype(np.int64)
        if kind in (UpdateKind.MAX_RANK, UpdateKind.MIN_HASH)
        else None
    )
    if layout == "item-major":
        apply_columnar(fast, times, *touch_major(times, cells, values), kind)
    else:
        apply_columnar(
            fast, times, cells.reshape(n, k).T.copy(),
            None if values is None else values.reshape(n, k).T.copy(), kind,
        )
    _naive_apply(naive, np.repeat(times, k), cells, values, kind)
    _assert_same(fast, naive)


@pytest.mark.parametrize("frame_kind", ["hardware", "software"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [2, 3, 8])
def test_item_major_times_match_naive(frame_kind, kind, k):
    """One time per item, ``k`` touches per item laid out item-major."""
    _check_per_item_layout(frame_kind, kind, k, "item-major", 32)


@pytest.mark.parametrize("frame_kind", ["hardware", "software"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize(
    "layout,m",
    [("touch-major", 32), ("touch-major", 2048), ("item-major", 2048)],
)
def test_per_item_layouts_on_both_paths(frame_kind, kind, k, layout, m):
    """Touch-major ``(k, B)`` blocks as well as item-major touches;
    with ``m = 2048`` hardware pieces stay below ``M`` touches, so
    ADD_ONE/SET_ONE take the scattered path, with ``m = 32`` the
    counted one."""
    _check_per_item_layout(frame_kind, kind, k, layout, m)


def _branch_batch(branch, cfg, m):
    """A hand-built batch of the named ``_hardware_branch`` kind."""
    rng = np.random.default_rng(5)
    tc = cfg.t_cycle
    if branch == "no-flip":
        # every touch in group 0 (offset 0), inside one parity phase
        # of the second cycle: the mark check alone cleans the group
        times = np.sort(rng.integers(tc + 1, 2 * tc - 1, size=60))
        cells = rng.integers(0, cfg.group_width, size=60)
    elif branch == "single-flip":
        # straddle group 0's boundary at 2*tc with a span < tc; other
        # groups see touches on one side only
        times = np.sort(rng.integers(2 * tc - tc // 3, 2 * tc + tc // 3, size=200))
        cells = rng.integers(0, m, size=200)
    else:
        times = np.sort(rng.integers(0, 4 * tc, size=300))
        cells = rng.integers(0, m, size=300)
    return times.astype(np.int64), cells.astype(np.int64)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("branch", ["no-flip", "single-flip", "general"])
def test_each_hardware_branch_matches_naive(branch, kind):
    cfg = SheConfig(window=48, alpha=1 / 3, group_width=4)  # Tcycle 64
    m = 32
    fast, naive = _frames("hardware", cfg, m, kind)
    # warm both frames so the batch meets non-empty cells and marks
    warm_t, warm_c, warm_v = random_touches(
        np.random.default_rng(1), 80, m, cfg.t_cycle // 2, kind
    )
    apply_columnar(fast, warm_t, *touch_major(warm_t, warm_c, warm_v), kind)
    _naive_apply(naive, warm_t, warm_c, warm_v, kind)

    times, cells = _branch_batch(branch, cfg, m)
    assert _hardware_branch(fast, times, cells) == branch
    values = (
        np.random.default_rng(2).integers(1, 30, size=cells.size)
        if kind in (UpdateKind.MAX_RANK, UpdateKind.MIN_HASH)
        else None
    )
    apply_columnar(fast, times, *touch_major(times, cells, values), kind)
    _naive_apply(naive, times, cells, values, kind)
    _assert_same(fast, naive)


def test_single_flip_add_one_undoes_discarded_prefix(paths):
    """ADD_ONE on the scattered single-flip branch scatters every
    touch, then ``np.subtract.at`` removes the touches a mid-batch
    reset discarded (8 touches, fewer than M = 16 cells)."""
    cfg = SheConfig(window=48, alpha=1 / 3, group_width=4)  # Tcycle 64
    tc = cfg.t_cycle
    fast, naive = _frames("hardware", cfg, 16, UpdateKind.ADD_ONE)
    # group 0 flips at tc: 5 touches before the flip, 3 after
    times = np.asarray([tc - 2] * 5 + [tc] * 3, dtype=np.int64)
    cells = np.asarray([1, 1, 2, 1, 3, 1, 2, 1], dtype=np.int64)
    assert _hardware_branch(fast, times, cells) == "single-flip"
    apply_columnar(fast, times, *touch_major(times, cells), UpdateKind.ADD_ONE)
    _naive_apply(naive, times, cells, None, UpdateKind.ADD_ONE)
    _assert_same(fast, naive)
    assert fast.cells[:4].tolist() == [0, 2, 1, 0]
    assert paths == ["scattered"]


@pytest.mark.parametrize("kind", [UpdateKind.ADD_ONE, UpdateKind.SET_ONE])
@pytest.mark.parametrize("branch", ["no-flip", "single-flip"])
@pytest.mark.parametrize("layout", ["item-major", "touch-major"])
def test_counted_piece_matches_naive(paths, kind, branch, layout):
    """A piece with at least M touches is counted by (parity, cell):
    each group keeps its late row if touched after its flip, else its
    early row, on warm frames with touches on both sides of the flip."""
    cfg = SheConfig(window=48, alpha=1 / 3, group_width=4)  # Tcycle 64
    m, k = 32, 4
    fast, naive = _frames("hardware", cfg, m, kind)
    warm_t, warm_c, _ = random_touches(
        np.random.default_rng(3), 80, m, cfg.t_cycle // 2, kind
    )
    apply_columnar(fast, warm_t, *touch_major(warm_t, warm_c), kind)
    _naive_apply(naive, warm_t, warm_c, None, kind)
    times, cells = _branch_batch(branch, cfg, m)
    rng = np.random.default_rng(4)
    cells = np.stack([cells] + [rng.integers(0, m, cells.size) for _ in range(k - 1)])
    if branch == "no-flip":
        cells %= cfg.group_width  # stay in group 0
    assert _hardware_branch(fast, np.tile(times, k), cells.reshape(-1)) == branch
    paths.clear()
    if layout == "touch-major":
        apply_columnar(fast, times, cells, None, kind)
    else:
        apply_columnar(fast, times, *touch_major(times, cells.T.reshape(-1)), kind)
    assert paths == ["counted"]
    _naive_apply(naive, np.repeat(times, k), cells.T.reshape(-1), None, kind)
    _assert_same(fast, naive)


@pytest.mark.parametrize("kind", KINDS)
def test_two_flips_just_over_one_tcycle(kind):
    """A span of Tcycle + 1 lets one group flip twice: the touch before
    the first flip must be discarded even though its parity matches the
    group's last one.  The batch is split, each flip in its own piece."""
    cfg = SheConfig(window=48, alpha=1 / 3, group_width=4)  # Tcycle 64
    tc = cfg.t_cycle
    fast, naive = _frames("hardware", cfg, 8, kind)
    # group 0 flips at tc and again at 2 * tc
    times = np.asarray([tc - 1, tc, tc + 5, 2 * tc], dtype=np.int64)
    cells = np.asarray([1, 2, 1, 3], dtype=np.int64)
    values = np.asarray([9, 4, 3, 5]) if kind in (UpdateKind.MAX_RANK, UpdateKind.MIN_HASH) else None
    assert _hardware_branch(fast, times, cells) == "general"
    apply_columnar(fast, times, *touch_major(times, cells, values), kind)
    _naive_apply(naive, times, cells, values, kind)
    _assert_same(fast, naive)


@pytest.mark.parametrize("frame_kind", ["hardware", "software"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "window,alpha,group_width",
    [
        (40, 0.3, 3),    # Tcycle 52, width 3: neither a power of two
        (30, 0.5, 6),    # Tcycle 45, width 6
        (48, 1 / 3, 5),  # Tcycle 64 (shift path), width 5 (divide path)
        (40, 0.3, 8),    # Tcycle 52 (divide path), width 8 (shift path)
        (24, 1 / 3, 8),  # both powers of two: both shift paths
    ],
)
def test_geometry_without_powers_of_two(frame_kind, kind, window, alpha, group_width):
    rng = np.random.default_rng(group_width * 100 + window)
    cfg = SheConfig(window=window, alpha=alpha, group_width=group_width)
    m = 6 * group_width
    fast, naive = _frames(frame_kind, cfg, m, kind)
    for batch in range(3):  # consecutive batches, each crossing flips
        times, cells, values = random_touches(rng, 150, m, 3 * cfg.t_cycle, kind)
        times += 3 * cfg.t_cycle * batch
        apply_columnar(fast, times, *touch_major(times, cells, values), kind)
        _naive_apply(naive, times, cells, values, kind)
    _assert_same(fast, naive)


@pytest.mark.parametrize("k", [1, 2, 5, 8])
@pytest.mark.parametrize(
    "window,alpha,group_width,groups",
    [
        (40, 0.3, 3, 7),     # Tcycle 52, G 7
        (10, 0.3, 1, 50),    # Tcycle 13 < G 50: several groups per tick
        (1 << 14, 1.0, 64, 128),  # SHE-CM's defaults: Tcycle 2**15, G 128
        (977, 0.37, 8, 33),  # Tcycle 1338, G 33
    ],
)
def test_touch_parity_equals_current_marks(k, window, alpha, group_width, groups):
    """The kernel's parity, per item (k > 1) or per touch (k == 1),
    is the current mark of every touch's group at its time, on pieces
    far from t = 0 that straddle a cycle boundary."""
    rng = np.random.default_rng(k * 1000 + groups)
    cfg = SheConfig(window=window, alpha=alpha, group_width=group_width)
    tc = cfg.t_cycle
    frame = make_frame("hardware", cfg, group_width * groups,
                       dtype=np.int64, empty_value=0, cell_bits=8)
    for base in rng.integers(0, 1 << 40, size=6):
        # a piece spans < Tcycle; start it anywhere in the cycle before
        # a boundary so most pieces straddle two values of t // Tcycle
        lo = (int(base) // tc + 1) * tc - int(rng.integers(0, tc))
        times = np.sort(rng.integers(lo, lo + tc, size=200)).astype(np.int64)
        gids = rng.integers(0, groups, size=times.size * k).astype(np.int64)
        got = batch._touch_parity(frame, times, gids)
        touch_times = np.repeat(times, k)
        want = [frame._current_marks(gids[i:i + 1], int(t))[0]
                for i, t in enumerate(touch_times)]
        assert got.dtype == np.uint8
        assert got.tolist() == want
        textbook = ((touch_times - (tc * gids) // groups) // tc) % 2
        assert got.tolist() == textbook.tolist()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("layout", ["item-major", "touch-major"])
def test_shape_rule_counts_pieces_of_at_least_m_touches(paths, kind, layout):
    """The one shape rule: an ADD_ONE / SET_ONE piece is counted from
    ``M`` touches on and scattered below; MAX_RANK / MIN_HASH always
    scatter.  Both sides match the per-item oracle."""
    cfg = SheConfig(window=48, alpha=1 / 3, group_width=4)  # Tcycle 64
    m, k = 24, 4
    fast, naive = _frames("hardware", cfg, m, kind)
    rng = np.random.default_rng(9)
    counted = kind in (UpdateKind.ADD_ONE, UpdateKind.SET_ONE)
    t = 2 * cfg.t_cycle - 3  # pieces straddle group 0's flip
    for items in (m // k - 1, m // k, m // k + 1):
        times = np.arange(t, t + items, dtype=np.int64)
        cells = rng.integers(0, m, size=(k, items))
        values = (
            rng.integers(1, 30, size=(k, items))
            if kind in (UpdateKind.MAX_RANK, UpdateKind.MIN_HASH) else None
        )
        paths.clear()
        if layout == "touch-major":
            apply_columnar(fast, times, cells, values, kind)
        else:
            apply_columnar(
                fast, times,
                *touch_major(
                    times, cells.T.reshape(-1),
                    None if values is None else values.T.reshape(-1),
                ),
                kind,
            )
        want = "counted" if counted and items * k >= m else "scattered"
        assert paths == [want]
        _naive_apply(
            naive, np.repeat(times, k), cells.T.reshape(-1),
            None if values is None else values.T.reshape(-1), kind,
        )
        _assert_same(fast, naive)
        t += items


@pytest.mark.parametrize("branch", ["no-flip", "single-flip", "general"])
def test_add_one_wraps_on_narrow_cells(paths, branch):
    """uint8 counters wrap modulo 256 exactly like the naive count
    (pieces of 10-300 touches against 8 cells: counted)."""
    _check_narrow_wrap(paths, branch, 8)


@pytest.mark.parametrize("branch", ["no-flip", "single-flip", "general"])
def test_scattered_add_one_wraps_on_narrow_cells(paths, branch):
    """The same wrap on the scattered path: 512 cells, so every piece
    has fewer touches than cells."""
    _check_narrow_wrap(paths, branch, 512)


def _check_narrow_wrap(paths, branch, m):
    cfg = SheConfig(window=48, alpha=1 / 3, group_width=4)  # Tcycle 64
    tc = cfg.t_cycle
    fast, naive = _frames("hardware", cfg, m, UpdateKind.ADD_ONE, dtype=np.uint8)
    if branch == "no-flip":
        times = np.full(300, tc + 5, dtype=np.int64)
        cells = np.ones(300, dtype=np.int64)
    elif branch == "single-flip":
        # 250 discarded touches before group 0's flip at tc, 10 after:
        # scatter-all wraps to 4, the undo wraps back to 10
        times = np.asarray([tc - 1] * 250 + [tc] * 10, dtype=np.int64)
        cells = np.ones(260, dtype=np.int64)
    else:
        # a span of exactly one Tcycle: split into two pieces
        times = np.asarray([0] * 40 + [tc] * 270, dtype=np.int64)
        cells = np.ones(310, dtype=np.int64)
    assert _hardware_branch(fast, times, cells) == branch
    apply_columnar(fast, times, *touch_major(times, cells), UpdateKind.ADD_ONE)
    _naive_apply(naive, times, cells, None, UpdateKind.ADD_ONE)
    _assert_same(fast, naive, modulus=256)
    assert fast.cells.dtype == np.uint8
    assert set(paths) == {"counted" if m == 8 else "scattered"}


@pytest.mark.parametrize("frame_kind", ["hardware", "software"])
def test_split_batches_equal_one_batch(frame_kind):
    """Inserting in many small batches == one big batch."""
    rng = np.random.default_rng(7)
    cfg = SheConfig(window=50, alpha=0.4, group_width=4)
    m = 32
    f1 = make_frame(frame_kind, cfg, m, dtype=np.int64, empty_value=0, cell_bits=8)
    f2 = make_frame(frame_kind, cfg, m, dtype=np.int64, empty_value=0, cell_bits=8)
    times, cells, _ = random_touches(rng, 600, m, 8 * cfg.t_cycle, UpdateKind.ADD_ONE)
    apply_columnar(f1, times, *touch_major(times, cells), UpdateKind.ADD_ONE)
    # split at arbitrary points
    for lo, hi in [(0, 13), (13, 200), (200, 201), (201, 600)]:
        apply_columnar(
            f2, times[lo:hi], *touch_major(times[lo:hi], cells[lo:hi]), UpdateKind.ADD_ONE
        )
    # marks may differ on groups f2 lazily cleaned later, but a final
    # check at the same time must converge the cell contents
    f1.prepare_query_all(int(times[-1]))
    f2.prepare_query_all(int(times[-1]))
    assert np.array_equal(f1.cells, f2.cells)


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_hardware_kernels_only_see_pieces_narrower_than_tcycle(monkeypatch, dense):
    """Both hardware kernels receive a batch as consecutive, non-empty
    pieces that each span less than Tcycle: the invariant that lets
    them keep only the no-flip and single-flip branches.  A gap of many
    Tcycles costs one cut, not one per Tcycle."""
    cfg = SheConfig(window=40, alpha=0.3, group_width=4)  # Tcycle 52
    tc = cfg.t_cycle
    name = "_apply_dense_hardware" if dense else "_apply_hardware"
    real = getattr(batch, name)
    pieces = []

    def spy(frame, times, *rest):
        pieces.append(times.copy())
        real(frame, times, *rest)

    monkeypatch.setattr(batch, name, spy)
    rng = np.random.default_rng(11)
    m, k = 16, 3
    # 3 Tcycles of items, a 35-Tcycle gap, then 2 Tcycles more
    times = np.concatenate([
        np.sort(rng.integers(0, 3 * tc, size=120)),
        np.sort(rng.integers(40 * tc, 42 * tc, size=80)),
    ]).astype(np.int64)
    fast, naive = _frames("hardware", cfg, m, UpdateKind.MIN_HASH)
    if dense:
        values = rng.integers(1, 255, size=(times.size, m)).astype(np.int64)
        apply_columnar(fast, times, None, values, UpdateKind.MIN_HASH)
        touches = [(j, t, values[i, j]) for i, t in enumerate(times) for j in range(m)]
    else:
        cells = rng.integers(0, m, size=times.size * k).astype(np.int64)
        values = rng.integers(1, 255, size=cells.size).astype(np.int64)
        apply_columnar(fast, times, *touch_major(times, cells, values), UpdateKind.MIN_HASH)
        touches = zip(cells, np.repeat(times, k), values)
    for c, t, v in touches:
        naive.touch(int(c), int(t), UpdateKind.MIN_HASH, int(v))
    _assert_same(fast, naive)

    assert all(p.size and int(p[-1]) - int(p[0]) < tc for p in pieces)
    assert np.array_equal(np.concatenate(pieces), times)
    # greedy pieces span a full Tcycle and a remainder under two
    # Tcycles is halved: at most 3 before the gap, 2 after
    assert 2 <= len(pieces) <= 5


def test_batch_just_over_one_tcycle_splits_in_halves(monkeypatch):
    """A batch spanning 1.05 Tcycle is cut at its middle time: two
    pieces, each under Tcycle and each holding at least a third of the
    items, not a full piece plus a tiny tail."""
    cfg = SheConfig(window=40, alpha=0.3, group_width=4)  # Tcycle 52
    tc = cfg.t_cycle
    pieces = []
    real = batch._apply_hardware

    def spy(frame, times, *rest):
        pieces.append(times.copy())
        real(frame, times, *rest)

    monkeypatch.setattr(batch, "_apply_hardware", spy)
    n, k, m = 300, 3, 16
    span = int(1.05 * tc)
    times = (np.arange(n, dtype=np.int64) * span) // (n - 1) + 7 * tc + 3
    rng = np.random.default_rng(5)
    cells = rng.integers(0, m, size=n * k).astype(np.int64)
    fast, naive = _frames("hardware", cfg, m, UpdateKind.ADD_ONE)
    apply_columnar(fast, times, *touch_major(times, cells), UpdateKind.ADD_ONE)
    for c, t in zip(cells, np.repeat(times, k)):
        naive.touch(int(c), int(t), UpdateKind.ADD_ONE)
    _assert_same(fast, naive)

    assert len(pieces) == 2
    assert np.array_equal(np.concatenate(pieces), times)
    for p in pieces:
        assert int(p[-1]) - int(p[0]) < tc
        assert p.size >= n // 3


def test_empty_batch_is_noop():
    cfg = SheConfig(window=10, alpha=0.5, group_width=2)
    f = make_frame("hardware", cfg, 8, dtype=np.int64, empty_value=0, cell_bits=8)
    apply_columnar(f, np.asarray([], dtype=np.int64), np.asarray([], dtype=np.int64), None, UpdateKind.SET_ONE)
    assert np.all(f.cells == 0)


def test_single_touch_sets_mark():
    cfg = SheConfig(window=10, alpha=0.5, group_width=2)
    f = make_frame("hardware", cfg, 8, dtype=np.int64, empty_value=0, cell_bits=8)
    # touch at a time where group 0's mark has flipped once (t >= Tcycle)
    t = cfg.t_cycle
    apply_columnar(f, np.asarray([t]), np.asarray([[0]]), None, UpdateKind.SET_ONE)
    assert f.marks[0] == 1
    assert f.cells[0] == 1


def test_rejects_unknown_frame():
    with pytest.raises(TypeError):
        apply_columnar(object(), np.asarray([0]), np.asarray([[0]]), None, UpdateKind.SET_ONE)


def test_rejects_touches_not_a_multiple_of_items():
    cfg = SheConfig(window=10, alpha=0.5, group_width=2)
    f = make_frame("hardware", cfg, 8, dtype=np.int64, empty_value=0, cell_bits=8)
    with pytest.raises(ValueError, match="column per time"):
        apply_columnar(f, np.asarray([0, 1]), np.zeros((2, 3), np.int64), None, UpdateKind.SET_ONE)


@pytest.mark.parametrize("frame_kind", ["hardware", "software"])
@pytest.mark.parametrize("touches", [2, 4], ids=["per-touch", "item-major"])
def test_rejects_one_dimensional_cell_idx(frame_kind, touches):
    """One layout: a 1-D ``cell_idx`` (one touch per time, or ``k``
    per item item-major) is refused, naming the ``(k, B)`` block."""
    cfg = SheConfig(window=10, alpha=0.5, group_width=2)
    f = make_frame(frame_kind, cfg, 8, dtype=np.int64, empty_value=0, cell_bits=8)
    cells = np.arange(touches, dtype=np.int64)
    with pytest.raises(ValueError, match=r"touch-major \(k, B\) block"):
        apply_columnar(f, np.asarray([0, 1]), cells, None, UpdateKind.SET_ONE)
    assert not f.cells.any()


def test_duplicate_cell_same_time_add():
    """k hashes hitting the same counter at the same instant both count."""
    cfg = SheConfig(window=10, alpha=0.5, group_width=2)
    f = make_frame("hardware", cfg, 8, dtype=np.int64, empty_value=0, cell_bits=8)
    apply_columnar(f, np.asarray([3, 3]), np.asarray([[5, 5]]), None, UpdateKind.ADD_ONE)
    assert f.cells[5] == 2


@pytest.mark.parametrize("frame_kind", ["hardware", "software"])
@pytest.mark.parametrize("max_gap", [1, 8, 3 * 52])
def test_dense_batch_matches_naive(frame_kind, max_gap):
    """``cell_idx=None``: every item MINs every cell (grouped cells on
    the hardware frame; gaps over Tcycle = 52 inside one batch)."""
    rng = np.random.default_rng(max_gap)
    cfg = SheConfig(window=40, alpha=0.3, group_width=4)
    m = 16
    fast, naive = _frames(frame_kind, cfg, m, UpdateKind.MIN_HASH)
    t = 0
    for b in (1, 37, 200):
        times = t + np.cumsum(rng.integers(0, max_gap + 1, size=b)).astype(np.int64)
        values = rng.integers(1, 255, size=(b, m)).astype(np.int64)
        apply_columnar(fast, times, None, values, UpdateKind.MIN_HASH)
        for i in range(b):
            for j in range(m):
                naive.touch(j, int(times[i]), UpdateKind.MIN_HASH, int(values[i, j]))
        _assert_same(fast, naive)
        t = int(times[-1])


def test_dense_batch_must_be_min_hash():
    cfg = SheConfig(window=10, alpha=0.5, group_width=2)
    f = make_frame("hardware", cfg, 8, dtype=np.int64, empty_value=0, cell_bits=8)
    with pytest.raises(ValueError, match="MIN_HASH"):
        apply_columnar(f, np.asarray([0]), None, np.ones((1, 8)), UpdateKind.MAX_RANK)
