"""Exact vectorised batch updates for both SHE frames.

Inserting a large stream item-by-item from Python is prohibitively slow,
but SHE's cleaning semantics interleave with insertion order, so naive
"hash everything, scatter once" batching would be *wrong*.  This module
implements batch insertion that is bit-exact with the per-item
definition, derived as follows.

Hardware frame (parity marks, Algorithm 1).  Consider one group and the
sequence of its touches inside a batch, in time order, each touch
carrying the parity ``p_i = floor((t_i + d_g)/Tcycle) mod 2`` of the
group's current mark at that instant.  ``CheckGroup`` resets the group
exactly at touches where ``p_i`` differs from the running stored mark,
and the stored mark then becomes ``p_i``.  Hence after the batch:

* the surviving updates are precisely the maximal constant-parity
  *suffix* of the touch sequence;
* the group was reset during the batch iff the suffix does not extend
  to the first touch **or** the first touch's parity differs from the
  pre-batch stored mark;
* the stored mark ends up equal to the last touch's parity.

A group's mark flips at most once per ``Tcycle`` (§3.3), so a batch
spanning less than one ``Tcycle`` flips each group at most once, and
its suffix is simply the touches whose parity equals the group's last.
``apply_columnar`` therefore cuts every hardware batch into consecutive
pieces that each span less than ``Tcycle`` (:func:`_tcycle_pieces`)
and applies them in order; by Algorithm 1 that equals applying the
whole batch.  A gap longer than ``Tcycle`` falls between two pieces,
which preserves the documented failure mode: two flips with no touch
in between leave the parity equal and no reset happens (Eq. 1).

Software frame (sweeping cleaner).  A write to cell ``j`` at time
``t_i`` survives to the end of the batch iff the sweeper does not cross
``j`` in ``(t_i, t_end]`` — i.e. iff the cell's latest cleaning time as
of ``t_end`` is ``<= t_i``.  So: compute survivors, advance the sweep to
``t_end``, then scatter only the survivors.

All five CSM update kinds are commutative and idempotent-safe under
this regrouping (SET, ADD via ``np.add.at``, MAX/MIN via ``ufunc.at``).

Dense batches (SHE-MH, §4.5) also live here: every item MINs every
cell, so ``apply_columnar`` takes one ``(B, M)`` value block instead of
a ``B x M`` touch list, and each cell keeps the minimum of its
surviving suffix of items (one column-wise suffix-minimum pass).

Throughput notes for :func:`apply_columnar`, the single kernel every
insert goes through:

* the ADD_ONE scatter passes a dtype-matched operand so ``np.add.at``
  takes NumPy's fast indexed-loop path instead of the generic buffered
  one (~50x on uint32 cells);
* with ``k > 1`` touches per item (SHE-CM, SHE-BF) the mark parity is
  worked out once per item, not per touch: ``HardwareFrame._mark_split``
  gives each item the number ``n`` of groups still on mark ``q mod 2``
  (one per-item ``int64`` buffer, updated in place; ``q`` takes two
  values in a piece, split by one search), and the ``(B, k)`` touches
  compare their group ids against it — no offset gather, no repeat of
  the times.  On one 8192-item, 8-hash SHE-CM piece that straddles a
  cycle boundary the kernel went from 1.4-1.6 ms to 1.0-1.2 ms (best
  of 200 calls, 2-CPU host, NumPy 2.4);
* with one touch per time (SHE-BM, SHE-HLL) per item is per touch, and
  the offset gather plus an arithmetic shift (``Tcycle`` a power of
  two; exact for int64 under floor semantics, including negative
  phases) measured faster than the per-item split;
* group ids use a shift when the group width is a power of two.

The per-item reference it must match bit for bit lives in the tests
(``tests/helpers.py``: Algorithm 1 and the sweep, one touch at a time).
"""

from __future__ import annotations

import numpy as np

from repro.core.csm import UpdateKind
from repro.core.hardware_frame import HardwareFrame
from repro.core.software_frame import SoftwareFrame

__all__ = ["apply_columnar"]


def _pow2_shift(v: int) -> int | None:
    """log2 of ``v`` when it is a positive power of two, else ``None``."""
    v = int(v)
    if v > 0 and (v & (v - 1)) == 0:
        return v.bit_length() - 1
    return None


def _scatter(
    cells: np.ndarray, idx: np.ndarray, values: np.ndarray | None, kind: UpdateKind
) -> None:
    """Apply update kind ``F`` for (possibly duplicated) cell indices.

    Operands are cast to the cell dtype so ``ufunc.at`` stays on its
    fast indexed-loop path.
    """
    if idx.size == 0:
        return
    if kind is UpdateKind.SET_ONE:
        cells[idx] = 1
    elif kind is UpdateKind.ADD_ONE:
        np.add.at(cells, idx, cells.dtype.type(1))
    elif kind is UpdateKind.MAX_RANK:
        np.maximum.at(cells, idx, values.astype(cells.dtype, copy=False))
    elif kind is UpdateKind.MIN_HASH:
        np.minimum.at(cells, idx, values.astype(cells.dtype, copy=False))
    else:  # pragma: no cover - enum is closed
        raise AssertionError(f"unhandled update kind {kind!r}")


def _min_suffixes(cells: np.ndarray, values: np.ndarray, start: np.ndarray) -> None:
    """Dense MIN_HASH scatter over a ``(B, M)`` block, one row per item:
    ``cells[j] = min(cells[j], values[start[j]:, j])``."""
    sm = np.minimum.accumulate(values[::-1], axis=0)[::-1]
    np.minimum(cells, sm[start, np.arange(cells.size)], out=cells)


def _tcycle_pieces(times: np.ndarray, t_cycle: int):
    """Yield item ranges ``(lo, hi)`` cutting non-decreasing ``times``
    into consecutive pieces that each span less than ``t_cycle``.

    Greedy from each piece's first item while the remainder spans at
    least ``2·t_cycle``, so no piece is empty and a gap of many
    ``Tcycle``s costs one cut.  A remainder spanning ``[t_cycle,
    2·t_cycle)`` is cut at its middle time instead: both halves span
    less than ``t_cycle``, where a greedy cut would leave a tiny tail
    piece that still pays the kernel's per-piece passes.  A batch
    already narrower than ``t_cycle`` is one piece, found without a
    search.
    """
    n = times.size
    last = int(times[-1])
    lo = 0
    while lo < n:
        first = int(times[lo])
        rest = last - first
        if rest < t_cycle:
            yield lo, n
            return
        cut = first + (t_cycle if rest >= 2 * t_cycle else (rest + 2) // 2)
        hi = int(np.searchsorted(times, cut))
        yield lo, hi
        lo = hi


def _touch_parity(
    frame: HardwareFrame, times: np.ndarray, gids: np.ndarray
) -> np.ndarray:
    """Current mark (``uint8``) of each touch's group at its time, over
    a piece that spans less than ``Tcycle``; ``times`` holds one time
    per touch or, item-major, one per item of ``k`` touches."""
    k = gids.size // times.size
    if k == 1:
        # one touch per time: per item is per touch, and this offset
        # form measured at least as fast as the split below for it.
        # gids are in-range by construction; mode="clip" skips the per-
        # element bounds check, which is the bulk of np.take's cost
        phase = np.take(frame.offsets, gids, mode="clip")
        phase += times
        tc_shift = _pow2_shift(frame.t_cycle)
        # floor-div by 2**s == arithmetic shift, and floor-mod by 2 ==
        # low bit, for negative phases too
        if tc_shift is not None:
            np.right_shift(phase, tc_shift, out=phase)
        else:
            np.floor_divide(phase, frame.t_cycle, out=phase)
        np.bitwise_and(phase, 1, out=phase)
        return phase.astype(np.uint8)
    # k touches per item: the mark split once per item, broadcast over
    # the item's k groups as ``(gid >= n) ^ mark``
    n, mark, cut = frame._mark_split(times)
    parity = np.greater_equal(gids.reshape(-1, k), n[:, None])
    flip = parity[:cut] if mark else parity[cut:]
    np.logical_not(flip, out=flip)
    return parity.view(np.uint8).reshape(-1)


# sentinel parity for groups no touch landed in; real parities are 0/1
_UNTOUCHED = np.uint8(2)


def _apply_hardware(
    frame: HardwareFrame,
    times: np.ndarray,
    cell_idx: np.ndarray,
    values: np.ndarray | None,
    kind: UpdateKind,
) -> None:
    """One ``CheckGroup``-and-scatter pass over a batch that spans less
    than ``Tcycle`` (a :func:`_tcycle_pieces` piece)."""
    gw_shift = _pow2_shift(frame.group_width)
    if gw_shift is not None:
        gids = np.right_shift(cell_idx, gw_shift)
    else:
        gids = np.floor_divide(cell_idx, frame.group_width)
    parity = _touch_parity(frame, times, gids)

    g32 = frame.num_groups
    last_parity = np.full(g32, _UNTOUCHED, dtype=np.uint8)
    last_parity[gids] = parity
    touched = last_parity != _UNTOUCHED

    opposite = parity != last_parity[gids]
    n_opp = int(np.count_nonzero(opposite))

    surv_idx: np.ndarray | None = None  # None == every touch survives
    undo_idx: np.ndarray | None = None  # ADD_ONE-only deferred removal
    if n_opp == 0:
        # No group flipped parity inside this batch: every touch
        # survives, and each group's first parity == its last.
        cleaned = touched & (frame.marks != last_parity)
    else:
        # Each group crosses at most one parity boundary, so the
        # opposite-parity touches are exactly each flipped group's
        # prefix: survivors are ``~opposite`` and the first parity is
        # the last xored with the flip.
        opp_pos = np.flatnonzero(opposite)
        flipped = np.zeros(g32, dtype=np.uint8)
        flipped[gids.take(opp_pos)] = 1
        first_parity = last_parity ^ flipped
        cleaned = touched & (
            flipped.view(bool) | (frame.marks != first_parity)
        )
        if kind is UpdateKind.ADD_ONE:
            # cheaper than compressing the survivors: scatter every
            # touch, then subtract the few opposite ones back out —
            # exact under modular cell arithmetic
            undo_idx = cell_idx.take(opp_pos)
        else:
            surv_idx = np.flatnonzero(~opposite)

    frame._reset_groups(cleaned)
    # equivalent to ``frame.marks[gids] = parity`` (last write per group
    # wins) without re-reading the per-touch arrays
    np.putmask(frame.marks, touched, last_parity)

    if surv_idx is None:
        _scatter(frame.cells, cell_idx, values, kind)
        if undo_idx is not None and undo_idx.size:
            np.subtract.at(
                frame.cells, undo_idx, frame.cells.dtype.type(1)
            )
    else:
        _scatter(
            frame.cells,
            cell_idx.take(surv_idx),
            None if values is None else values.take(surv_idx),
            kind,
        )


def _apply_software(
    frame: SoftwareFrame,
    times: np.ndarray,
    cell_idx: np.ndarray,
    values: np.ndarray | None,
    kind: UpdateKind,
) -> None:
    if times.size != cell_idx.size:
        times = np.repeat(times, cell_idx.size // times.size)
    t_end = int(times[-1])
    survivors = frame._clean_times(cell_idx, t_end) <= times
    frame.advance(t_end)
    _scatter(
        frame.cells,
        cell_idx[survivors],
        None if values is None else values[survivors],
        kind,
    )


def _apply_dense_hardware(
    frame: HardwareFrame, times: np.ndarray, values: np.ndarray
) -> None:
    """Dense MIN_HASH pass over a batch that spans less than ``Tcycle``:
    a group flips at most once in it, so its survivors start at the
    first item at/after that flip."""
    tc = frame.t_cycle
    d = frame.offsets
    e_first = (int(times[0]) + d) // tc
    e_last = (int(times[-1]) + d) // tc
    last_parity = (e_last % 2).astype(np.uint8)
    flipped = e_last > e_first
    start = np.zeros(frame.num_groups, dtype=np.int64)
    start[flipped] = np.searchsorted(times, (e_last * tc - d)[flipped])
    frame._reset_groups(flipped | (frame.marks != last_parity))
    frame.marks[:] = last_parity
    _min_suffixes(frame.cells, values, np.repeat(start, frame.group_width))


def _apply_dense_software(
    frame: SoftwareFrame, times: np.ndarray, values: np.ndarray
) -> None:
    t_end = int(times[-1])
    # a cell's writes survive from its first item at/after its latest
    # cleaning; clean_t <= t_end, so that item exists
    start = np.searchsorted(times, frame._clean_times(np.arange(frame.num_cells), t_end))
    # SHE-MH's cleaning counters report two sweep passes per dense
    # batch: to its first item, then to its last
    frame.advance(int(times[0]))
    frame.advance(t_end)
    _min_suffixes(frame.cells, values, start)


def apply_columnar(
    frame,
    times: np.ndarray,
    cell_idx: np.ndarray,
    values: np.ndarray | None,
    kind: UpdateKind,
) -> None:
    """Apply a batch of timestamped cell updates to either frame kind.

    Args:
        frame: a :class:`HardwareFrame` or :class:`SoftwareFrame`.
        times: arrival times (non-decreasing), ``int64`` — either one
            per touch, or one per *item* with ``cell_idx`` laid out
            item-major, ``k`` touches per item (``cell_idx.size == k *
            times.size``), which the hardware kernel keeps per item
            and the software one expands to per touch.
        cell_idx: touched cell index per touch, or ``None`` for a dense
            batch in which every item touches every cell (SHE-MH's
            M-permutation update); ``values`` is then a ``(B, M)``
            block, one row per item, and ``kind`` must be MIN_HASH.
        values: per-touch operand for MAX_RANK / MIN_HASH, else ``None``.
        kind: which CSM update function to apply.
    """
    if times.size == 0:
        return
    times = np.asarray(times, dtype=np.int64)
    hardware = isinstance(frame, HardwareFrame)
    if not (hardware or isinstance(frame, SoftwareFrame)):
        raise TypeError(f"unsupported frame type {type(frame).__name__}")
    if cell_idx is None:
        if kind is not UpdateKind.MIN_HASH:
            raise ValueError(f"a dense batch must be MIN_HASH, got {kind!r}")
        if not hardware:
            _apply_dense_software(frame, times, values)
            return
        for lo, hi in _tcycle_pieces(times, frame.t_cycle):
            _apply_dense_hardware(frame, times[lo:hi], values[lo:hi])
        return
    cell_idx = np.asarray(cell_idx)
    # int64 indices skip NumPy's per-call index cast, which makes
    # ``uint64`` scatters 2-3x slower; hashed indices are far below
    # 2**63, so unsigned ones reinterpret for free
    if cell_idx.dtype == np.uint64:
        cell_idx = cell_idx.view(np.int64)
    elif cell_idx.dtype != np.int64:
        cell_idx = cell_idx.astype(np.int64)
    if cell_idx.size % times.size:
        raise ValueError(
            f"cell_idx ({cell_idx.size}) must be a multiple of "
            f"times ({times.size})"
        )
    if not hardware:
        _apply_software(frame, times, cell_idx, values, kind)
        return
    k = cell_idx.size // times.size
    for lo, hi in _tcycle_pieces(times, frame.t_cycle):
        _apply_hardware(
            frame,
            times[lo:hi],
            cell_idx[lo * k:hi * k],
            None if values is None else values[lo * k:hi * k],
            kind,
        )
