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

One shape rule picks how a piece is applied.  ADD_ONE and SET_ONE
pieces with at least ``M`` touches are *counted*: one counting pass
keyed by ``(parity, cell)`` fills a ``2M`` workspace, and each group
keeps its late row (touches after its flip) if it has one, else its
early row — O(M) work after the one pass, and touch order never
matters.  Smaller pieces, and MAX_RANK / MIN_HASH ones, are
*scattered*, in O(touches) with no pass over all ``G`` groups.  A
group resets in a piece iff one of its touches has a parity different
from its stored mark, whatever the touch order, so the reset rows are
``gids[parity != marks[gids]]``, deduplicated in O(rows) through an
uninitialised ``int64`` scratch over groups (each group's slot keeps
one stale touch's position).  One scatter ``marks[gids] = parity``
leaves each touched group on its last parity (the piece is scattered
item-major, so that is written last), and the survivors are the
touches whose parity equals their group's new mark.

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

Touches come in one layout: one time per item and a touch-major
``(k, B)`` block (``k = 1``: one touch per time) — the layout
:class:`~repro.common.hashing.HashFamily` mixes in, which every sketch
passes through without a copy.

Throughput notes for :func:`apply_columnar`, the single kernel every
insert goes through:

* on one 8192-item, 8-hash SHE-CM piece (M = 8192, touch-major) that
  straddles a cycle boundary the counted path costs ~350 µs against
  ~700 µs measured for the scattered path it replaced: the mark split
  ~25, the composite key ``cell + M·parity`` ~110 (four ``int64``
  passes), the ``np.add.at`` count ~145, and ~70 for the per-group
  work and ``cells += surv`` (best of 300 calls, 2-CPU host, NumPy
  2.4).  It uses only ``int64`` slice arithmetic, a ``uint32``
  ``add.at``, ``any(axis=1)``, bool logic and ``copyto(where=)``: each
  NumPy inner loop a process runs for the first time maps more of
  NumPy's library pages, which the benchmark's ``rss_mb`` counts;
* the ADD_ONE scatter passes a dtype-matched operand so ``np.add.at``
  takes NumPy's fast indexed-loop path instead of the generic buffered
  one (~50x on uint32 cells);
* with ``k > 1`` touches per item (SHE-CM, SHE-BF) the mark parity is
  worked out once per item, not per touch: ``HardwareFrame._mark_split``
  gives each item the number ``n`` of groups still on mark ``q mod 2``
  (one per-item ``int64`` buffer, updated in place; ``q`` takes two
  values in a piece, split by one search), and touches compare their
  group ids — or, counted, their cells against ``n·w`` — with it;
* with one touch per time (SHE-BM, SHE-HLL) each touch derives its
  ``d_gid``; in a piece ``(t + d_gid) // Tcycle`` takes one of three
  values, so the parity is one unsigned range compare.  Against a
  gather from a stored offset table (per piece, 2-CPU host): 1–3 µs
  more at 512–2048 touches, less from 8192 on (~230 against ~325 µs at
  65536, ``G = 16384``); the per-item split measured 10–35% slower;
* the scattered path takes touch subsets as ``take(flatnonzero(mask))``:
  on masks as irregular as its stale and surviving touches a boolean
  index costs three to four times as much;
* per scattered piece, the previous kernel (G-sized last-parity,
  flip and clean masks) against this one: the median per-piece time
  ratio over 600 pieces run alternately by both in one process (2-CPU
  host, NumPy 2.4), with ``G >> T``: SHE-BF, 256 items × 8 hashes in
  ``G = 16384`` groups, 0.63–0.69 (~85 → ~54 µs); SHE-HLL, 8192
  touches in ``G = 16384``, 0.59–0.64 (~200 → ~120 µs); SHE-CM, 32 × 8
  in ``G = 1024``, 0.77–0.84.  At ``T ≈ G`` (SHE-HLL, 4096 touches in
  ``G = 2048``) 0.97–1.02 (~90 µs both) and at ``T >> G`` (SHE-BM,
  4096 in ``G = 128``) 0.93–0.99 (~100 → ~95 µs): there the old
  G-sized passes were cheap, and deduplicating many stale touches per
  group costs about what they did;
* group ids use a shift when the group width is a power of two.

The per-item reference it must match bit for bit lives in the tests
(``tests/helpers.py``: Algorithm 1 and the sweep, one touch at a time).
"""

from __future__ import annotations

import numpy as np

from repro.common.validation import as_index_array
from repro.core.csm import UpdateKind
from repro.core.hardware_frame import HardwareFrame
from repro.core.software_frame import SoftwareFrame

__all__ = ["apply_columnar"]


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
    per item and ``gids`` its ``k`` touches' groups, item-major."""
    k = gids.size // times.size
    if k == 1:
        # one touch per time: per item is per touch, and this form
        # measured faster than the split below for it.
        # Over a piece ``(t + d_gid) // Tcycle`` is one of q - 1, q and
        # q + 1 (q = times[0] // Tcycle), so the parity is whether
        # ``t + d_gid - q*Tcycle`` lies in [0, Tcycle), negated for
        # even q: an unsigned compare, no per-touch division
        tc = frame.t_cycle
        q = int(times[0]) // tc
        phase = frame._phase(gids)  # -d_gid
        np.subtract(times, phase, out=phase)
        phase -= q * tc
        parity = phase.view(np.uint64) < tc
        if not q & 1:
            np.logical_not(parity, out=parity)
        return parity.view(np.uint8)
    # k touches per item: the mark split once per item, broadcast over
    # the item's k groups as ``(gid >= n) ^ mark``
    n, mark, cut = frame._mark_split(times)
    parity = np.greater_equal(gids.reshape(-1, k), n[:, None])
    flip = parity[:cut] if mark else parity[cut:]
    if flip.size:
        np.logical_not(flip, out=flip)
    return parity.view(np.uint8).reshape(-1)


# update kinds whose surviving touches reduce to per-cell counts
_COUNTED = (UpdateKind.ADD_ONE, UpdateKind.SET_ONE)


def _apply_hardware(
    frame: HardwareFrame,
    times: np.ndarray,
    cell_idx: np.ndarray,
    values: np.ndarray | None,
    kind: UpdateKind,
) -> None:
    """One ``CheckGroup``-and-apply pass over a batch that spans less
    than ``Tcycle`` (a :func:`_tcycle_pieces` piece) of touch-major
    ``(k, B)`` touches."""
    if kind in _COUNTED and cell_idx.size >= frame.num_cells:
        _apply_counted(frame, times, cell_idx, kind)
    else:
        _apply_scattered(frame, times, cell_idx, values, kind)


def _apply_counted(
    frame: HardwareFrame, times: np.ndarray, cell_idx: np.ndarray, kind: UpdateKind
) -> None:
    """ADD_ONE / SET_ONE over a piece with at least ``M`` touches: one
    counting pass keyed by ``(parity, cell)``, then O(M) per-group work.

    A group's touches carry its mark at ``times[0]`` (early) until its
    one flip in the piece, and the other mark (late) after it, so the
    ``2M`` counts hold each group's early and late rows.  The late row
    survives if the group was touched late, else the early row; the
    group resets if it was touched on both sides of its flip, or if the
    surviving parity differs from its stored mark.  Touch order never
    matters.
    """
    m = frame.num_cells
    n, mark, cut = frame._mark_split(times)
    # groups below n0 carry ``mark`` at times[0], the rest its flip
    n0 = int(n[0])
    # gid >= n  <=>  cell >= n·w: no per-touch group ids
    n *= frame.group_width
    key = cell_idx - n  # (k, B) touch-major
    items = key.T
    # -1 below the item's split, 0 at or above it (int64 sign bit)
    np.right_shift(key, 63, out=key)
    # a run on mark r gives parity r below the split and 1 - r above:
    # parity·M is -M·key for r = 1 and M·(key + 1) for r = 0
    for run, r in ((items[:cut], mark), (items[cut:], 1 - mark)):
        if r:
            run *= -m
        else:
            run += 1
            run *= m
    key += cell_idx
    if kind is UpdateKind.ADD_ONE:
        counts = np.zeros(2 * m, dtype=np.uint32)
        np.add.at(counts, key.reshape(-1), np.uint32(1))
    else:
        # SET_ONE needs only whether a count is non-zero: a flag each
        counts = np.zeros(2 * m, dtype=np.uint8)
        counts[key.reshape(-1)] = 1

    rows = counts.reshape(2, frame.num_groups, frame.group_width)
    on_mark = rows[mark].any(axis=1)
    on_flip = rows[1 - mark].any(axis=1)
    # early/late per group: groups from n0 on start on the flip
    early = np.concatenate((on_mark[:n0], on_flip[n0:]))
    late = np.concatenate((on_flip[:n0], on_mark[n0:]))
    touched = early | late
    last_parity = frame._current_marks_all(int(times[0]))
    last_parity ^= late.view(np.uint8)
    cleaned = touched & ((early & late) | (frame.marks != last_parity))
    # the surviving row, into rows[0]: rows[1] where the last parity is 1
    np.copyto(rows[0], rows[1], where=last_parity.view(bool)[:, None])
    surv = counts[:m]

    frame._reset_groups(np.flatnonzero(cleaned))
    np.copyto(frame.marks, last_parity, where=touched)
    if kind is UpdateKind.ADD_ONE:
        # exact under modular cell arithmetic, any cell width
        np.add(frame.cells, surv, out=frame.cells, casting="unsafe")
    else:
        # SET_ONE cells hold 0/1 bits (merges OR them with np.maximum
        # too); a masked copy of 1s runs several times slower
        np.maximum(frame.cells, surv, out=frame.cells)


def _distinct(rows: np.ndarray, tags: np.ndarray, num_groups: int) -> np.ndarray:
    """The different group ids in ``rows``, once each, in O(rows): in an
    uninitialised scratch over groups, each id's slot keeps the tag of
    exactly one of its writers (``tags``: distinct ``int64``).  The
    scratch matches the tags' dtype, since an ``int32`` one measured
    slower for its casts."""
    if rows.size < 2:
        return rows
    slot = np.empty(num_groups, dtype=np.int64)
    slot[rows] = tags
    return rows.take(np.flatnonzero(slot.take(rows) == tags))


def _apply_scattered(
    frame: HardwareFrame,
    times: np.ndarray,
    cell_idx: np.ndarray,
    values: np.ndarray | None,
    kind: UpdateKind,
) -> None:
    """One ``CheckGroup``-and-scatter pass over a batch that spans less
    than ``Tcycle`` (a :func:`_tcycle_pieces` piece), in O(touches):
    nothing here runs over all ``G`` groups."""
    # the mark scatter below needs each group's latest touch written
    # last: item-major order (one copy; an order-free rule would need
    # a late-touch fix-up scatter and a survivor compress)
    cell_idx = cell_idx.T.reshape(-1)
    if values is not None:
        values = values.T.reshape(-1)
    gids = frame.group_of(cell_idx)
    # the mark arithmetic takes ids within a block, storage the ids
    # over the whole array: one and the same unless the frame stacks
    # several blocks (repro.core.stack)
    parity = _touch_parity(frame, times, frame._block_gids(gids))

    marks = frame.marks
    # a group resets iff one of its touches differs from its stored mark
    stale = np.flatnonzero(marks.take(gids) != parity)
    rows = gids.take(stale)
    # the stale touches' positions tag them apart for the dedup
    frame._reset_groups(_distinct(rows, stale, marks.size))
    # the last write per group wins, and item-major touches end on each
    # group's latest: every touched mark now holds its last parity
    marks[gids] = parity

    # the survivors are the touches on their group's last parity: the
    # rest are a flipped prefix, which the reset at the flip discards.
    # With no reset at all no group flipped, and every touch survives
    on_last = None
    if rows.size:
        on_last = marks.take(gids) == parity
        if on_last.all():
            on_last = None
    if on_last is None:
        _scatter(frame.cells, cell_idx, values, kind)
    elif kind is UpdateKind.SET_ONE:
        # SET_ONE cells are 0/1 bits, empty 0: a prefix touch writes 0
        # into its reset group, and a later survivor on the same cell
        # overwrites it with 1
        frame.cells[cell_idx] = on_last.view(np.uint8)
    elif kind is UpdateKind.ADD_ONE:
        # cheaper than compressing the survivors: scatter every touch,
        # then subtract the few prefix ones back out — exact under
        # modular cell arithmetic
        _scatter(frame.cells, cell_idx, values, kind)
        prefix = cell_idx.take(np.flatnonzero(~on_last))
        np.subtract.at(frame.cells, prefix, frame.cells.dtype.type(1))
    else:
        keep = np.flatnonzero(on_last)
        _scatter(
            frame.cells,
            cell_idx.take(keep),
            values.take(keep),
            kind,
        )


def _apply_software(
    frame: SoftwareFrame,
    times: np.ndarray,
    cell_idx: np.ndarray,
    values: np.ndarray | None,
    kind: UpdateKind,
) -> None:
    # touch-major: row j holds every item's j-th touch
    times = np.tile(times, cell_idx.shape[0])
    cell_idx = cell_idx.reshape(-1)
    if values is not None:
        values = values.reshape(-1)
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
    tc, g = frame.t_cycle, frame.num_groups
    # group gid flips at e*Tcycle + floor(Tcycle*gid/G): after times[0]
    # groups [n0, G) flip, then past (q+1)*Tcycle (cut 1) groups [0, n1)
    q = int(times[0]) // tc
    (n0, n1), _, cut = frame._mark_split(times[[0, -1]])
    runs = [(n0, n1, q)] if cut == 2 else [(n0, g, q), (0, n1, q + 1)]
    last_parity = frame._current_marks_all(int(times[-1]))
    stale = frame.marks != last_parity
    start = np.zeros(g, dtype=np.int64)
    for lo, hi, e in runs:
        stale[lo:hi] = True
        start[lo:hi] = np.searchsorted(times, frame._phase(np.arange(lo, hi)) + e * tc)
    frame._reset_groups(np.flatnonzero(stale))
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
        times: arrival times (non-decreasing), ``int64``, one per
            *item* of ``k`` touches; the hardware kernel keeps them per
            item and the software one expands them to per touch.
        cell_idx: a touch-major ``(k, B)`` block of touched cell
            indices, whose row ``j`` holds every item's ``j``-th touch
            (``k = 1`` for one touch per time), or ``None`` for a dense
            batch in which every item touches every cell (SHE-MH's
            M-permutation update); ``values`` is then a ``(B, M)``
            block, one row per item, and ``kind`` must be MIN_HASH.
        values: per-touch operand for MAX_RANK / MIN_HASH, laid out
            like ``cell_idx``, else ``None``.
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
    cell_idx = as_index_array(cell_idx)
    if cell_idx.ndim != 2 or cell_idx.shape[1] != times.size:
        raise ValueError(
            f"cell_idx must be a touch-major (k, B) block with one column "
            f"per time (B = {times.size}), got shape {cell_idx.shape}"
        )
    if not hardware:
        _apply_software(frame, times, cell_idx, values, kind)
        return
    for lo, hi in _tcycle_pieces(times, frame.t_cycle):
        _apply_hardware(
            frame,
            times[lo:hi],
            cell_idx[:, lo:hi],
            None if values is None else values[:, lo:hi],
            kind,
        )
