"""Stacked shards: same-layout sketches over one base array each.

Engine shards are empty clones of one prototype: one geometry,
one set of hash seeds, one union-stream clock.  In the hardware version
(§3.3, Algorithm 1) a frame's whole state is its cells plus one mark per
group, and a group's offset ``d_gid = -floor(Tcycle * gid / G)`` depends
only on where the group sits in its frame.  So ``S`` such frames laid
end to end form one array of ``S * G`` groups whose offsets repeat every
``G`` groups, and one kernel call can serve all of them.

Layout.  :func:`stacked_clones` allocates the cells and marks of all
shards once, as a ``(S, M)`` and a ``(S, G)`` base array, and builds
every shard's frame over its own row of them, as views.  Each shard
stays a whole sketch: a view deep-copies and pickles as its own block,
so snapshots, checkpoints, merges, probes and pickling work per shard.
Frames never rebind their arrays (``reset`` writes in place), so a
shard's block stays bound to its base.  Whether shards share a base is
derived from their arrays (``ndarray.base`` and the row a view starts
at), never stored: :func:`stack_shards` finds it, or copies shards that
arrive from elsewhere (a restart, a recovery, a spawn-started worker)
into a fresh base once.

Apply.  :meth:`ShardStack.apply` runs one flush round: the batches are
concatenated, put in time order and hashed once with the shards' shared
hashing hook; each touch's cell is offset by ``block * M``, and one
:func:`~repro.core.batch.apply_columnar` call runs over the base through
a :class:`StackedFrame`, whose marks and resets take global group ids
(``block * G + gid``) and whose phase, parity and maturity take the
block-local ``gid``.  Each shard keeps its own clock and its three
cleaning counters exactly as applying its batch alone would leave them.
:meth:`ShardStack.prepare` admits a round only where that equality is
exact and cheap: every batch checks out as ``insert_at`` requires, the
round spans less than one ``Tcycle`` (each shard's batch is one
``CheckGroup`` piece, as alone) and its batches have fewer than ``M``
touches all together, so none takes the kernel's counted path and the
call holds no more temporaries than one shard's scattered piece can.

Point reads.  :meth:`ShardStack.read_point` hashes all of a worker's
keys once, offsets them by block, makes one
:meth:`~repro.core.hardware_frame.HardwareFrame.read_mature` call over
the base, reduces with the kind's own ``_point_answer`` (the one the
sketches' point methods use) and splits the answers back per shard.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.common.validation import as_index_array, as_key_array
from repro.core.batch import apply_columnar
from repro.core.hardware_frame import HardwareFrame
from repro.core.registry import descriptor_of, frame_kind

__all__ = ["ShardStack", "StackedFrame", "stack_shards", "stacked_clones"]


def _stackable(sketch) -> bool:
    """One hardware frame and the single-frame hashing hook."""
    frame = getattr(sketch, "frame", None)
    return (
        frame is not None
        and frame_kind(frame) == "hardware"
        and hasattr(sketch, "_touch_columns")
    )


def stacked_clones(proto, count: int) -> list:
    """``proto`` and ``count - 1`` empty clones (as ``clone_empty``)
    whose frames' cells and marks are rows of one base array each.

    The base is allocated once; no clone allocates arrays of its own.
    ``proto``'s frame moves onto row 0 (its state copied there), and a
    sketch that cannot stack gets plain ``clone_empty`` copies.  A
    clone is a shallow copy of ``proto`` and of its frame, rebound to
    its row and reset in place: its other attributes (the frozen
    config, the hash families, sizes) are never written after
    construction, so the clones share them where ``clone_empty`` deep
    copies them, at a fifth of the cost.
    """
    if count < 2 or not _stackable(proto):
        return [proto] + [proto.clone_empty() for _ in range(count - 1)]
    frame = proto.frame
    cells = np.empty((count,) + frame.cells.shape, dtype=frame.cells.dtype)
    marks = np.empty((count,) + frame.marks.shape, dtype=frame.marks.dtype)
    cells[0], marks[0] = frame.cells, frame.marks
    frame.cells, frame.marks = cells[0], marks[0]
    out = [proto]
    for row in range(1, count):
        clone = copy.copy(proto)
        clone.frame = copy.copy(frame)
        clone.frame.cells, clone.frame.marks = cells[row], marks[row]
        clone.reset()
        out.append(clone)
    return out


def _address(arr: np.ndarray) -> int:
    # half the cost of ``arr.ctypes.data``, which builds a ctypes object
    return arr.__array_interface__["data"][0]


def _rows(frames: dict) -> dict | None:
    """``{shard: row}`` when every frame's cells and marks are rows of
    the same two base arrays, a different row each; else None.

    Only this module makes such bases, and it places a frame's cells
    and marks at the same row, so the row is read off the cells."""
    first = next(iter(frames.values()))
    cells, marks = first.cells.base, first.marks.base
    if not (isinstance(cells, np.ndarray) and isinstance(marks, np.ndarray)):
        return None
    if cells.ndim != 2 or cells.shape[1:] != first.cells.shape:
        return None
    start, rows = _address(cells), {}
    for s, f in frames.items():
        if f.cells.base is not cells or f.marks.base is not marks:
            return None
        rows[s] = (_address(f.cells) - start) // f.cells.nbytes
    return rows if len(set(rows.values())) == len(rows) else None


def stack_shards(shards: dict) -> "ShardStack | None":
    """The stack of ``shards`` (shard id -> sketch), or None when they
    cannot stack: fewer than two, a software frame or two frames, a
    dense kernel, or layouts or hash seeds that differ (merge
    signatures).

    Shards already on one base (:func:`stacked_clones`, or a forked
    worker's share of them) keep it; others are copied into a fresh
    base once, and their frames rebound to its rows.
    """
    if len(shards) < 2 or not all(_stackable(sk) for sk in shards.values()):
        return None
    frames = {s: sk.frame for s, sk in shards.items()}
    rows = _rows(frames)
    if rows is None:
        # a shared base holds clones of one sketch; others must match
        proto = next(iter(shards.values()))
        desc = descriptor_of(proto)
        if desc is None:
            return None
        sig = desc.merge_signature(proto)
        if any(desc.merge_signature(sk) != sig for sk in shards.values()):
            return None
        cells = np.stack([f.cells for f in frames.values()])
        marks = np.stack([f.marks for f in frames.values()])
        rows = {}
        for row, (s, f) in enumerate(frames.items()):
            f.cells, f.marks = cells[row], marks[row]
            rows[s] = row
    return ShardStack(shards, rows)


class StackedFrame(HardwareFrame):
    """A hardware frame over a stack's base: blocks of ``G`` groups.

    Marks and resets index the whole base by global group id; the mark
    arithmetic inherited from :class:`HardwareFrame` takes the
    block-local id (:meth:`_block_gids`), so ``num_groups`` is one
    block's ``G``.  Only the kernel's scattered path and
    :meth:`read_mature` run on it.  Its cleaning counters live in the
    member frames: each ``CheckGroup`` pass counts one check on every
    block in :attr:`passing` and each reset group on its own block.
    """

    def __init__(self, members: list, cells: np.ndarray, marks: np.ndarray):
        proto = next(f for f in members if f is not None)
        self.config = proto.config
        self.group_width = proto.group_width
        self.num_groups = proto.num_groups
        self.t_cycle = proto.t_cycle
        self.window = proto.window
        self.cell_bits = proto.cell_bits
        self.empty_value = proto.empty_value
        self.num_cells = cells.size
        self.cells = cells
        self.marks = marks
        self.members = members  # frame per block; None where not held
        self.passing: list[int] = []  # blocks of the pass being applied

    def _block_gids(self, gids: np.ndarray) -> np.ndarray:
        g = self.num_groups
        if g & (g - 1):
            return gids % g
        # a mask: a tenth of the modulo's time.  The uint64 loop is the
        # one hashing already runs; the int64 one maps 64 KB more of
        # NumPy's code into the process
        return np.bitwise_and(gids.view(np.uint64), np.uint64(g - 1)).view(np.int64)

    def _reset_groups(self, rows: np.ndarray) -> None:
        self.cells.reshape(-1, self.group_width)[rows] = self.empty_value
        cleaned = np.bincount(rows // self.num_groups, minlength=len(self.members))
        for block in self.passing:
            frame = self.members[block]
            frame.cleaning_checks += 1
            frame.groups_cleaned += int(cleaned[block])
            frame.cells_cleaned += int(cleaned[block]) * self.group_width


class ShardStack:
    """One worker's stacked shards (see the module docstring).

    Args:
        shards: shard id -> sketch, every frame a row of one base.
        rows: shard id -> its row (block) in the base.
    """

    def __init__(self, shards: dict, rows: dict):
        self.shards = shards
        self.rows = rows
        self.proto = next(iter(shards.values()))
        self._touches: int | None = None
        first = self.proto.frame
        cells, marks = first.cells.base, first.marks.base
        members = [None] * cells.shape[0]
        for s, row in rows.items():
            members[row] = shards[s].frame
        self.frame = StackedFrame(members, cells.reshape(-1), marks.reshape(-1))
        self.block_cells = first.num_cells

    def prepare(self, batches) -> list | None:
        """``[(shard, keys, times)]`` of a round of ``(shard, keys, times,
        side)`` batches that one :meth:`apply` applies exactly as
        applying them shard by shard would, else None: at least two
        batches, for distinct shards of this stack, checked as
        ``insert_at`` requires, with fewer than ``M`` touches in all,
        and all items within less than one ``Tcycle``."""
        if len(batches) < 2 or len({b[0] for b in batches}) < len(batches):
            return None
        k = self.touches
        if k is None:
            return None  # a dense kernel's sketch
        for s, _keys, _times, side in batches:
            if side is not None or s not in self.rows:
                return None
        if sum(np.size(b[1]) for b in batches) * k >= self.block_cells:
            # as many touches as one shard's counted path takes: batches
            # that size gain little from one call, and a call over all
            # of them would hold that many touches' temporaries at once
            return None
        out = []
        lo, hi = None, None
        for s, keys, times, _side in batches:
            try:
                keys, times = self.shards[s]._arrivals(keys, times)
            except (TypeError, ValueError):
                return None  # shard by shard raises it where it belongs
            if keys.size:
                first, last = int(times[0]), int(times[-1])
                lo = first if lo is None else min(lo, first)
                hi = last if hi is None else max(hi, last)
                out.append((s, keys, times))
        if lo is not None and hi - lo >= self.frame.t_cycle:
            return None
        return out

    @property
    def touches(self) -> int | None:
        """Cells each item touches (``k``), from the hashing hook on an
        empty batch the first time it is asked; None for a dense kernel
        (no cell indices), which does not stack."""
        if self._touches is None:
            empty = np.empty(0, dtype=np.uint64)
            idx = self.proto._touch_columns(empty, empty.view(np.int64))[1]
            self._touches = 0 if idx is None else int(idx.shape[0])
        return self._touches or None

    @staticmethod
    def _time_order(times: np.ndarray, span: int) -> np.ndarray:
        """The stable order that sorts ``times``, which span ``span``:
        least-significant-digit passes over 16-bit digits, each a stable
        argsort of ``uint16`` keys.  NumPy sorts those with a radix sort,
        the one the engine's partitioner already runs; a stable
        ``int64`` argsort (timsort) took about as long on 2048 items but
        maps ~130 KB more of NumPy's library into the process."""
        rel = times - times.min()
        order = np.argsort(rel.astype(np.uint16), kind="stable")
        shift = 16
        while span >> shift:
            digit = (rel.take(order) >> shift).astype(np.uint16)
            order = order.take(np.argsort(digit, kind="stable"))
            shift += 16
        return order

    def _offsets(self, shards, sizes) -> np.ndarray:
        """Each item's block offset ``row * M``, item by item."""
        starts = np.array([self.rows[s] for s in shards], dtype=np.int64)
        return np.repeat(starts * self.block_cells, sizes)

    def apply(self, prepared: list) -> None:
        """Apply a :meth:`prepare`-d round in one kernel call."""
        if not prepared:
            return
        shards, keys, times = zip(*prepared)
        offsets = self._offsets(shards, [k.size for k in keys])
        times = np.concatenate(times)
        order = self._time_order(times, int(times.max() - times.min()))
        times = times.take(order)
        times, idx, values, kind = self.proto._touch_columns(
            np.concatenate(keys).take(order), times
        )
        idx = as_index_array(idx) + offsets.take(order)
        self.frame.passing = [self.rows[s] for s in shards]
        apply_columnar(self.frame, times, idx, values, kind)
        for s, _keys, t in prepared:
            self.shards[s].t = int(t[-1]) + 1

    def reads(self, op: str, keys: dict) -> bool:
        """Whether :meth:`read_point` answers point method ``op`` for
        ``keys`` (shard id -> key array): two shards or more, all of
        them here, of a kind whose ``op`` reduces by ``_point_answer``."""
        return (
            len(keys) > 1
            and self.proto._point_answer is not None
            and hasattr(self.proto, op)
            and all(s in self.rows for s in keys)
        )

    def read_point(self, keys: dict, t: int) -> dict:
        """``{shard: answers}`` at ``t`` for ``keys`` (shard id -> key
        array), from one ``read_mature`` call over the base."""
        shards = list(keys)
        arrays = [as_key_array(keys[s]) for s in shards]
        sizes = [a.size for a in arrays]
        idx = self.proto._touch_columns(np.concatenate(arrays), None)[1]
        idx = as_index_array(idx) + self._offsets(shards, sizes)
        vals, mature = self.frame.read_mature(idx.reshape(-1), t)
        answers = self.proto._point_answer(
            vals.reshape(idx.shape), mature.reshape(idx.shape)
        )
        ends = np.cumsum(sizes).tolist()  # slices: np.split took 14 µs
        return {s: answers[e - n:e] for s, n, e in zip(shards, sizes, ends)}
