"""Shared test helpers: naive reference implementations of SHE cleaning.

The vectorised batch machinery in ``repro.core.batch`` is the hardest
code in the package; these references implement Algorithm 1 and the
software sweep *literally, one touch at a time*, and the equivalence
tests assert the fast paths match them bit for bit.  ``clean_groups``
runs ``CheckGroup`` in place on a real frame: the oracle point reads
(``read``) are checked against.  The references take touches
item-major, one time per touch or ``k`` adjacent touches per item;
``touch_major`` turns that order into the ``(k, B)`` block the kernel
takes.  ``partition`` is the masked-copy
reference for the engine's argsort partition, and ``shard_of`` the
scalar reference for ``shard_ids``.
"""

from __future__ import annotations

import numpy as np

from repro.common.hashing import splitmix64
from repro.core.config import SheConfig
from repro.core.csm import UpdateKind
from repro.core.software_frame import SoftwareFrame
from repro.service.sharding import DEFAULT_SHARD_SEED, shard_ids


def touch_major(times, cells, values=None):
    """``(cells, values)`` as touch-major ``(k, B)`` blocks for
    ``apply_columnar``, from item-major touches: item ``i`` of
    ``times`` owns ``cells[i*k:(i+1)*k]`` (``k = 1``: one touch per
    time).  ``values=None`` stays ``None``."""
    items = np.asarray(times).size

    def block(a):
        return None if a is None else np.asarray(a).reshape(items, -1).T

    return block(cells), block(values)


def clean_groups(frame, gids, t: int) -> None:
    """Algorithm 1's ``CheckGroup`` at ``t`` over ``gids``, in place: reset
    each stale group (stored mark != current mark) and store its current
    mark.  On a software frame, the sweep to ``t`` (it has no groups)."""
    if isinstance(frame, SoftwareFrame):
        frame.advance(t)
        return
    gids = np.unique(np.asarray(gids, dtype=np.int64))
    cur = frame._current_marks(gids, t)
    stale = frame.marks[gids] != cur
    frame.cells.reshape(frame.num_groups, frame.group_width)[gids[stale]] = frame.empty_value
    frame.marks[gids[stale]] = cur[stale]


class NaiveHardwareFrame:
    """Algorithm 1, executed one touch at a time with no vectorisation."""

    def __init__(self, config: SheConfig, num_cells: int, *, empty_value: int = 0):
        self.config = config
        self.num_cells = num_cells
        self.w = config.group_width
        assert num_cells % self.w == 0
        self.g = num_cells // self.w
        self.t_cycle = config.t_cycle
        self.offsets = [-((self.t_cycle * gid) // self.g) for gid in range(self.g)]
        self.empty_value = empty_value
        self.cells = [empty_value] * num_cells
        self.marks = [self._cur_mark(gid, 0) for gid in range(self.g)]
        #: every group id ``check_group`` reset, in order
        self.reset_log: list[int] = []

    def _cur_mark(self, gid: int, t: int) -> int:
        return ((t + self.offsets[gid]) // self.t_cycle) % 2

    def check_group(self, gid: int, t: int) -> None:
        cur = self._cur_mark(gid, t)
        if self.marks[gid] != cur:
            self.reset_log.append(gid)
            self.marks[gid] = cur
            for j in range(gid * self.w, (gid + 1) * self.w):
                self.cells[j] = self.empty_value

    def age(self, gid: int, t: int) -> int:
        return (t + self.offsets[gid]) % self.t_cycle

    def touch(self, cell: int, t: int, kind: UpdateKind, value: int | None = None) -> None:
        gid = cell // self.w
        self.check_group(gid, t)
        y = self.cells[cell]
        if kind is UpdateKind.SET_ONE:
            self.cells[cell] = 1
        elif kind is UpdateKind.ADD_ONE:
            self.cells[cell] = y + 1
        elif kind is UpdateKind.MAX_RANK:
            self.cells[cell] = max(y, value)
        elif kind is UpdateKind.MIN_HASH:
            self.cells[cell] = min(y, value)
        else:  # pragma: no cover
            raise AssertionError(kind)


class NaiveSoftwareFrame:
    """The §3.2 sweep, executed cell by cell with no vectorisation."""

    def __init__(self, config: SheConfig, num_cells: int, *, empty_value: int = 0):
        self.num_cells = num_cells
        self.t_cycle = config.t_cycle
        self.empty_value = empty_value
        self.cells = [empty_value] * num_cells
        self._boundaries_done = 0

    def advance(self, t: int) -> None:
        b1 = (t * self.num_cells) // self.t_cycle
        while self._boundaries_done < b1:
            self._boundaries_done += 1
            self.cells[self._boundaries_done % self.num_cells] = self.empty_value

    def touch(self, cell: int, t: int, kind: UpdateKind, value: int | None = None) -> None:
        self.advance(t)
        y = self.cells[cell]
        if kind is UpdateKind.SET_ONE:
            self.cells[cell] = 1
        elif kind is UpdateKind.ADD_ONE:
            self.cells[cell] = y + 1
        elif kind is UpdateKind.MAX_RANK:
            self.cells[cell] = max(y, value)
        elif kind is UpdateKind.MIN_HASH:
            self.cells[cell] = min(y, value)
        else:  # pragma: no cover
            raise AssertionError(kind)


def zipf_stream(n: int, universe: int, seed: int = 0, skew: float = 1.1) -> np.ndarray:
    """Small deterministic skewed stream for tests."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, universe + 1, dtype=np.float64)
    p = ranks**-skew
    p /= p.sum()
    return rng.choice(np.arange(universe, dtype=np.uint64), size=n, p=p)


def partition(
    keys: np.ndarray,
    times: np.ndarray,
    num_shards: int,
    seed: int = DEFAULT_SHARD_SEED,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a timed batch into per-shard ``(keys, times)`` sub-batches,
    one boolean mask per shard, order within each shard preserved."""
    sids = shard_ids(keys, num_shards, seed)
    return [(keys[sids == s], times[sids == s]) for s in range(num_shards)]


def shard_of(key: int, num_shards: int, seed: int = DEFAULT_SHARD_SEED) -> int:
    """Owning shard of one key: the scalar oracle for ``shard_ids`` (one
    splitmix64 round over ``key XOR seed``, then ``% num_shards``)."""
    if num_shards == 1:
        return 0
    return splitmix64((int(key) ^ seed) & 0xFFFFFFFFFFFFFFFF) % num_shards
