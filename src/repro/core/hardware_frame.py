"""Hardware-version SHE frame: grouped cells with 1-bit time marks (§3.3).

The cell array is split into ``G`` groups of ``w`` contiguous cells.
Each group ``gid`` has a fixed time offset ``d_gid = -floor(Tcycle *
gid / G)``, derived where needed (:meth:`HardwareFrame._phase`), never
stored, and a stored 1-bit mark ``m[gid]``.  The *current* mark of a
group, ``floor((t + d_gid) / Tcycle) mod 2``, flips once per cleaning
cycle; whenever a touched group's stored mark disagrees, the whole group
is lazily reset (Algorithm 1: ``CheckGroup``).  The group's *age* —
time since its virtual cleaning instant — is ``(t + d_gid) mod Tcycle``.

Inserts run ``CheckGroup`` in :func:`repro.core.batch.apply_columnar`,
whole-array queries in :meth:`HardwareFrame.prepare_query_all`.

Point reads need each touched group's age against a bound ``b`` (``N``
for :meth:`~HardwareFrame.mature_mask`, ``beta*N`` for
:meth:`~HardwareFrame.legal_mask`, ``0 <= b < Tcycle``).  With ``t =
q*Tcycle + r`` and ``ceil_G(a) = ceil(a * G / Tcycle)``, the groups
``gid < n = ceil_G(r + 1)`` have ``f = floor(Tcycle * gid / G) <= r`` and
age ``r - f``; the rest have age ``r + Tcycle - f``.  ``f`` rises with
``gid``, so a group is *young* (age ``< b``) iff

* ``n1 <= gid < n`` with ``n1 = ceil_G(r + 1 - b)``, or
* ``gid >= n2`` with ``n2 = ceil_G(r + 1 + Tcycle - b)``,

two scalar bounds from ``divmod(t, Tcycle)``.  Only one run is ever
non-empty at the top (``n2 < G`` forces ``n1 <= 0``), so the young set
is one interval, possibly wrapping past ``G``, and a mask costs one
subtraction and one unsigned compare per cell (no offset, no modulo);
:meth:`~HardwareFrame.legal_groups` fills the same interval.

This reproduces on-demand + group cleaning exactly, including the known
failure mode: a group untouched for two full cycles wraps its mark back
to the current value and stale cells survive (quantified by Eq. 1;
see :mod:`repro.analysis.ondemand`).
"""

from __future__ import annotations

import numpy as np

from repro.common.validation import as_index_array, require_positive_int
from repro.core.config import SheConfig

__all__ = ["HardwareFrame"]


class HardwareFrame:
    """Grouped, time-marked cell array — the SHE hardware version.

    Args:
        config: frame parameters (window, alpha, group width, beta).
        num_cells: total number of cells ``M`` (multiple of ``w``).
        dtype: NumPy dtype of a cell.
        empty_value: value a cleaned cell takes (0 for BF/BM/CM/HLL,
            the max hash value for MinHash).
        cell_bits: bits a cell costs on hardware (for memory accounting;
            may be narrower than the NumPy dtype used to store it).
    """

    def __init__(
        self,
        config: SheConfig,
        num_cells: int,
        *,
        dtype=np.uint8,
        empty_value: int = 0,
        cell_bits: int = 1,
    ):
        self.config = config
        self.num_cells = require_positive_int("num_cells", num_cells)
        self.group_width = config.group_width
        if self.num_cells % self.group_width != 0:
            raise ValueError(
                f"num_cells ({num_cells}) must be a multiple of the group "
                f"width ({self.group_width})"
            )
        self.num_groups = self.num_cells // self.group_width
        self.t_cycle = config.t_cycle
        self.window = config.window
        self.cell_bits = require_positive_int("cell_bits", cell_bits)
        self.empty_value = empty_value
        self.cells = np.full(self.num_cells, empty_value, dtype=dtype)
        # Initialise stored marks to the current marks at t = 0 so the
        # (already empty) array does not need a spurious first cleaning.
        self.marks = self._current_marks_all(0)
        # cleaning-work telemetry (read by repro.obs.probes): how many
        # CheckGroup passes ran, and how many groups/cells they reset
        self.cleaning_checks = 0
        self.groups_cleaned = 0
        self.cells_cleaned = 0

    # -- mark arithmetic ---------------------------------------------------

    def _phase(self, gids):
        """``-d_gid = floor(Tcycle * gid / G)`` for ``int64`` group ids,
        exact while ``Tcycle * G < 2**63`` (as :meth:`_mark_split`
        assumes)."""
        g = self.num_groups
        p = gids * self.t_cycle
        if g & (g - 1):
            p //= g
        else:
            p >>= g.bit_length() - 1
        return p

    def _mark_split(
        self, times: np.ndarray | int
    ) -> tuple[np.ndarray | int, int, int]:
        """``(n, mark, cut)`` for non-decreasing ``int64`` ``times`` that
        span less than ``Tcycle``: at ``times[i]``, groups ``gid < n[i]``
        carry ``mark`` if ``i < cut`` else ``1 - mark``, and the rest
        carry the other one.  A scalar time is a one-time piece: ``n``
        is an int and ``cut`` is 1.

        With ``t = q*Tcycle + r``, ``(t + d_gid) // Tcycle`` is ``q``
        while ``d_gid >= -r`` and ``q - 1`` after; the offsets fall
        monotonically from 0, so the first run holds the
        ``ceil((r + 1) * G / Tcycle) <= G`` groups with ``floor(Tcycle *
        gid / G) <= r``, and the mark is ``q mod 2``.  The span bound
        leaves ``q`` two values, split at ``cut``, so ``n`` is the one
        per-time buffer the arithmetic allocates.
        """
        tc = self.t_cycle
        if isinstance(times, np.ndarray):
            q = int(times[0]) // tc
            n = times - q * tc  # r, in place from here on
            if int(n[-1]) < tc:
                cut = n.size  # most pieces cross no multiple of Tcycle
            else:
                cut = int(np.searchsorted(n, tc))
                n[cut:] -= tc
        else:
            # Python ints: NumPy's per-call cost would dominate one time
            q, n = divmod(int(times), tc)
            cut = 1
        # ceil((r + 1) * G / Tcycle) = (r*G + G + Tcycle - 1) // Tcycle
        g = self.num_groups
        n *= g
        n += g + tc - 1
        n //= tc
        return n, q & 1, cut

    def _current_marks(self, gids: np.ndarray, t: int) -> np.ndarray:
        """Current 1-bit marks of ``gids`` at time ``t`` (Algorithm 1 l.2)."""
        n, mark, _ = self._mark_split(t)
        return (np.asarray(gids) >= n).view(np.uint8) ^ np.uint8(mark)

    def _current_marks_all(self, t: int) -> np.ndarray:
        n, mark, _ = self._mark_split(t)
        out = np.full(self.num_groups, mark, dtype=np.uint8)
        out[n:] = 1 - mark
        return out

    def group_of(self, indices: np.ndarray) -> np.ndarray:
        """Group id of each cell index (a fresh ``int64`` array)."""
        idx = as_index_array(indices)
        w = self.group_width
        if w & (w - 1) == 0:
            return np.right_shift(idx, w.bit_length() - 1)
        return idx // w

    def _aged_run(self, t: int, bound: int) -> tuple[int, int, bool]:
        """``(lo, hi, inside)``: at ``t`` a group's age is at least an
        integer ``0 <= bound < Tcycle`` iff ``(lo <= gid < hi) ==
        inside``, from the scalar bounds of the module docstring."""
        tc, g = self.t_cycle, self.num_groups
        r = int(t) % tc

        def first_after(a: int) -> int:
            # groups gid < ceil(a*G/Tc) have floor(Tc*gid/G) < a
            return -(-a * g // tc)

        n = first_after(r + 1)
        n2 = first_after(r + 1 + tc - bound)
        if n2 < g:
            # young [0, n) and [n2, G) wrap round: aged [n, n2)
            return n, n2, True
        # young: [n1, n), with n1 <= 0 clamped to the first group
        return max(first_after(r + 1 - bound), 0), n, False

    def _aged_at_least(self, indices: np.ndarray, t: int, bound: int) -> np.ndarray:
        """``ages(indices, t) >= bound`` from group ids against the
        bounds of :meth:`_aged_run`: no offset, no per-cell modulo."""
        return self._gids_aged_at_least(self.group_of(indices), t, bound)

    def _gids_aged_at_least(self, gids: np.ndarray, t: int, bound: int) -> np.ndarray:
        """:meth:`_aged_at_least` of group ids, which it overwrites."""
        lo, hi, inside = self._aged_run(t, bound)
        gids -= lo  # groups below lo wrap to huge unsigned values
        if inside:
            return gids.view(np.uint64) < hi - lo
        return gids.view(np.uint64) >= hi - lo

    # -- frame protocol ----------------------------------------------------

    def _reset_groups(self, rows: np.ndarray) -> None:
        """Empty the groups a ``CheckGroup`` pass found stale (distinct
        group ids) and count the pass; the caller stores marks."""
        self.cleaning_checks += 1
        if rows.size:
            # integer row indices: a boolean row mask on the 2-D view is
            # several times slower to assign through
            self.cells.reshape(self.num_groups, self.group_width)[rows] = self.empty_value
            self.groups_cleaned += int(rows.size)
            self.cells_cleaned += int(rows.size) * self.group_width

    def prepare_query_all(self, t: int) -> None:
        """``CheckGroup`` over every group, in place, before a whole-array
        query (§3.3: groups are checked on insert and on query)."""
        cur = self._current_marks_all(t)
        self._reset_groups(np.flatnonzero(self.marks != cur))
        self.marks[:] = cur

    def _block_gids(self, gids: np.ndarray) -> np.ndarray:
        """Each group id's place in its block of ``G`` groups, the id the
        mark arithmetic (:meth:`_phase`, :meth:`_mark_split`,
        :meth:`_aged_run`) takes: ``gids`` itself here, where the arrays
        hold one block (a :class:`~repro.core.stack.StackedFrame` holds
        several)."""
        return gids

    def read(self, indices: np.ndarray, t: int) -> np.ndarray:
        """``cells[indices]`` as cleaning the touched groups at ``t``
        would leave them, without writing the frame: a cell whose group
        is stale (stored mark != current mark) reads as empty."""
        idx = as_index_array(indices)
        gids = self.group_of(idx)
        return self._read_gids(idx, gids, self._block_gids(gids), t)

    def _read_gids(
        self, idx: np.ndarray, gids: np.ndarray, local: np.ndarray, t: int
    ) -> np.ndarray:
        stale = self.marks.take(gids) != self._current_marks(local, t)
        vals = self.cells.take(idx)
        vals[stale] = self.empty_value
        return vals

    def read_mature(self, indices: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
        """``(read(indices, t), mature_mask(indices, t))`` from one pass
        of :meth:`group_of` over the indices."""
        idx = as_index_array(indices)
        gids = self.group_of(idx)
        local = self._block_gids(gids)
        vals = self._read_gids(idx, gids, local, t)
        return vals, self._gids_aged_at_least(local, t, self.window)

    def read_all(self, t: int) -> np.ndarray:
        """A fresh copy of ``cells`` as :meth:`prepare_query_all` at
        ``t`` would leave them; the frame itself is not written."""
        out = self.cells.copy()
        stale = np.flatnonzero(self.marks != self._current_marks_all(t))
        out.reshape(self.num_groups, self.group_width)[stale] = self.empty_value
        return out

    def ages(self, indices: np.ndarray, t: int) -> np.ndarray:
        """Age (time since virtual cleaning) of each cell's group."""
        return (t - self._phase(self.group_of(indices))) % self.t_cycle

    def group_ages(self, t: int) -> np.ndarray:
        """Ages of all ``G`` groups, shape ``(G,)``."""
        return (t - self._phase(np.arange(self.num_groups))) % self.t_cycle

    def all_cell_ages(self, t: int) -> np.ndarray:
        """Ages of all ``M`` cells (each cell inherits its group's age)."""
        return np.repeat(self.group_ages(t), self.group_width)

    def mature_mask(self, indices: np.ndarray, t: int) -> np.ndarray:
        """True where the cell is perfect or aged (age >= N), §3.2."""
        return self._aged_at_least(indices, t, self.window)

    def legal_mask(self, indices: np.ndarray, t: int) -> np.ndarray:
        """True where the cell's age lies in the legal band [beta*N, Tcycle)."""
        return self._aged_at_least(indices, t, self.config.legal_low)

    def legal_groups(self, t: int) -> np.ndarray:
        """Boolean mask over groups whose age is in the legal band."""
        lo, hi, inside = self._aged_run(t, self.config.legal_low)
        legal = np.full(self.num_groups, not inside)
        legal[lo:hi] = inside
        return legal

    def reset(self) -> None:
        """Return the frame to its empty t=0 state, in place: the arrays
        may be blocks of a stack's base (:mod:`repro.core.stack`)."""
        self.cells.fill(self.empty_value)
        self.marks[:] = self._current_marks_all(0)
        self.cleaning_checks = 0
        self.groups_cleaned = 0
        self.cells_cleaned = 0

    @property
    def memory_bytes(self) -> int:
        """Hardware memory: M cells of ``cell_bits`` plus one mark bit/group."""
        bits = self.num_cells * self.cell_bits + self.num_groups
        return (bits + 7) // 8
