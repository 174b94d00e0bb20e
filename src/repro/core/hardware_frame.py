"""Hardware-version SHE frame: grouped cells with 1-bit time marks (§3.3).

The cell array is split into ``G`` groups of ``w`` contiguous cells.
Each group ``gid`` has a fixed time offset ``d_gid = -floor(Tcycle *
gid / G)`` and a stored 1-bit mark ``m[gid]``.  The *current* mark of a
group, ``floor((t + d_gid) / Tcycle) mod 2``, flips once per cleaning
cycle; whenever a touched group's stored mark disagrees, the whole group
is lazily reset (Algorithm 1: ``CheckGroup``).  The group's *age* —
time since its virtual cleaning instant — is ``(t + d_gid) mod Tcycle``.

Inserts run ``CheckGroup`` in :func:`repro.core.batch.apply_columnar`,
whole-array queries in :meth:`HardwareFrame.prepare_query_all`.

This reproduces on-demand + group cleaning exactly, including the known
failure mode: a group untouched for two full cycles wraps its mark back
to the current value and stale cells survive (quantified by Eq. 1;
see :mod:`repro.analysis.ondemand`).
"""

from __future__ import annotations

import numpy as np

from repro.common.validation import require_positive_int
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
        # d_gid = -floor(Tcycle * gid / G): offsets evenly spaced over a cycle.
        gids = np.arange(self.num_groups, dtype=np.int64)
        self.offsets = -((self.t_cycle * gids) // self.num_groups)
        # Initialise stored marks to the current marks at t = 0 so the
        # (already empty) array does not need a spurious first cleaning.
        self.marks = self._current_marks_all(0)
        # cleaning-work telemetry (read by repro.obs.probes): how many
        # CheckGroup passes ran, and how many groups/cells they reset
        self.cleaning_checks = 0
        self.groups_cleaned = 0
        self.cells_cleaned = 0

    # -- mark arithmetic ---------------------------------------------------

    def _mark_split(self, t: int) -> tuple[int, int]:
        """``(n, mark)``: groups ``gid < n`` carry ``mark`` at time ``t``,
        the rest carry ``1 - mark``.

        With ``t = q*Tcycle + r``, ``(t + d_gid) // Tcycle`` is ``q``
        while ``d_gid >= -r`` and ``q - 1`` after; the offsets fall
        monotonically from 0, so the first run holds the
        ``ceil((r + 1) * G / Tcycle)`` groups with ``floor(Tcycle *
        gid / G) <= r``.
        """
        q, r = divmod(int(t), self.t_cycle)
        n = min(self.num_groups, -(-(r + 1) * self.num_groups // self.t_cycle))
        return n, q % 2

    def _current_marks(self, gids: np.ndarray, t: int) -> np.ndarray:
        """Current 1-bit marks of ``gids`` at time ``t`` (Algorithm 1 l.2)."""
        n, mark = self._mark_split(t)
        return (np.asarray(gids) >= n).view(np.uint8) ^ np.uint8(mark)

    def _current_marks_all(self, t: int) -> np.ndarray:
        n, mark = self._mark_split(t)
        out = np.full(self.num_groups, mark, dtype=np.uint8)
        out[n:] = 1 - mark
        return out

    def group_of(self, indices: np.ndarray) -> np.ndarray:
        """Group id of each cell index."""
        return np.asarray(indices, dtype=np.int64) // self.group_width

    # -- frame protocol ----------------------------------------------------

    def _reset_groups(self, stale: np.ndarray) -> None:
        """Empty the groups a ``CheckGroup`` pass found stale (boolean
        mask over groups) and count the pass; the caller stores marks."""
        self.cleaning_checks += 1
        # integer row indices: a boolean row mask on the 2-D view is
        # several times slower to assign through
        rows = np.flatnonzero(stale)
        if rows.size:
            self.cells.reshape(self.num_groups, self.group_width)[rows] = self.empty_value
            self.groups_cleaned += int(rows.size)
            self.cells_cleaned += int(rows.size) * self.group_width

    def prepare_query_all(self, t: int) -> None:
        """``CheckGroup`` over every group, in place, before a whole-array
        query (§3.3: groups are checked on insert and on query)."""
        cur = self._current_marks_all(t)
        self._reset_groups(self.marks != cur)
        self.marks[:] = cur

    def read(self, indices: np.ndarray, t: int) -> np.ndarray:
        """``cells[indices]`` as cleaning the touched groups at ``t``
        would leave them, without writing the frame: a cell whose group
        is stale (stored mark != current mark) reads as empty."""
        gids = self.group_of(indices)
        stale = self.marks[gids] != self._current_marks(gids, t)
        vals = self.cells[indices]
        vals[stale] = self.empty_value
        return vals

    def read_all(self, t: int) -> np.ndarray:
        """A fresh copy of ``cells`` as :meth:`prepare_query_all` at
        ``t`` would leave them; the frame itself is not written."""
        out = self.cells.copy()
        stale = np.flatnonzero(self.marks != self._current_marks_all(t))
        out.reshape(self.num_groups, self.group_width)[stale] = self.empty_value
        return out

    def ages(self, indices: np.ndarray, t: int) -> np.ndarray:
        """Age (time since virtual cleaning) of each cell's group."""
        gids = self.group_of(indices)
        return (t + self.offsets[gids]) % self.t_cycle

    def group_ages(self, t: int) -> np.ndarray:
        """Ages of all ``G`` groups, shape ``(G,)``."""
        return (t + self.offsets) % self.t_cycle

    def all_cell_ages(self, t: int) -> np.ndarray:
        """Ages of all ``M`` cells (each cell inherits its group's age)."""
        return np.repeat(self.group_ages(t), self.group_width)

    def mature_mask(self, indices: np.ndarray, t: int) -> np.ndarray:
        """True where the cell is perfect or aged (age >= N), §3.2."""
        return self.ages(indices, t) >= self.window

    def legal_mask(self, indices: np.ndarray, t: int) -> np.ndarray:
        """True where the cell's age lies in the legal band [beta*N, Tcycle)."""
        return self.ages(indices, t) >= self.config.legal_low

    def legal_groups(self, t: int) -> np.ndarray:
        """Boolean mask over groups whose age is in the legal band."""
        return self.group_ages(t) >= self.config.legal_low

    def reset(self) -> None:
        """Return the frame to its empty t=0 state."""
        self.cells.fill(self.empty_value)
        self.marks = self._current_marks_all(0)
        self.cleaning_checks = 0
        self.groups_cleaned = 0
        self.cells_cleaned = 0

    @property
    def memory_bytes(self) -> int:
        """Hardware memory: M cells of ``cell_bits`` plus one mark bit/group."""
        bits = self.num_cells * self.cell_bits + self.num_groups
        return (bits + 7) // 8
