"""Software-version SHE frame: a sweeping per-cell cleaning process (§3.2).

A virtual cleaning pointer moves over the ``M`` cells at constant speed,
covering the whole array once every ``Tcycle`` time units, resetting
each cell as it passes, then wrapping around.  In continuous terms the
pointer position at time ``t`` is ``p(t) = M * t / Tcycle``; cell ``j``
is cleaned whenever ``p(t)`` crosses ``j + c*M`` for integer ``c``.

We keep everything in exact integer arithmetic: the pointer has crossed
``B(t) = floor(t * M / Tcycle)`` cell boundaries by time ``t``, so
advancing from ``t0`` to ``t1`` resets cell indices ``(B(t0), B(t1)]``
modulo ``M`` (everything, if more than ``M`` boundaries were crossed).

A cell's age is the time since its latest crossing; comparisons against
the window ``N`` use the common numerator ``age * M`` to stay integral.
"""

from __future__ import annotations

import numpy as np

from repro.common.validation import require_positive_int
from repro.core.config import SheConfig

__all__ = ["SoftwareFrame"]


class SoftwareFrame:
    """Cell array cleaned by a constant-speed circular sweep.

    Mirrors the :class:`~repro.core.hardware_frame.HardwareFrame` API so
    the five SHE sketches run on either frame unchanged.  The software
    version has no groups or marks — cleaning is per cell and *eager*
    relative to the stream (applied lazily in code, but the state after
    :meth:`advance` is exactly what an always-running sweeper would leave).
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
        # kept for API parity; the sweep ignores grouping
        self.group_width = 1
        self.num_groups = self.num_cells
        self.t_cycle = config.t_cycle
        self.window = config.window
        self.cell_bits = require_positive_int("cell_bits", cell_bits)
        self.empty_value = empty_value
        self.cells = np.full(self.num_cells, empty_value, dtype=dtype)
        # number of cell boundaries the sweeper has crossed so far
        self._boundaries_done = 0
        # cleaning-work telemetry (read by repro.obs.probes); each cell
        # is its own group here, so the two reset counters track together
        self.cleaning_checks = 0
        self.groups_cleaned = 0
        self.cells_cleaned = 0

    # -- sweep bookkeeping ---------------------------------------------------

    def _boundaries_at(self, t: int) -> int:
        """Index of the last boundary crossed by time ``t``.

        Boundary ``b`` (cleaning cell ``b % M``) is crossed at time
        ``ceil(b * Tcycle / M)``, so boundaries ``0..floor(t*M/Tcycle)``
        have all been crossed by integer time ``t`` — boundary 0 at
        ``t = 0``, matching §3.2's "starts from the leftmost cell".
        """
        return (t * self.num_cells) // self.t_cycle

    def advance(self, t: int) -> None:
        """Apply all cleanings the sweeper performed up to time ``t``.

        Cleans the cells of boundaries ``(done, B(t)]``; boundary 0 is
        consumed at construction (the array starts empty).
        """
        self.cleaning_checks += 1
        swept = self._sweep(self.cells, t)
        if swept:
            self.groups_cleaned += swept
            self.cells_cleaned += swept
            self._boundaries_done = self._boundaries_at(t)

    def _sweep(self, cells: np.ndarray, t: int) -> int:
        """Reset, in ``cells``, the cells of boundaries ``(done, B(t)]``
        (mod M) and return how many that is."""
        count = self._boundaries_at(t) - self._boundaries_done
        if count <= 0:
            return 0
        if count >= self.num_cells:
            cells.fill(self.empty_value)
            return self.num_cells
        start = (self._boundaries_done + 1) % self.num_cells
        end = start + count
        cells[start:min(end, self.num_cells)] = self.empty_value
        cells[: max(end - self.num_cells, 0)] = self.empty_value
        return count

    # -- frame protocol --------------------------------------------------------

    def prepare_query_all(self, t: int) -> None:
        self.advance(t)

    def read(self, indices: np.ndarray, t: int) -> np.ndarray:
        """``cells[indices]`` as :meth:`advance` to ``t`` would leave
        them, without writing the frame: cells the sweeper has passed
        since the last cleaning read as empty."""
        vals = self.cells[indices]
        count = self._boundaries_at(t) - self._boundaries_done
        if count > 0:
            j = np.asarray(indices, dtype=np.int64) - (self._boundaries_done + 1)
            vals[j % self.num_cells < count] = self.empty_value
        return vals

    def read_mature(self, indices: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
        """``(read(indices, t), mature_mask(indices, t))``: the frames'
        one point-query read (cells are their own groups here)."""
        return self.read(indices, t), self.mature_mask(indices, t)

    def read_all(self, t: int) -> np.ndarray:
        """A fresh copy of ``cells`` as :meth:`prepare_query_all` at
        ``t`` would leave them; the frame itself is not written."""
        out = self.cells.copy()
        self._sweep(out, t)
        return out

    def group_of(self, indices: np.ndarray) -> np.ndarray:
        """Each cell is its own group in the software version."""
        return np.asarray(indices, dtype=np.int64)

    def _clean_times(self, indices: np.ndarray, t: int) -> np.ndarray:
        """Time of each cell's latest sweep cleaning as of time ``t``.

        Cell ``j`` was last cleaned at the crossing ``b_j``: the largest
        integer congruent to ``j`` (mod M) with ``b_j <= B(t)``, which
        happened at time ``ceil(b_j * Tcycle / M)``.  A write to ``j``
        at time ``t_i <= t`` is still there at ``t`` iff ``clean_t <=
        t_i``.
        """
        j = np.asarray(indices, dtype=np.int64)
        b_j = ((self._boundaries_at(t) - j) // self.num_cells) * self.num_cells + j
        return -((-b_j * self.t_cycle) // self.num_cells)  # ceil div

    def _age_numerators(self, indices: np.ndarray, t: int) -> np.ndarray:
        """Cell ages multiplied by ``M`` (exact integers)."""
        return (t - self._clean_times(indices, t)) * self.num_cells

    def ages(self, indices: np.ndarray, t: int) -> np.ndarray:
        """Cell ages in (integer-floored) time units."""
        return self._age_numerators(indices, t) // self.num_cells

    def all_cell_ages(self, t: int) -> np.ndarray:
        return self.ages(np.arange(self.num_cells), t)

    def group_ages(self, t: int) -> np.ndarray:
        """Per-"group" ages; groups are single cells here."""
        return self.all_cell_ages(t)

    def mature_mask(self, indices: np.ndarray, t: int) -> np.ndarray:
        """True where age >= N (perfect or aged cells)."""
        return self._age_numerators(indices, t) >= self.window * self.num_cells

    def legal_mask(self, indices: np.ndarray, t: int) -> np.ndarray:
        """True where age >= beta*N (legal band for estimators)."""
        return self._age_numerators(indices, t) >= self.config.legal_low * self.num_cells

    def legal_groups(self, t: int) -> np.ndarray:
        return self.legal_mask(np.arange(self.num_cells), t)

    def reset(self) -> None:
        self.cells.fill(self.empty_value)
        self._boundaries_done = 0
        self.cleaning_checks = 0
        self.groups_cleaned = 0
        self.cells_cleaned = 0

    @property
    def memory_bytes(self) -> int:
        """Software memory: just the cells (no marks, no timestamps)."""
        bits = self.num_cells * self.cell_bits
        return (bits + 7) // 8
