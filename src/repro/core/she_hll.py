"""SHE-HLL: HyperLogLog under SHE (§4.3).

Each register is its own group (``w = 1``, so every register carries a
1-bit time mark).  Insertion stores the *rank* (leading-zero count + 1)
of the value hash, max-merged unless the register's mark is stale, in
which case the register restarts from the new rank (§4.3's
``C[i] <- l_zero + 1``).  Queries use only registers in the legal age
band and rescale the standard HLL estimator from the ``k`` legal
registers to the whole array: ``C_hat = alpha_k * k * M / sum(2^-l_j)``,
with Flajolet et al.'s small-range (linear-counting) correction applied
on the legal subsample.
"""

from __future__ import annotations

import numpy as np

from repro.common.hashing import HashFamily, leading_zeros_32
from repro.common.validation import require_positive_int
from repro.core.base import FrameKind, SheSketchBase, make_frame
from repro.core.config import SheConfig
from repro.core.csm import UpdateKind

__all__ = ["SheHyperLogLog", "hll_alpha"]

#: ``2^-rank`` for every rank a 5-bit register holds, exact powers of
#: two: an estimate looks its terms up rather than running ``exp2``,
#: whose first call pages ~0.3 MB of NumPy code into a fresh worker
_NEG_POW2 = np.array([2.0 ** -rank for rank in range(32)])


def hll_alpha(m: int) -> float:
    """Flajolet et al.'s bias-correction constant for ``m`` registers."""
    if m <= 16:
        return 0.673
    if m <= 32:
        return 0.697
    if m <= 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


class SheHyperLogLog(SheSketchBase):
    """Sliding-window HyperLogLog with SHE cleaning.

    Args:
        window: sliding-window size N (items).
        num_registers: number of 5-bit registers M.
        alpha: cleaning stretch (paper default 0.2).
        beta: lower edge of the legal age band.
        frame: ``"hardware"`` or ``"software"``.
        seed: hash seed (register-select and value hashes derive from it).
    """

    cell_bits = 5

    def __init__(
        self,
        window: int,
        num_registers: int,
        *,
        alpha: float = 0.2,
        beta: float = 0.9,
        frame: FrameKind = "hardware",
        seed: int = 3,
    ):
        super().__init__()
        self.num_registers = require_positive_int("num_registers", num_registers)
        # each register is its own group (w = 1), per §4.3
        self.config = SheConfig(window=window, alpha=alpha, group_width=1, beta=beta)
        fam = HashFamily(2, seed=seed)
        self._select = HashFamily(1, seed=int(fam.seeds[0]))
        self._value = HashFamily(1, seed=int(fam.seeds[1]))
        self.frame = make_frame(
            frame,
            self.config,
            self.num_registers,
            dtype=np.uint8,
            empty_value=0,
            cell_bits=self.cell_bits,
        )

    def _touch_columns(self, keys: np.ndarray, times: np.ndarray):
        idx = self._select.indices(keys, self.num_registers).T  # (1, n)
        ranks = leading_zeros_32(self._value.values(keys)[:, 0]) + 1
        # 5-bit registers saturate at 31
        ranks = np.minimum(ranks, 31)
        return times, idx, ranks.reshape(idx.shape), UpdateKind.MAX_RANK

    def cardinality(self, t: int | None = None) -> float:
        """Estimate the number of distinct keys in the window."""
        t = self._resolve_time(t)
        self.frame.prepare_query_all(t)
        legal = self.frame.legal_groups(t)
        k = int(np.count_nonzero(legal))
        if k == 0:
            return 0.0
        ranks = self.frame.cells[legal]
        z = float(np.sum(_NEG_POW2.take(ranks)))
        est_sub = hll_alpha(k) * k * k / z
        if est_sub <= 2.5 * k:
            zeros = int(np.count_nonzero(ranks == 0))
            if zeros > 0:
                est_sub = k * float(np.log(k / zeros))
        # rescale from the k-register legal subsample to all M registers
        return est_sub * self.num_registers / k

    def _probe_extra(self) -> dict:
        return {"num_registers": self.num_registers}

    @property
    def memory_bytes(self) -> int:
        return self.frame.memory_bytes

    def reset(self) -> None:
        """Clear all state and rewind the clock."""
        self.frame.reset()
        self.t = 0
