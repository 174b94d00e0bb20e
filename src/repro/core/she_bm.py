"""SHE-BM: the Bitmap (linear probabilistic counter) under SHE (§4.1).

One hash sets one bit per insertion.  Cardinality queries use the
*legal* age band ``[beta*N, Tcycle)`` (§4.1): groups slightly younger
than the window under-count, aged groups over-count, and averaging over
the band debiases the estimate (Eq. 3 bounds the residual by
``alpha*T/4C``).  With ``u`` zero bits among the ``w * l`` bits of the
``l`` legal groups the estimate is ``-M * ln(u / (w*l))`` — the Whang
et al. MLE rescaled from the legal sample to the whole array.
"""

from __future__ import annotations

import numpy as np

from repro.common.hashing import HashFamily
from repro.common.validation import require_positive_int
from repro.core.base import FrameKind, SheSketchBase, make_frame
from repro.core.config import SheConfig
from repro.core.csm import UpdateKind

__all__ = ["SheBitmap"]


class SheBitmap(SheSketchBase):
    """Sliding-window bitmap cardinality estimator with SHE cleaning.

    Args:
        window: sliding-window size N (items).
        num_bits: number of bits M.
        alpha: cleaning stretch (paper default 0.2 for SHE-BM).
        beta: lower edge of the legal age band (fraction of N).
        group_width: cells per hardware group (paper default 64).
        frame: ``"hardware"`` or ``"software"``.
        seed: hash seed.
    """

    cell_bits = 1

    def __init__(
        self,
        window: int,
        num_bits: int,
        *,
        alpha: float = 0.2,
        beta: float = 0.9,
        group_width: int = 64,
        frame: FrameKind = "hardware",
        seed: int = 2,
    ):
        super().__init__()
        require_positive_int("num_bits", num_bits)
        self.config = SheConfig(
            window=window, alpha=alpha, group_width=group_width, beta=beta
        )
        m = (num_bits // group_width) * group_width if frame == "hardware" else num_bits
        if m < 1:
            raise ValueError(
                f"num_bits ({num_bits}) must fit at least one group of {group_width}"
            )
        self.num_bits = m
        self.hashes = HashFamily(1, seed=seed)
        self.frame = make_frame(
            frame, self.config, m, dtype=np.uint8, empty_value=0, cell_bits=self.cell_bits
        )

    def _touch_columns(self, keys: np.ndarray, times: np.ndarray):
        idx = self.hashes.indices(keys, self.num_bits).T  # (1, n)
        return times, idx, None, UpdateKind.SET_ONE

    def cardinality(self, t: int | None = None) -> float:
        """Estimate the number of distinct keys in the window."""
        t = self._resolve_time(t)
        self.frame.prepare_query_all(t)
        legal = self.frame.legal_groups(t)
        num_legal = int(np.count_nonzero(legal))
        if num_legal == 0:
            return 0.0
        w = self.frame.group_width
        view = self.frame.cells.reshape(self.frame.num_groups, w)
        legal_bits = num_legal * w
        zeros = legal_bits - int(np.count_nonzero(view[legal]))
        if zeros == 0:
            zeros = 0.5  # saturated: report the max resolvable cardinality
        est = -float(self.num_bits) * float(np.log(zeros / legal_bits))
        return max(est, 0.0)

    def _probe_extra(self) -> dict:
        return {"num_bits": self.num_bits}

    @property
    def memory_bytes(self) -> int:
        return self.frame.memory_bytes

    def reset(self) -> None:
        """Clear all state and rewind the clock."""
        self.frame.reset()
        self.t = 0
