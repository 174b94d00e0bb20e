"""SHE-CM: the Count-Min sketch under SHE (§4.4).

As in the paper, the structure mirrors SHE-BF with counters in place of
bits: one array of M counters, ``k`` hash functions into it, each
insertion incrementing ``k`` counters (after on-demand group cleaning).
Queries ignore counters younger than the window — using them would
break Count-Min's never-underestimate guarantee (§4.4) — and return the
minimum of the mature mapped counters.  In the rare case that *every*
mapped counter is young (probability ``(1/(1+alpha))^k``), we fall back
to the minimum over all mapped counters; this is the only point where a
(documented) underestimate can occur.
"""

from __future__ import annotations

import numpy as np

from repro.common.hashing import HashFamily
from repro.common.validation import as_key_array, require_positive_int
from repro.core.base import FrameKind, SheSketchBase, make_frame
from repro.core.config import SheConfig
from repro.core.csm import UpdateKind

__all__ = ["SheCountMin"]


class SheCountMin(SheSketchBase):
    """Sliding-window Count-Min frequency estimator with SHE cleaning.

    Args:
        window: sliding-window size N (items).
        num_counters: number of counters M.
        num_hashes: k (paper default 8 for SHE-CM).
        alpha: cleaning stretch (paper default 1 for SHE-CM).
        group_width: counters per hardware group (paper default 64).
        frame: ``"hardware"`` or ``"software"``.
        seed: hash-family seed.
    """

    cell_bits = 32

    def __init__(
        self,
        window: int,
        num_counters: int,
        *,
        num_hashes: int = 8,
        alpha: float = 1.0,
        group_width: int = 64,
        frame: FrameKind = "hardware",
        seed: int = 4,
    ):
        super().__init__()
        require_positive_int("num_counters", num_counters)
        self.config = SheConfig(window=window, alpha=alpha, group_width=group_width)
        m = (
            (num_counters // group_width) * group_width
            if frame == "hardware"
            else num_counters
        )
        if m < 1:
            raise ValueError(
                f"num_counters ({num_counters}) must fit at least one group "
                f"of {group_width}"
            )
        self.num_counters = m
        self.num_hashes = require_positive_int("num_hashes", num_hashes)
        self.hashes = HashFamily(self.num_hashes, seed=seed)
        self.frame = make_frame(
            frame,
            self.config,
            m,
            dtype=np.uint32,
            empty_value=0,
            cell_bits=self.cell_bits,
        )

    def _touch_columns(self, keys: np.ndarray, times: np.ndarray):
        # one time per item and the hashes' contiguous touch-major
        # (k, n) block: no per-touch times, no transpose copy
        idx = self.hashes.indices(keys, self.num_counters).T
        return times, idx, None, UpdateKind.ADD_ONE

    def frequency(self, key: int, t: int | None = None) -> float:
        """Estimate how many times ``key`` appeared in the window."""
        return float(self.frequency_many(np.asarray([key], dtype=np.uint64), t)[0])

    def frequency_many(self, keys, t: int | None = None) -> np.ndarray:
        """Vectorised frequency estimates for a batch of keys."""
        t = self._resolve_time(t)
        keys = as_key_array(keys)
        idx = self.hashes.indices(keys, self.num_counters).T  # (k, n)
        counts, mature = self.frame.read_mature(idx.reshape(-1), t)
        counts = counts.reshape(idx.shape).astype(np.float64)
        mature = mature.reshape(idx.shape)
        # min over mature counters; fall back to min over all if none mature
        masked = np.where(mature, counts, np.inf)
        est = np.min(masked, axis=0)
        no_mature = ~np.any(mature, axis=0)
        if np.any(no_mature):
            est[no_mature] = np.min(counts[:, no_mature], axis=0)
        return est

    def _probe_extra(self) -> dict:
        return {"num_counters": self.num_counters, "num_hashes": self.num_hashes}

    @property
    def memory_bytes(self) -> int:
        return self.frame.memory_bytes

    def reset(self) -> None:
        """Clear all state and rewind the clock."""
        self.frame.reset()
        self.t = 0
