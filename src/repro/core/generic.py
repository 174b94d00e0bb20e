"""The generic face of the framework: lift any CSM sketch to windows.

The five named classes (:class:`SheBloomFilter` etc.) hard-code the
paper's query strategies; this module exposes the underlying lifting
for *any* ⟨C, K, F⟩ triple so downstream users can slide their own
CSM-shaped sketch.  ``GenericSheSketch`` handles hashing, the clock and
cleaning; the user supplies the query logic on top of
:meth:`read_cells`, which returns cell values together with their
age classification — everything §3.2's age-sensitive selection needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.hashing import HashFamily, leading_zeros_32
from repro.common.validation import as_key_array, require_positive_int
from repro.core.base import FrameKind, SheSketchBase, make_frame
from repro.core.config import SheConfig
from repro.core.csm import CsmSpec, UpdateKind

__all__ = ["CellReadout", "GenericSheSketch"]


@dataclass(frozen=True)
class CellReadout:
    """What a query sees for each mapped cell of each queried key."""

    values: np.ndarray  # (n, k) cell contents
    ages: np.ndarray    # (n, k) cell ages in time units
    mature: np.ndarray  # (n, k) age >= N
    legal: np.ndarray   # (n, k) age >= beta*N


class GenericSheSketch(SheSketchBase):
    """SHE lifting of an arbitrary finite-K CSM sketch.

    Args:
        spec: the ⟨C, K, F⟩ description (``locations`` must be an int;
            MinHash-style "all" sketches need the dedicated
            :class:`~repro.core.she_mh.SheMinHash` chunking).
        window: sliding-window size N.
        num_cells: cell count M.
        alpha: cleaning stretch.
        group_width: hardware group width.
        beta: legal band lower fraction.
        frame: ``"hardware"`` or ``"software"``.
        seed: hash seed.
    """

    def __init__(
        self,
        spec: CsmSpec,
        window: int,
        num_cells: int,
        *,
        alpha: float = 0.2,
        group_width: int = 64,
        beta: float = 0.9,
        frame: FrameKind = "hardware",
        seed: int = 7,
    ):
        super().__init__()
        if not isinstance(spec.locations, int):
            raise ValueError(
                "GenericSheSketch supports finite K only; use SheMinHash "
                "for sketches that touch every cell"
            )
        self.spec = spec
        require_positive_int("num_cells", num_cells)
        self.config = SheConfig(
            window=window, alpha=alpha, group_width=group_width, beta=beta
        )
        m = (
            (num_cells // group_width) * group_width
            if frame == "hardware"
            else num_cells
        )
        if m < 1:
            raise ValueError(
                f"num_cells ({num_cells}) must fit at least one group of {group_width}"
            )
        self.num_cells_total = m
        dtype = np.uint8 if spec.default_cell_bits <= 8 else np.uint32
        self.hashes = HashFamily(spec.locations, seed=seed)
        self._value_hash = HashFamily(1, seed=seed ^ 0xABCDEF)
        self.frame = make_frame(
            frame,
            self.config,
            m,
            dtype=dtype,
            empty_value=spec.empty_value,
            cell_bits=spec.default_cell_bits,
        )

    @classmethod
    def from_memory(
        cls,
        spec: CsmSpec,
        window: int,
        memory_bytes: int,
        *,
        alpha: float = 0.2,
        group_width: int = 64,
        beta: float = 0.9,
        frame: FrameKind = "hardware",
        seed: int = 7,
    ) -> "GenericSheSketch":
        """Size the lifted sketch for a memory budget (cells + marks).

        Subclasses that bake their spec into ``__init__(window,
        num_cells, ...)`` should instead reuse the shared sizing:
        ``from_memory = classmethod(repro.core.base.sized_from_memory)``
        with a ``cell_bits`` class attribute.
        """
        cfg = SheConfig(window=window, alpha=alpha, group_width=group_width, beta=beta)
        m = cfg.cells_for_memory(memory_bytes, spec.default_cell_bits)
        return cls(
            spec,
            window,
            m,
            alpha=alpha,
            group_width=group_width,
            beta=beta,
            frame=frame,
            seed=seed,
        )

    def _operands(self, keys: np.ndarray) -> np.ndarray | None:
        """Per-key operand the update function consumes, if any."""
        if self.spec.update is UpdateKind.MAX_RANK:
            return leading_zeros_32(self._value_hash.values(keys)[:, 0]) + 1
        if self.spec.update is UpdateKind.MIN_HASH:
            mask = np.uint64((1 << self.spec.default_cell_bits) - 1)
            return (self._value_hash.values(keys)[:, 0] & mask).astype(np.uint64)
        return None

    def _touch_columns(self, keys: np.ndarray, times: np.ndarray):
        # one time per item and the hashes' touch-major (k, n) block;
        # operands are per touch, one row per hash function
        idx = self.hashes.indices(keys, self.num_cells_total).T
        ops = self._operands(keys)
        touch_ops = None if ops is None else np.tile(ops, (idx.shape[0], 1))
        return times, idx, touch_ops, self.spec.update

    def read_cells(self, keys, t: int | None = None) -> CellReadout:
        """Cleaned cell contents + age classification for queried keys."""
        t = self._resolve_time(t)
        keys = as_key_array(keys)
        idx = self.hashes.indices(keys, self.num_cells_total)
        flat = idx.reshape(-1)
        shape = idx.shape
        values, mature = self.frame.read_mature(flat, t)
        return CellReadout(
            values=values.reshape(shape),
            ages=self.frame.ages(flat, t).reshape(shape),
            mature=mature.reshape(shape),
            legal=self.frame.legal_mask(flat, t).reshape(shape),
        )

    @property
    def memory_bytes(self) -> int:
        return self.frame.memory_bytes

    def reset(self) -> None:
        """Clear all state and rewind the clock."""
        self.frame.reset()
        self.t = 0
