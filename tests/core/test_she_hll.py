"""Tests for SHE-HLL (sliding-window HyperLogLog)."""

import numpy as np
import pytest

from repro.core import SheHyperLogLog, hll_alpha
from repro.exact import ExactWindow

from helpers import zipf_stream


@pytest.fixture(params=["hardware", "software"])
def frame(request):
    return request.param


class TestHllAlpha:
    def test_known_constants(self):
        assert hll_alpha(16) == 0.673
        assert hll_alpha(32) == 0.697
        assert hll_alpha(64) == 0.709

    def test_large_m_formula(self):
        assert abs(hll_alpha(1024) - 0.7213 / (1 + 1.079 / 1024)) < 1e-12

    def test_monotone_towards_limit(self):
        assert hll_alpha(128) < hll_alpha(10**6) < 0.7213


class TestSheHll:
    def test_empty_zero(self, frame):
        h = SheHyperLogLog(128, 256, frame=frame)
        assert h.cardinality() == 0.0

    def test_registers_are_own_groups(self):
        h = SheHyperLogLog(128, 256, frame="hardware")
        assert h.frame.group_width == 1
        assert h.frame.num_groups == 256

    def test_estimates_track_truth_on_average(self, frame):
        n = 1024
        errs = []
        for seed in range(4):
            h = SheHyperLogLog(n, 1024, frame=frame, seed=seed)
            ew = ExactWindow(n)
            stream = zipf_stream(3 * n, 1500, seed=seed + 10)
            h.insert_many(stream)
            ew.insert_many(stream)
            errs.append((h.cardinality() - ew.cardinality()) / ew.cardinality())
        # mean signed error small: individual runs are noisy (~6%/sqrt
        # of legal registers), the average must not be wildly biased
        assert abs(np.mean(errs)) < 0.35

    def test_large_cardinality_regime(self, frame):
        # enough distinct keys to leave linear counting
        n = 4096
        h = SheHyperLogLog(n, 512, frame=frame)
        ew = ExactWindow(n)
        stream = np.random.default_rng(2).integers(0, 1 << 40, size=2 * n, dtype=np.uint64)
        h.insert_many(stream)
        ew.insert_many(stream)
        assert abs(h.cardinality() - ew.cardinality()) / ew.cardinality() < 0.5

    def test_rank_saturates_at_31(self, frame):
        h = SheHyperLogLog(128, 64, frame=frame)
        h.insert_many(np.arange(10_000, dtype=np.uint64))
        assert int(h.frame.cells.max()) <= 31

    @pytest.mark.parametrize("n_items", [40, 300, 5000])
    def test_estimate_equals_the_exp2_formula(self, frame, n_items):
        """The looked-up ``2^-rank`` terms give the textbook estimate
        bit for bit, in the linear-counting range and out of it."""
        h = SheHyperLogLog(2048, 512, frame=frame, seed=9)
        h.insert_many(np.random.default_rng(n_items).integers(
            0, 1 << 40, size=n_items, dtype=np.uint64))
        got = h.cardinality()
        legal = h.frame.legal_groups(h.t)
        k = int(np.count_nonzero(legal))
        regs = h.frame.cells[legal].astype(np.float64)
        est = hll_alpha(k) * k * k / float(np.sum(np.exp2(-regs)))
        if est <= 2.5 * k and np.count_nonzero(regs == 0):
            est = k * float(np.log(k / np.count_nonzero(regs == 0)))
        assert got == est * h.num_registers / k

    def test_from_memory(self):
        h = SheHyperLogLog.from_memory(128, 128)
        assert h.memory_bytes <= 128

    def test_memory_counts_marks(self):
        h = SheHyperLogLog(128, 256, frame="hardware")
        assert h.memory_bytes == (256 * 5 + 256 + 7) // 8

    def test_reset(self, frame):
        h = SheHyperLogLog(128, 256, frame=frame)
        h.insert_many(np.arange(100, dtype=np.uint64))
        h.reset()
        assert h.cardinality() == 0.0

    def test_window_expiry(self, frame):
        n = 512
        h = SheHyperLogLog(n, 512, frame=frame, alpha=0.2)
        h.insert_many(np.arange(n, dtype=np.uint64))
        h.insert_many(np.full(4 * n, 7, dtype=np.uint64))
        # only one distinct key remains in the window
        assert h.cardinality() < 0.2 * n
