"""Gap-filling tests for base plumbing and less-travelled paths."""

import numpy as np
import pytest

from repro.core import (
    BITMAP_SPEC,
    HYPERLOGLOG_SPEC,
    MINHASH_SPEC,
    GenericSheSketch,
    SheBloomFilter,
    make_frame,
)
from repro.core.base import SheSketchBase
from repro.core.config import SheConfig


class TestSheSketchBase:
    def test_resolve_time_defaults_to_now(self):
        bf = SheBloomFilter(64, 128)
        bf.insert_many(np.arange(5, dtype=np.uint64))
        assert bf._resolve_time(None) == 5

    def test_resolve_time_rejects_negative(self):
        bf = SheBloomFilter(64, 128)
        with pytest.raises(ValueError):
            bf._resolve_time(-1)

    def test_insert_at_abstract(self):
        """The per-kind hook is ``_touch_columns``; an insert on a class
        without one reaches it (before touching any frame) and raises."""

        class Stub(SheSketchBase):
            pass

        with pytest.raises(NotImplementedError):
            Stub()._touch_columns(np.asarray([1], dtype=np.uint64), np.asarray([0]))
        with pytest.raises(NotImplementedError):
            Stub().insert(1)

    def test_insert_accepts_python_list(self):
        bf = SheBloomFilter(64, 128)
        bf.insert_many([1, 2, 3])
        assert bf.now() == 3


class TestMakeFrame:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_frame("quantum", SheConfig(window=10), 8, dtype=np.uint8, empty_value=0, cell_bits=1)


class TestGenericOperands:
    def test_max_rank_operand_path(self):
        g = GenericSheSketch(HYPERLOGLOG_SPEC, 64, 32, alpha=0.5, group_width=1)
        g.insert_many(np.arange(200, dtype=np.uint64))
        ro = g.read_cells(np.arange(8, dtype=np.uint64))
        assert ro.values.max() >= 1  # some rank landed

    def test_min_hash_operand_rejected_for_all_locations(self):
        with pytest.raises(ValueError):
            GenericSheSketch(MINHASH_SPEC, 64, 32)

    def test_bitmap_spec_single_location(self):
        g = GenericSheSketch(BITMAP_SPEC, 64, 128, alpha=0.3)
        g.insert_many(np.arange(50, dtype=np.uint64))
        ro = g.read_cells(np.arange(5, dtype=np.uint64))
        assert ro.values.shape == (5, 1)


class TestWindowSample:
    def test_returns_all_when_few(self):
        from repro.exact import ExactWindow
        from repro.harness.common import window_sample

        w = ExactWindow(32)
        w.insert_many(np.arange(10, dtype=np.uint64))
        assert window_sample(w, 100).size == 10

    def test_samples_without_replacement(self):
        from repro.exact import ExactWindow
        from repro.harness.common import window_sample

        w = ExactWindow(256)
        w.insert_many(np.arange(200, dtype=np.uint64))
        sample = window_sample(w, 50, seed=1)
        assert sample.size == 50
        assert len(np.unique(sample)) == 50


class TestRtlFalsePositivePath:
    def test_bf_rtl_reports_collision_positive(self):
        """A never-inserted key whose lanes all collide reads present —
        the one-sided error surfaces in the RTL model too."""
        from repro.hardware import SheBfRtl

        bf = SheBfRtl(64, 128, num_lanes=1, alpha=3.0, seed=1)
        lane = bf.lanes[0]
        # saturate the tiny lane array
        bf.insert_stream(np.arange(512, dtype=np.uint64))
        probes = (np.uint64(1) << np.uint64(40)) + np.arange(64, dtype=np.uint64)
        answers = [bf.contains(int(p)) for p in probes]
        assert any(answers)  # collisions at this load must appear
