"""Tests for the hardware (grouped, time-marked) frame."""

import numpy as np
import pytest

from repro.core.batch import apply_columnar
from repro.core.config import SheConfig
from repro.core.csm import UpdateKind
from repro.core.hardware_frame import HardwareFrame


def make(window=100, alpha=0.2, w=4, m=32, **kw):
    cfg = SheConfig(window=window, alpha=alpha, group_width=w)
    return HardwareFrame(cfg, m, **kw)


class TestConstruction:
    def test_group_count(self):
        f = make(m=32, w=4)
        assert f.num_groups == 8

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            make(m=30, w=4)

    def test_offsets_evenly_spaced(self):
        f = make(window=100, alpha=0.2, w=1, m=12)
        # d_gid = -floor(Tcycle * gid / G), Tcycle = 120, G = 12
        assert f.offsets[0] == 0
        assert f.offsets[1] == -10
        assert f.offsets[11] == -110

    def test_initial_marks_are_current(self):
        f = make()
        assert np.array_equal(f.marks, f._current_marks_all(0))

    def test_memory_accounting(self):
        f = make(m=64, w=4, cell_bits=1)
        # 64 bits + 16 marks = 80 bits = 10 bytes
        assert f.memory_bytes == 10


class TestAges:
    def test_age_zero_at_virtual_clean(self):
        f = make(window=100, alpha=0.2, w=1, m=12)
        # group 1 offset -10: at t=10 its age is 0
        assert f.ages(np.asarray([1]), 10)[0] == 0

    def test_age_in_range(self):
        f = make(window=100, alpha=0.2, w=4, m=32)
        for t in [0, 57, 119, 120, 1000]:
            ages = f.all_cell_ages(t)
            assert ages.min() >= 0
            assert ages.max() < f.t_cycle

    def test_age_cycles(self):
        f = make(window=100, alpha=0.2, w=1, m=12)
        idx = np.asarray([3])
        assert f.ages(idx, 5)[0] == f.ages(idx, 5 + f.t_cycle)[0]

    def test_mature_iff_age_ge_window(self):
        f = make(window=100, alpha=0.5, w=1, m=10)
        t = 777
        ages = f.all_cell_ages(t)
        mature = f.mature_mask(np.arange(10), t)
        assert np.array_equal(mature, ages >= 100)

    def test_legal_band(self):
        f = make(window=100, alpha=0.5, w=1, m=10)
        t = 345
        ages = f.all_cell_ages(t)
        legal = f.legal_mask(np.arange(10), t)
        assert np.array_equal(legal, ages >= 90)

    def test_group_ages_match_cell_ages(self):
        f = make(w=4, m=32)
        t = 250
        assert np.array_equal(np.repeat(f.group_ages(t), 4), f.all_cell_ages(t))


class TestMaturityBounds:
    """``mature_mask`` / ``legal_mask`` compare group ids against scalar
    bounds from ``divmod(t, Tcycle)``; they must equal the offset-and-
    modulo ages against the same bound for every group at every time."""

    @pytest.mark.parametrize(
        "window,alpha,beta,w,groups",
        [
            (40, 0.3, 0.9, 3, 7),      # Tcycle 52, G 7
            (10, 0.3, 0.5, 1, 50),     # Tcycle 13 < G 50: several groups a tick
            (977, 0.37, 0.9, 8, 33),   # Tcycle 1338, G 33
            (64, 1.0, 0.0, 5, 97),     # Tcycle 128, beta 0: legal everywhere
            (100, 0.2, 1.0, 1, 120),   # Tcycle 120 == G, legal band == mature
        ],
    )
    @pytest.mark.parametrize("base", [0, 12345, (1 << 40) + 17])
    def test_bounds_equal_ages_over_two_cycles(self, window, alpha, beta, w, groups, base):
        cfg = SheConfig(window=window, alpha=alpha, group_width=w, beta=beta)
        f = HardwareFrame(cfg, w * groups)
        tc = f.t_cycle
        # every cell, so each group is seen through all its w cells
        idx = np.arange(w * groups)
        bounds = (0, cfg.window, cfg.legal_low, tc - 1)
        for t in range(base, base + 2 * tc):
            ages = f.ages(idx, t)
            assert np.array_equal(f.mature_mask(idx, t), ages >= cfg.window), t
            assert np.array_equal(f.legal_mask(idx, t), ages >= cfg.legal_low), t
            for b in bounds:
                assert np.array_equal(f._aged_at_least(idx, t, b), ages >= b), (t, b)


class TestCleaning:
    """``CheckGroup`` as inserts run it (``apply_columnar``), as
    whole-array queries run it (``prepare_query_all``) and as point reads
    see it (``read``, which writes nothing)."""

    def test_check_cleans_stale_group(self):
        f = make(window=100, alpha=0.2, w=4, m=32)
        f.cells[:] = 1
        # group 0 (offset 0) flips at t = Tcycle
        assert np.all(f.read(np.arange(4), f.t_cycle - 1) == 1)
        assert np.all(f.read(np.arange(4), f.t_cycle) == 0)

    def test_check_noop_when_fresh(self):
        f = make(window=100, alpha=0.2, w=4, m=32)
        f.cells[:] = 1
        assert np.all(f.read(np.arange(4), 5) == 1)

    def test_check_all_groups(self):
        f = make(window=100, alpha=0.2, w=4, m=32)
        f.cells[:] = 1
        f.prepare_query_all(2 * f.t_cycle - 1)
        # after nearly two full cycles every group flipped at least once
        assert np.count_nonzero(f.cells) < 32

    def test_mark_wraparound_failure_mode(self):
        # untouched for exactly 2 cycles: the mark wraps back and stale
        # cells survive — the Eq. 1 failure mode must be preserved
        f = make(window=100, alpha=0.2, w=4, m=32)
        f.cells[:4] = 1
        assert np.all(f.read(np.arange(4), 2 * f.t_cycle) == 1)
        apply_columnar(f, np.asarray([2 * f.t_cycle]), np.asarray([1]), None, UpdateKind.ADD_ONE)
        assert f.cells[:4].tolist() == [1, 2, 1, 1]

    def test_insert_cleans_touched_group(self):
        f = make(window=100, alpha=0.2, w=4, m=32)
        f.cells[:] = 1
        apply_columnar(f, np.asarray([f.t_cycle]), np.asarray([1]), None, UpdateKind.ADD_ONE)
        assert f.cells[:4].tolist() == [0, 1, 0, 0]
        assert np.all(f.cells[4:] == 1)
        assert (f.groups_cleaned, f.cells_cleaned) == (1, 4)

    def test_empty_value_respected(self):
        f = make(window=100, alpha=0.2, w=4, m=32, dtype=np.uint32, empty_value=99)
        f.cells[:] = 1
        assert np.all(f.read(np.arange(4), f.t_cycle) == 99)
        apply_columnar(f, np.asarray([f.t_cycle]), np.asarray([0]), None, UpdateKind.SET_ONE)
        assert f.cells[:4].tolist() == [1, 99, 99, 99]

    def test_reset(self):
        f = make()
        f.cells[:] = 1
        f.marks[:] = 1
        f.reset()
        assert np.all(f.cells == 0)
        assert np.array_equal(f.marks, f._current_marks_all(0))


class TestGroupMapping:
    def test_group_of(self):
        f = make(w=4, m=32)
        assert np.array_equal(
            f.group_of(np.asarray([0, 3, 4, 31])), np.asarray([0, 0, 1, 7])
        )
