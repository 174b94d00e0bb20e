"""Tests for the hardware (grouped, time-marked) frame."""

import pickle

import numpy as np
import pytest

import repro.core.batch as batch
from repro.core.batch import apply_columnar
from repro.core.config import SheConfig
from repro.core.csm import UpdateKind
from repro.core.hardware_frame import HardwareFrame
from repro.core.she_bf import SheBloomFilter
from repro.core.she_hll import SheHyperLogLog


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
        gids = np.arange(12)
        d = -((f.t_cycle * gids) // f.num_groups)
        assert (d[0], d[1], d[11]) == (0, -10, -110)
        assert np.array_equal(f._phase(gids), -d)
        # ages are (t + d_gid) mod Tcycle
        assert np.array_equal(f.group_ages(0), d % f.t_cycle)
        assert f.group_ages(0)[1] == 110

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


def textbook_ages(f, gids, t):
    """``(t - floor(Tcycle * gid / G)) mod Tcycle``, Python ints."""
    return np.asarray(
        [(t - (f.t_cycle * int(g)) // f.num_groups) % f.t_cycle for g in gids]
    )


class TestMaturityBounds:
    """``mature_mask`` / ``legal_mask`` compare group ids against scalar
    bounds from ``divmod(t, Tcycle)``; they must equal the textbook
    ages against the same bound for every group at every time."""

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
            ages = textbook_ages(f, idx // w, t)
            assert np.array_equal(f.mature_mask(idx, t), ages >= cfg.window), t
            assert np.array_equal(f.legal_mask(idx, t), ages >= cfg.legal_low), t
            for b in bounds:
                assert np.array_equal(f._aged_at_least(idx, t, b), ages >= b), (t, b)


class TestDerivedOffsets:
    """The frame stores no per-group offset: ``d_gid`` is derived from
    ``gid``.  Every age read and the dense kernel's flip starts must
    equal the textbook ``(t - floor(Tcycle * gid / G)) mod Tcycle`` for
    every group at every ``t`` over two cycles."""

    GEOMETRIES = [
        (40, 0.3, 0.9, 3, 7),      # Tcycle 52, G 7
        (10, 0.3, 0.5, 1, 50),     # Tcycle 13 < G 50
        (48, 1 / 3, 0.9, 2, 64),   # Tcycle 64, G 64: both powers of two
        (24, 1 / 3, 0.5, 4, 16),   # Tcycle 32 > G 16, G a power of two
        (977, 0.37, 0.9, 8, 33),   # Tcycle 1338, G 33
        (100, 0.2, 1.0, 1, 128),   # Tcycle 120, G 128 a power of two
    ]

    @pytest.mark.parametrize("window,alpha,beta,w,groups", GEOMETRIES)
    @pytest.mark.parametrize("base", [0, 12345, (1 << 40) + 17])
    def test_age_reads_equal_textbook(self, window, alpha, beta, w, groups, base):
        cfg = SheConfig(window=window, alpha=alpha, group_width=w, beta=beta)
        f = HardwareFrame(cfg, w * groups)
        gids = np.arange(groups)
        idx = np.arange(w * groups)
        for t in range(base, base + 2 * f.t_cycle):
            want = textbook_ages(f, gids, t)
            assert np.array_equal(f.group_ages(t), want), t
            assert np.array_equal(f.ages(idx, t), np.repeat(want, w)), t
            assert np.array_equal(f.all_cell_ages(t), np.repeat(want, w)), t
            assert np.array_equal(f.legal_groups(t), want >= cfg.legal_low), t

    @pytest.mark.parametrize("window,alpha,beta,w,groups", GEOMETRIES)
    @pytest.mark.parametrize("base", [0, 12345, (1 << 40) + 17])
    def test_dense_flip_starts_equal_textbook(
        self, monkeypatch, window, alpha, beta, w, groups, base
    ):
        """A dense piece starting at each ``t0``: a group's survivors
        start at the first item at or after the one time in the piece's
        ``(t0, t1]`` where its textbook age is 0, else at item 0."""
        cfg = SheConfig(window=window, alpha=alpha, group_width=w, beta=beta)
        tc = cfg.t_cycle
        starts = []
        real = batch._min_suffixes

        def spy(cells, values, start):
            starts.append(start.copy())
            real(cells, values, start)

        monkeypatch.setattr(batch, "_min_suffixes", spy)
        rng = np.random.default_rng(groups)
        gids = np.arange(groups)
        for t0 in range(base, base + 2 * tc):
            f = HardwareFrame(cfg, w * groups, dtype=np.uint8, empty_value=255, cell_bits=8)
            # one piece: it spans less than Tcycle
            times = t0 + np.sort(rng.integers(0, tc, size=6))
            times[0] = t0
            values = np.zeros((times.size, f.num_cells), dtype=np.uint8)
            starts.clear()
            apply_columnar(f, times, None, values, UpdateKind.MIN_HASH)
            # the next time after t0 at which each group's age is 0
            flip = t0 + tc - textbook_ages(f, gids, t0)
            want = np.searchsorted(times, np.where(flip <= times[-1], flip, t0))
            assert len(starts) == 1
            assert np.array_equal(starts[0], np.repeat(want, w)), t0


class TestPickleSize:
    """A frame ships as its cells and marks plus a fixed overhead: no
    per-group array beyond the 1-bit marks."""

    @pytest.mark.parametrize(
        "sketch",
        [
            lambda: SheHyperLogLog(1 << 12, 1 << 14, seed=1),
            lambda: SheBloomFilter(1 << 12, 1 << 20, seed=1),
        ],
        ids=["hll-m2^14", "bf-m2^20"],
    )
    def test_frame_pickles_to_cells_and_marks(self, sketch):
        sk = sketch()
        sk.insert_many(np.arange(5000, dtype=np.uint64))
        f = sk.frame
        size = len(pickle.dumps(f, protocol=pickle.HIGHEST_PROTOCOL))
        assert size <= f.cells.nbytes + f.marks.nbytes + 4096, size


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
        apply_columnar(f, np.asarray([2 * f.t_cycle]), np.asarray([[1]]), None, UpdateKind.ADD_ONE)
        assert f.cells[:4].tolist() == [1, 2, 1, 1]

    def test_insert_cleans_touched_group(self):
        f = make(window=100, alpha=0.2, w=4, m=32)
        f.cells[:] = 1
        apply_columnar(f, np.asarray([f.t_cycle]), np.asarray([[1]]), None, UpdateKind.ADD_ONE)
        assert f.cells[:4].tolist() == [0, 1, 0, 0]
        assert np.all(f.cells[4:] == 1)
        assert (f.groups_cleaned, f.cells_cleaned) == (1, 4)

    def test_empty_value_respected(self):
        f = make(window=100, alpha=0.2, w=4, m=32, dtype=np.uint32, empty_value=99)
        f.cells[:] = 1
        assert np.all(f.read(np.arange(4), f.t_cycle) == 99)
        apply_columnar(f, np.asarray([f.t_cycle]), np.asarray([[0]]), None, UpdateKind.SET_ONE)
        assert f.cells[:4].tolist() == [1, 99, 99, 99]

    def test_reset(self):
        f = make()
        f.cells[:] = 1
        f.marks[:] = 1
        f.reset()
        assert np.all(f.cells == 0)
        assert np.array_equal(f.marks, f._current_marks_all(0))

    def test_reset_and_clone_keep_a_view_backed_frame_on_its_base(self):
        """A frame over rows of shared base arrays (a stack of shards)
        stays bound to them: reset writes in place, and the stacked
        clones' frames are rows of one base, not copies."""
        from repro.core.stack import stacked_clones

        f = make()
        cells = np.ones((2,) + f.cells.shape, dtype=f.cells.dtype)
        marks = np.ones((2,) + f.marks.shape, dtype=f.marks.dtype)
        f.cells, f.marks = cells[1], marks[1]
        f.reset()
        assert f.cells.base is cells and f.marks.base is marks
        assert np.all(cells[1] == 0) and np.all(cells[0] == 1)
        assert np.array_equal(marks[1], f._current_marks_all(0))

        proto = SheBloomFilter(100, 64, num_hashes=2, group_width=4, seed=1)
        proto.insert_many(np.arange(40, dtype=np.uint64))
        shards = stacked_clones(proto, 3)
        base = shards[0].frame.cells.base
        assert base is not None and base.shape == (3, 64)
        for row, sk in enumerate(shards):
            assert sk.frame.cells.base is base
            assert sk.frame.marks.base is shards[0].frame.marks.base
            assert np.shares_memory(sk.frame.cells, base[row])
        assert np.any(shards[0].frame.cells) and not np.any(base[1:])
        for sk in shards[1:]:
            sk.reset()
            assert sk.frame.cells.base is base
        # a plain clone of a stacked shard owns its arrays
        clone = shards[1].clone_empty()
        assert not np.shares_memory(clone.frame.cells, base)


class TestGroupMapping:
    def test_group_of(self):
        f = make(w=4, m=32)
        assert np.array_equal(
            f.group_of(np.asarray([0, 3, 4, 31])), np.asarray([0, 0, 1, 7])
        )
