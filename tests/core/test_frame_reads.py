"""Read-only frame queries: ``read`` / ``read_all`` against in-place cleaning.

``read(indices, t)`` must return exactly the cells that cleaning the
touched groups at ``t`` would leave (on the hardware frame the
``CheckGroup`` pass over the indices' groups, on the software frame the
sweep to ``t``), and ``read_all(t)`` exactly what
``prepare_query_all(t)`` would leave — while writing nothing: cells,
marks, the sweep position and the cleaning counters stay as they were.
"""

import copy

import numpy as np
import pytest

from repro.core.config import SheConfig
from repro.core.hardware_frame import HardwareFrame
from repro.core.software_frame import SoftwareFrame

from helpers import clean_groups


def hardware(window=100, alpha=0.2, w=3, m=42, dtype=np.uint32, empty=0):
    cfg = SheConfig(window=window, alpha=alpha, group_width=w)
    return HardwareFrame(cfg, m, dtype=dtype, empty_value=empty, cell_bits=32)


def software(window=100, alpha=0.2, m=37, dtype=np.uint32, empty=0):
    cfg = SheConfig(window=window, alpha=alpha, group_width=1)
    return SoftwareFrame(cfg, m, dtype=dtype, empty_value=empty, cell_bits=32)


def _state(frame) -> tuple:
    return (
        frame.cells.copy(),
        getattr(frame, "marks", np.empty(0)).copy(),
        getattr(frame, "_boundaries_done", None),
        frame.cleaning_checks,
        frame.groups_cleaned,
        frame.cells_cleaned,
    )


def _assert_unchanged(frame, before: tuple) -> None:
    after = _state(frame)
    assert np.array_equal(after[0], before[0]), "cells written"
    assert np.array_equal(after[1], before[1]), "marks written"
    assert after[2:] == before[2:], "sweep position or counters written"


def _cleaned_point(frame, indices, t):
    """The in-place point-query cleaning ``read`` replaces."""
    ref = copy.deepcopy(frame)
    clean_groups(ref, ref.group_of(indices), t)
    return ref.cells[indices]


def _cleaned_all(frame, t):
    ref = copy.deepcopy(frame)
    ref.prepare_query_all(t)
    return ref.cells


def _scramble(frame, rng, t0):
    """Random cell contents; hardware marks as left by touches at random
    times up to ``t0`` (so some groups are stale, some wrap), software
    sweep position somewhere before ``t0``."""
    frame.cells[:] = rng.integers(1, 1000, size=frame.num_cells)
    if isinstance(frame, HardwareFrame):
        touched = rng.integers(0, t0 + 1, size=frame.num_groups)
        for gid, tt in enumerate(touched):
            frame.marks[gid] = frame._current_marks(np.asarray([gid]), int(tt))[0]
    else:
        frame._boundaries_done = int(rng.integers(0, frame._boundaries_at(t0) + 1))


def _division_marks(frame, gids, t):
    """The textbook form, Algorithm 1 l.2: floor((t + d_gid) / Tcycle) mod 2
    with d_gid = -floor(Tcycle * gid / G)."""
    d = -((frame.t_cycle * gids) // frame.num_groups)
    return (((t + d) // frame.t_cycle) % 2).astype(np.uint8)


class TestCurrentMarksTwoRuns:
    @pytest.mark.parametrize(
        "window,alpha,w,m",
        [
            (100, 0.2, 3, 42),  # Tcycle 120, G 14
            (10, 0.3, 1, 50),  # Tcycle 13 < G 50: several groups per tick
            (97, 0.55, 5, 35),  # Tcycle 150, G 7
            (1000, 0.1, 7, 7 * 333),  # Tcycle 1100, G 333
        ],
    )
    def test_every_t_over_three_cycles(self, window, alpha, w, m):
        f = hardware(window=window, alpha=alpha, w=w, m=m)
        gids = np.arange(f.num_groups)
        for t in range(3 * f.t_cycle + 1):
            expected = _division_marks(f, gids, t)
            assert np.array_equal(f._current_marks_all(t), expected), t
            assert np.array_equal(f._current_marks(gids, t), expected), t

    def test_random_large_t(self):
        rng = np.random.default_rng(5)
        f = hardware(window=977, alpha=0.37, w=3, m=3 * 1021)
        gids = np.arange(f.num_groups)
        for t in rng.integers(0, 1 << 60, size=200):
            expected = _division_marks(f, gids, int(t))
            assert np.array_equal(f._current_marks_all(int(t)), expected)
            assert np.array_equal(f._current_marks(gids, int(t)), expected)


FRAMES = [
    pytest.param(lambda: hardware(), id="hardware"),
    pytest.param(lambda: hardware(w=1, m=13), id="hardware-w1"),
    pytest.param(lambda: hardware(dtype=np.uint64, empty=2**64 - 1), id="hardware-minhash-empty"),
    pytest.param(lambda: software(), id="software"),
    pytest.param(lambda: software(m=240), id="software-M-gt-Tcycle"),
]


@pytest.mark.parametrize("make", FRAMES)
class TestReadMatchesCleaning:
    def test_read_point(self, make):
        rng = np.random.default_rng(11)
        for trial in range(60):
            f = make()
            t0 = int(rng.integers(0, 4 * f.t_cycle))
            _scramble(f, rng, t0)
            # duplicates on purpose: repeated cells and repeated groups
            idx = rng.integers(0, f.num_cells, size=int(rng.integers(1, 40)))
            idx = np.concatenate([idx, idx[: idx.size // 2]])
            for t in (t0, t0 + 1, t0 + int(rng.integers(0, 3 * f.t_cycle))):
                before = _state(f)
                got = f.read(idx, t)
                _assert_unchanged(f, before)
                assert np.array_equal(got, _cleaned_point(f, idx, t)), (trial, t)

    def test_read_all(self, make):
        rng = np.random.default_rng(12)
        for trial in range(60):
            f = make()
            t0 = int(rng.integers(0, 4 * f.t_cycle))
            _scramble(f, rng, t0)
            for t in (t0, t0 + 1, t0 + int(rng.integers(0, 3 * f.t_cycle))):
                before = _state(f)
                got = f.read_all(t)
                _assert_unchanged(f, before)
                assert np.array_equal(got, _cleaned_all(f, t)), (trial, t)
                assert not np.shares_memory(got, f.cells)


class TestHardwareCases:
    def test_stale_group_reads_empty(self):
        f = hardware(w=4, m=32)
        f.cells[:] = 7
        t = f.t_cycle  # every mark has flipped since t = 0
        assert np.all(f.read(np.arange(32), t) == 0)
        assert np.all(f.read_all(t) == 0)
        assert np.all(f.cells == 7)

    def test_two_cycle_wrap_keeps_stale_content(self):
        """A group untouched for two flips reads its old content, exactly
        as the in-place CheckGroup would (the Eq. 1 failure mode)."""
        f = hardware(w=4, m=32)
        f.cells[:] = 7
        t = 2 * f.t_cycle  # every mark flipped twice: back to stored
        assert np.array_equal(f.read(np.arange(32), t), _cleaned_point(f, np.arange(32), t))
        assert np.all(f.read_all(t) == 7)


class TestSoftwareCases:
    def test_sweep_wraps_past_m(self):
        f = software(m=24, window=100, alpha=0.2)  # Tcycle 120: 5 units/cell
        f.cells[:] = 9
        f._boundaries_done = 22  # next boundary cleans cell 23, then wraps
        t = 130  # B(t) = 26: cells 23, 0, 1, 2
        idx = np.arange(24)
        got = f.read(idx, t)
        assert np.array_equal(np.flatnonzero(got == 0), [0, 1, 2, 23])
        assert np.array_equal(f.read_all(t), _cleaned_all(f, t))
        assert np.all(f.cells == 9) and f._boundaries_done == 22

    def test_sweep_covering_count_ge_m(self):
        f = software(m=24)
        f.cells[:] = 9
        t = 2 * f.t_cycle  # 48 boundaries since construction
        assert np.all(f.read(np.arange(24), t) == 0)
        assert np.all(f.read_all(t) == 0)
        assert np.all(f.cells == 9)

    def test_query_before_sweep_position_reads_cells(self):
        f = software(m=24)
        f.cells[:] = 9
        f._boundaries_done = 20
        t = 10  # B(t) = 2 < 20: nothing left to sweep
        assert np.all(f.read(np.arange(24), t) == 9)
        assert np.all(f.read_all(t) == 9)
