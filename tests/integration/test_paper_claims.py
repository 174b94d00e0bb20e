"""Integration tests asserting the paper's headline *shapes*.

Absolute numbers differ from the paper (different substrate, reduced
scale); these tests pin down the qualitative results §7 reports: who
wins, by roughly what factor, and where the memory floors bite.
Marked slow-ish: each runs a real multi-window experiment.
"""

import numpy as np
import pytest

from repro.datasets import caida_like, distinct_stream, relevant_pair
from repro.harness import Scale
from repro.harness.builders import (
    build_cardinality_bitmap,
    build_frequency,
    build_membership,
    build_similarity,
)
from repro.harness.runners import (
    run_cardinality,
    run_frequency,
    run_membership,
    run_similarity,
)

SCALE = Scale(window=1 << 12, n_windows=3, warm_windows=2)


def _trace(seed=42):
    return caida_like(SCALE.stream_items, 2 * SCALE.window, seed=seed).items


class TestFig9dMembership:
    """SHE-BF's FPR is orders of magnitude below the timestamp filters."""

    def test_she_bf_beats_tobf_by_10x_at_low_memory(self):
        budget = SCALE.memory(128 * 1024)
        panel = build_membership(SCALE.window, budget)
        out = run_membership(panel, _trace(), SCALE, n_queries=4000)
        she = np.mean(out["SHE-BF"])
        tobf = np.mean(out["TOBF"])
        assert she * 10 < tobf + 1e-9

    def test_she_bf_no_false_negatives_end_to_end(self):
        from repro.exact import ExactWindow

        budget = SCALE.memory(256 * 1024)
        bf = build_membership(SCALE.window, budget)["SHE-BF"]
        ew = ExactWindow(SCALE.window)
        tr = _trace(7)
        bf.insert_many(tr)
        ew.insert_many(tr)
        assert np.all(bf.contains_many(ew.distinct_keys()))


class TestFig9aCardinality:
    """SHE-BM beats TSV/CVS at small memory; SWAMP can't even exist."""

    def test_swamp_has_memory_floor(self):
        budget = SCALE.memory(2 * 1024)
        panel = build_cardinality_bitmap(SCALE.window, budget)
        assert "SWAMP" not in panel

    def test_she_bm_beats_tsv_at_small_memory(self):
        budget = SCALE.memory(2 * 1024)
        panel = build_cardinality_bitmap(SCALE.window, budget)
        out = run_cardinality(panel, _trace(), SCALE)
        assert np.mean(out["SHE-BM"]) < 0.5 * np.mean(out["TSV"])

    def test_she_bm_usable_where_others_fail(self):
        budget = SCALE.memory(1024)
        panel = build_cardinality_bitmap(SCALE.window, budget)
        out = run_cardinality(panel, _trace(), SCALE)
        assert np.mean(out["SHE-BM"]) < 0.35  # a usable estimate


class TestFig9cFrequency:
    """SHE-CM usable at budgets where ECM collapses."""

    def test_she_cm_beats_ecm_at_small_memory(self):
        budget = SCALE.memory(512 * 1024)
        panel = build_frequency(SCALE.window, budget)
        assert "SHE-CM" in panel
        out = run_frequency(panel, _trace(), SCALE, n_queries=200)
        she = np.mean(out["SHE-CM"])
        if "ECM" in panel:
            assert she < np.mean(out["ECM"])
        assert she < 2.0


class TestFig9eSimilarity:
    """SHE-MH beats the straw-man at equal memory."""

    def test_she_mh_beats_strawman(self):
        # unscaled 4 KB: at this window the scaled budget leaves too few
        # counters for either estimator to be meaningful
        budget = 4 * 1024
        errs = {"SHE-MH": [], "Straw": []}
        for seed in range(3):
            a, b = relevant_pair(SCALE.stream_items, SCALE.window, overlap=0.5, seed=3 + seed)
            panel = build_similarity(SCALE.window, budget, seed=seed)
            out = run_similarity(panel, (a.items, b.items), SCALE)
            for k in errs:
                errs[k].extend(out[k])
        assert np.mean(errs["SHE-MH"]) < np.mean(errs["Straw"])


class TestFig8Ages:
    """FPR decays with item age until the relaxed window, then floors."""

    def test_fpr_monotone_decay_with_age(self):
        from repro.core import SheBloomFilter

        n = 2048
        alpha = 1.0
        stream = distinct_stream(8 * n, seed=9).items
        bf = SheBloomFilter(n, 1 << 15, alpha=alpha, num_hashes=8)
        bf.insert_many(stream)
        t = bf.now()
        rates = []
        for age_windows in (1.1, 1.6, 2.4):
            back = int(age_windows * n)
            sample = stream[t - back : t - back + 400]
            rates.append(float(bf.contains_many(sample).mean()))
        # within the relaxed window (1+alpha)N = 2N the FPR decays
        assert rates[0] > rates[1] > rates[2] - 0.05
        # beyond the relaxed window it sits at the hash-collision floor
        assert rates[2] < 0.2


def _best_mips(builders: dict, trace, passes: int = 5) -> dict:
    """Best insert rate (Mitems/s) of each sketch over ``passes`` timed
    passes after one warm-up pass.  The sketches take turns within a
    pass, each on a fresh instance, so host noise hits both sides of a
    ratio alike and one slow pass cannot decide it."""
    from repro.metrics import measure_throughput

    best = dict.fromkeys(builders, 0.0)
    for i in range(passes + 1):
        for name, build in builders.items():
            mips = measure_throughput(build(), trace).mips
            if i:  # pass 0 is the warm-up
                best[name] = max(best[name], mips)
    return best


class TestThroughputOrdering:
    """Fig. 10/11: SHE stays near the fixed-window original's speed."""

    def test_she_bm_within_5x_of_ideal(self):
        from repro.core import SheBitmap
        from repro.fixed import Bitmap

        best = _best_mips({
            "she": lambda: SheBitmap(SCALE.window, 1 << 13),
            "ideal": lambda: Bitmap(1 << 13),
        }, _trace(11))
        assert best["she"] > best["ideal"] / 5

    def test_she_hll_faster_than_shll(self):
        from repro.baselines import SlidingHyperLogLog
        from repro.core import SheHyperLogLog

        best = _best_mips({
            "she": lambda: SheHyperLogLog(SCALE.window, 1024),
            "shll": lambda: SlidingHyperLogLog(SCALE.window, 1024),
        }, _trace(12))
        assert best["she"] > best["shll"]
