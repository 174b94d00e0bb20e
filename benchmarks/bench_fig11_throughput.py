"""Fig. 11: SHE vs the fixed-window ideal across all five sketches.

Paper shape: SHE's processing speed is comparable to the original
algorithms — the sliding-window machinery costs a small constant, not
an asymptotic slowdown.

The gate is per kind: the best SHE/Ideal ratio of ``PASSES`` passes
(each pass times the ideal and then SHE, kind by kind, so a slow phase
of the host hits both sides of a ratio) must reach ``FLOORS``.  Each
floor is half the lowest single-pass ratio of 10 runs on a 2-CPU host
(EXPERIMENTS.md, "Kernel: O(touches) scattered apply"), so run-to-run
noise does not trip it, while a kernel that halves a kind's speed does.
"""

import numpy as np
from conftest import emit

from repro.harness import fig11_throughput

PASSES = 3

#: per-kind floor on the best-of-PASSES SHE/Ideal ratio
FLOORS = {"BM": 0.15, "CM-sketch": 0.26, "BF": 0.25, "HLL": 0.22, "MH": 0.62}


def test_fig11_throughput(benchmark, results_dir, bench_scale):
    results = benchmark.pedantic(
        lambda: [fig11_throughput(bench_scale, n_items=150_000) for _ in range(PASSES)],
        rounds=1,
        iterations=1,
    )
    emit(results_dir, "fig11", results[-1].table())
    best: dict[str, float] = {}
    for result in results:
        ideal, she = result.series[0], result.series[1]
        assert np.all(np.asarray(she.y, dtype=float) > 0)
        for label, i, s in zip(ideal.x, ideal.y, she.y):
            best[label] = max(best.get(label, 0.0), s / i)
    assert set(best) == set(FLOORS)
    low = {k: round(v, 3) for k, v in best.items() if v < FLOORS[k]}
    assert not low, f"SHE/Ideal under its floor: {low} (floors {FLOORS})"
