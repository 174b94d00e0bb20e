"""Fig. 11: SHE vs the fixed-window ideal across all five sketches.

Paper shape: SHE's processing speed is comparable to the original
algorithms — the sliding-window machinery costs a small constant, not
an asymptotic slowdown.

The gate is per kind: the SHE/Ideal ratio of one ``fig11_throughput``
call must reach ``FLOORS``.  That call already warms each side up and
takes its best of 3 passes, interleaved kind by kind so a slow phase of
the host hits both sides of a ratio.  Each floor is half the lowest
single-pass ratio of 10 runs on a 2-CPU host (EXPERIMENTS.md, "Kernel:
O(touches) scattered apply"), so run-to-run noise does not trip it,
while a kernel that halves a kind's speed does.
"""

import numpy as np
from conftest import emit

from repro.harness import fig11_throughput

#: per-kind floor on the SHE/Ideal ratio of one (best-of-3) call
FLOORS = {"BM": 0.15, "CM-sketch": 0.26, "BF": 0.25, "HLL": 0.22, "MH": 0.62}


def test_fig11_throughput(benchmark, results_dir, bench_scale):
    result = benchmark.pedantic(
        lambda: fig11_throughput(bench_scale, n_items=150_000),
        rounds=1,
        iterations=1,
    )
    emit(results_dir, "fig11", result.table())
    ideal, she = result.series[0], result.series[1]
    assert np.all(np.asarray(she.y, dtype=float) > 0)
    ratios = {label: s / i for label, i, s in zip(ideal.x, ideal.y, she.y)}
    assert set(ratios) == set(FLOORS)
    low = {k: round(v, 3) for k, v in ratios.items() if v < FLOORS[k]}
    assert not low, f"SHE/Ideal under its floor: {low} (floors {FLOORS})"
