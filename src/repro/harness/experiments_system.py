"""Drivers for the system-side results: Fig. 10, Fig. 11, Tables 2-3.

Throughput figures report Mips measured on this Python substrate; the
reproducible content is the *ordering* (SHE close to the fixed-window
original, timestamp/queue baselines behind), not the absolute numbers —
see :mod:`repro.metrics.throughput`.  The FPGA tables come from the
calibrated analytic model plus the pipeline simulator's items/cycle.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import CounterVectorSketch, SlidingHyperLogLog
from repro.core import SheBitmap, SheBloomFilter, SheCountMin, SheHyperLogLog, SheMinHash
from repro.datasets import DATASETS, caida_like, relevant_pair
from repro.fixed import Bitmap, BloomFilter, CountMinSketch, HyperLogLog, MinHash
from repro.harness.common import DEFAULT_SCALE, Scale
from repro.harness.report import FigureResult, Series, render_table, fmt
from repro.hardware import (
    SHE_BF_DESIGN,
    SHE_BM_DESIGN,
    SheBmRtl,
    check_constraints,
    estimate_clock_mhz,
    estimate_resources,
)
from repro.metrics import measure_throughput

__all__ = [
    "fig10_throughput",
    "fig11_throughput",
    "table2_resources",
    "table3_frequency",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
]

#: Table 2 as printed in the paper
PAPER_TABLE2 = {
    "SHE-BM": {"lut": 1653, "register": 1509, "bram36": 0},
    "SHE-BF": {"lut": 12875, "register": 11790, "bram36": 0},
}

#: Table 3 as printed in the paper (MHz)
PAPER_TABLE3 = {"SHE-BM": 544.07, "SHE-BF": 468.82}


def _hll_pair(window: int, mem_bits: int, seed: int):
    m = max(16, mem_bits // 6)
    return (
        SheHyperLogLog(window, m, seed=seed),
        SlidingHyperLogLog(window, max(16, mem_bits // (69 * 3)), seed=seed + 1),
        HyperLogLog(m, seed=seed + 2),
    )


def fig10_throughput(
    variant: str,
    scale: Scale = DEFAULT_SCALE,
    *,
    n_items: int = 300_000,
    seed: int = 110,
) -> FigureResult:
    """Fig. 10: throughput on CAIDA/Campus/Webpage-like traces.

    Variant 'a': Ideal (fixed HLL) vs SHE-HLL vs SHLL.
    Variant 'b': Ideal (fixed Bitmap) vs SHE-BM vs CVS.
    """
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    result = FigureResult(
        name=f"Figure 10{variant}",
        title=(
            "throughput: SHE-HLL vs SHLL vs Ideal"
            if variant == "a"
            else "throughput: SHE-BM vs CVS vs Ideal"
        ),
        x_label="dataset",
        y_label="Mips (this substrate)",
    )
    window = scale.window
    mem_bits = 8 * 1024
    rows: dict[str, list[float]] = {}
    names = list(DATASETS)
    for ds in names:
        trace = DATASETS[ds](n_items, max(2000, n_items // 50), seed=seed).items
        if variant == "a":
            she, shll, ideal = _hll_pair(window, mem_bits, seed)
            entries = [("Ideal", ideal), ("SHE-HLL", she), ("SHLL", shll)]
        else:
            she = SheBitmap(window, 1 << 13, seed=seed)
            cvs = CounterVectorSketch(window, 1 << 13, seed=seed + 1)
            ideal = Bitmap(1 << 13, seed=seed + 2)
            entries = [("Ideal", ideal), ("SHE-BM", she), ("CVS", cvs)]
        for label, sk in entries:
            r = measure_throughput(sk, trace, warmup=min(2 * window, n_items // 4))
            rows.setdefault(label, []).append(r.mips)
    for label, ys in rows.items():
        result.series.append(Series(label, names, ys))
    return result


def fig11_throughput(
    scale: Scale = DEFAULT_SCALE,
    *,
    n_items: int = 300_000,
    mh_counters: int = 128,
    seed: int = 111,
) -> FigureResult:
    """Fig. 11: SHE vs the fixed-window original, all five sketches;
    each side warmed up, then timed as its best of 3 interleaved passes."""
    result = FigureResult(
        name="Figure 11",
        title="throughput: SHE vs the fixed-window ideal, five sketches",
        x_label="sketch",
        y_label="Mips (this substrate)",
    )
    window = scale.window
    warmup = min(2 * window, n_items // 4)
    trace = caida_like(n_items, max(2000, n_items // 50), seed=seed).items
    a, b = relevant_pair(n_items, max(2000, n_items // 10), seed=seed + 1)

    ideal_y, she_y, labels = [], [], []

    pairs = [
        ("BM", Bitmap(1 << 13, seed=seed), SheBitmap(window, 1 << 13, seed=seed)),
        (
            "CM-sketch",
            CountMinSketch(1 << 13, 8, seed=seed),
            SheCountMin(window, 1 << 13, seed=seed),
        ),
        ("BF", BloomFilter(1 << 16, 8, seed=seed), SheBloomFilter(window, 1 << 16, seed=seed)),
        ("HLL", HyperLogLog(1 << 11, seed=seed), SheHyperLogLog(window, 1 << 11, seed=seed)),
    ]

    def best_of_interleaved(label, ideal, she, stream, **kw):
        # alternating sides: a slow phase of the host hits both
        best = [0.0, 0.0]
        for _ in range(3):
            for i, sketch in enumerate((ideal, she)):
                r = measure_throughput(sketch, stream, warmup=warmup, **kw)
                best[i] = max(best[i], r.mips)
        labels.append(label)
        ideal_y.append(best[0])
        she_y.append(best[1])

    for label, ideal, she in pairs:
        best_of_interleaved(label, ideal, she, trace)
    best_of_interleaved(
        "MH",
        MinHash(mh_counters, seed=seed),
        SheMinHash(window, mh_counters, seed=seed),
        a.items,
        side=0,
    )

    result.series.append(Series("Ideal", labels, ideal_y))
    result.series.append(Series("SHE", labels, she_y))
    return result


def table2_resources() -> str:
    """Table 2: resource model vs the paper's published numbers."""
    rows = []
    for design in (SHE_BM_DESIGN, SHE_BF_DESIGN):
        est = estimate_resources(design)
        util = est.utilisation()
        paper = PAPER_TABLE2[design.name]
        rows.append(
            [
                design.name,
                f"{est.lut} ({util['lut']:.2%})",
                str(paper["lut"]),
                f"{est.register} ({util['register']:.2%})",
                str(paper["register"]),
                str(est.bram36),
                str(paper["bram36"]),
            ]
        )
    return render_table(
        "Table 2: FPGA resource utilisation (model vs paper)",
        ["design", "LUT (model)", "LUT (paper)", "Reg (model)", "Reg (paper)", "BRAM (model)", "BRAM (paper)"],
        rows,
    )


def table3_frequency(*, cosim_items: int = 2048, seed: int = 112) -> str:
    """Table 3: clock model vs paper, plus measured pipeline items/cycle.

    The items/cycle column comes from actually running the RTL pipeline
    model — one item per cycle is what turns MHz into Mips.
    """
    rtl = SheBmRtl(256, 1024, alpha=0.2, seed=2)
    rng = np.random.default_rng(seed)
    run = rtl.insert_stream(rng.integers(0, 4096, size=cosim_items, dtype=np.uint64))
    report = check_constraints(rtl.pipeline, run)
    rows = []
    for design in (SHE_BM_DESIGN, SHE_BF_DESIGN):
        mhz = estimate_clock_mhz(design)
        rows.append(
            [
                design.name,
                f"{mhz:.2f}",
                f"{PAPER_TABLE3[design.name]:.2f}",
                fmt(run.items_per_cycle),
                "yes" if report.hardware_friendly else "no",
            ]
        )
    return render_table(
        "Table 3: clock frequency (model vs paper) + pipeline behaviour",
        ["design", "MHz (model)", "MHz (paper)", "items/cycle (sim)", "constraints ok"],
        rows,
    )
