"""Service throughput: single sketch vs the sharded engine.

Not a paper figure — this benchmarks the serving layer the ROADMAP asks
for.  One SHE-CM sketch is the baseline; the engine is measured at
1/2/4/8 shards with the in-process executor and at 2/4 shards with the
multiprocessing executor.  The in-process engine pays the partitioning
and buffering tax (expected to land within a small factor of the bare
sketch); the process executor amortises it once flushes parallelise
across cores.  Mips tables land in ``results/bench_service.txt`` and a
machine-readable trajectory in ``BENCH_service.json`` at the repo root.

Observability modes:

* ``pytest benchmarks/bench_service_throughput.py --obs on`` runs the
  same grid with engines built ``obs=True`` (live registry, spans,
  per-shard counters) — the number that matters for instrumented
  deployments.
* ``python benchmarks/bench_service_throughput.py --check-obs`` is the
  CI mode: no pytest-benchmark needed, measures the obs-on vs obs-off
  ingest overhead directly and fails when the *disabled* path's
  overhead bound is blown (the obs subsystem must be free when off).

Durability modes:

* ``pytest benchmarks/bench_service_throughput.py --wal interval``
  (or ``always``) runs the grid with engines appending every admitted
  batch to a write-ahead log under that fsync policy — the sustained
  cost of crash safety.
* ``python benchmarks/bench_service_throughput.py --check-wal`` is the
  CI gate: serial-engine ingest at WAL off / ``interval`` / ``always``,
  failing when logging overhead blows its bound.  Results merge into
  ``BENCH_service.json`` under ``wal_overhead``.

The process-executor rows ship flush batches pickled through the
worker pipes, the executor's only transport.  The process path is
guarded end to end by the ``hll-wal-proc`` workload of the repo
benchmark (``benchmarks/ledger``).
"""

import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import SheCountMin
from repro.datasets import BoundedZipf
from repro.metrics import measure_throughput
from repro.service import EngineConfig, StreamEngine

WINDOW = 1 << 14
SIZE = 1 << 13
N_ITEMS = 400_000
CHUNK = 8192

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _stream(n_items: int = N_ITEMS):
    return BoundedZipf(50_000, 1.05, seed=31).sample(n_items)


def _engine_mips(stream, shards, executor, num_workers=None, obs=False,
                 wal="off"):
    """Ingest Mips for one engine configuration.

    ``wal`` is ``"off"`` (no log) or a fsync policy (``"interval"`` /
    ``"always"``); WAL runs log into a throwaway temp directory so the
    measurement includes the real write(+fsync) path.
    """
    with tempfile.TemporaryDirectory(prefix="bench-wal-") as td:
        extra = {}
        if wal != "off":
            extra = {"wal_dir": str(Path(td) / "wal"), "wal_fsync": wal}
        cfg = EngineConfig(
            "cm",
            window=WINDOW,
            size=SIZE,
            num_shards=shards,
            flush_batch_size=CHUNK,
            flush_interval_s=None,
            sketch_kwargs={"seed": 7},
            **extra,
        )
        with StreamEngine(
            cfg, executor=executor, num_workers=num_workers, obs=obs
        ) as eng:
            started = time.perf_counter()
            for lo in range(0, stream.size, CHUNK):
                eng.ingest(stream[lo : lo + CHUNK])
            eng.flush()
            seconds = time.perf_counter() - started
    return stream.size / seconds / 1e6


#: repeats of the whole grid — each row reports its best over these, so
#: one noisy-neighbour stall cannot poison the committed trajectory
BEST_OF = 3


def _nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints): the process
    rows can overlap the ingesting process and its workers only when
    there are several."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _write_bench_json(rows, obs_mode, extra=None, n_items=N_ITEMS) -> None:
    """Persist the machine-readable perf trajectory at the repo root.

    ``rows`` are ``(name, shards, mips)``.  Sections other check modes
    merged in (``windowed_overhead``, ``wal_overhead``) are preserved,
    so the check order does not matter.
    """
    path = _REPO_ROOT / "BENCH_service.json"
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload.update({
        "benchmark": "bench_service_throughput",
        "obs_mode": obs_mode,
        "n_items": n_items,
        "window": WINDOW,
        "size": SIZE,
        "best_of": BEST_OF,
        "nproc": _nproc(),
        "rows": [
            {
                "configuration": name,
                "shards": shards,
                "mips": round(mips, 3),
            }
            for name, shards, mips in rows
        ],
    })
    if extra:
        payload.update(extra)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def test_service_throughput(
    benchmark, results_dir, obs_mode, wal_mode
):
    from conftest import emit  # pytest-only helper; keeps --check-obs stdlib

    stream = _stream()
    obs = obs_mode == "on"

    def single_sketch():
        return measure_throughput(
            SheCountMin(WINDOW, SIZE, seed=7), stream, chunk=CHUNK,
            name="SHE-CM insert_many",
        ).mips

    configs = [("single sketch", "-", single_sketch)]
    for shards in (1, 2, 4, 8):
        configs.append((
            f"engine serial x{shards}", shards,
            lambda s=shards: _engine_mips(stream, s, "serial", obs=obs,
                                          wal=wal_mode),
        ))
    for shards in (2, 4):
        configs.append((
            f"engine process x{shards}", shards,
            lambda s=shards: _engine_mips(
                stream, s, "process", num_workers=s, obs=obs, wal=wal_mode,
            ),
        ))

    def run():
        # every configuration once per repeat, each row its best over
        # the repeats: a slow phase of the host then costs each row at
        # most one repeat instead of landing on a few rows whole
        best = [0.0] * len(configs)
        for _ in range(BEST_OF):
            for i, (_name, _shards, mips) in enumerate(configs):
                best[i] = max(best[i], mips())
        return [(name, shards, b) for (name, shards, _), b in zip(configs, best)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    header = (
        f"{'configuration':<24} {'shards':>6} {'Mips':>8}"
        f"   (obs {obs_mode}, wal {wal_mode}, best of {BEST_OF},"
        f" nproc {_nproc()})"
    )
    lines = [header, "-" * len(header)]
    for name, shards, mips in rows:
        lines.append(f"{name:<24} {shards!s:>6} {mips:>8.2f}")
    emit(results_dir, "bench_service", "\n".join(lines) + "\n")
    _write_bench_json(rows, obs_mode, extra={"wal_mode": wal_mode})

    by = {name: mips for name, _, mips in rows}
    # the serving layer must stay within a small factor of the raw sketch
    assert by["engine serial x1"] > by["single sketch"] / 5
    # sharding in-process must not collapse throughput
    assert by["engine serial x4"] > by["single sketch"] / 8


def check_obs_overhead(
    n_items: int = N_ITEMS, shards: int = 4, trials: int = 3
) -> int:
    """CI check mode: obs-on vs obs-off ingest throughput, no pytest.

    ``trials`` (>= 3) alternating repeats interleave the two modes so
    drift (thermal, noisy neighbours) hits both equally; we keep the
    best of each to compare steady-state cost, and report each mode's
    per-trial spread so a noisy run is visible in the output instead of
    silently poisoning the comparison.  The reported overhead is
    clamped at 0: a negative raw value just means obs-on won a coin
    flip within the machine's noise floor, not that instrumentation
    sped anything up.  The hard gate is deliberately placed on the
    *enabled* path — the disabled path is byte-for-byte the seed hot
    path plus no-op calls, so an off-regression would show up here as
    an on-regression too.
    """
    trials = max(trials, 3)
    stream = _stream(n_items)
    off_runs: list[float] = []
    on_runs: list[float] = []
    for _ in range(trials):
        off_runs.append(_engine_mips(stream, shards, "serial", obs=False))
        on_runs.append(_engine_mips(stream, shards, "serial", obs=True))
    off, on = max(off_runs), max(on_runs)
    off_spread = (max(off_runs) - min(off_runs)) / off * 100.0
    on_spread = (max(on_runs) - min(on_runs)) / on * 100.0
    raw_overhead_pct = (off - on) / off * 100.0
    overhead_pct = max(raw_overhead_pct, 0.0)
    noise_floor = raw_overhead_pct < 0.0
    print(
        f"obs off: {off:.2f} Mips  "
        f"(best of {trials}, spread {off_spread:.1f}%)"
    )
    print(
        f"obs on:  {on:.2f} Mips  "
        f"(best of {trials}, spread {on_spread:.1f}%)"
    )
    print(f"enabled-obs overhead: {overhead_pct:.2f}%")
    if noise_floor:
        print(
            f"note: raw overhead {raw_overhead_pct:.2f}% is negative — "
            "below the noise floor, reported as 0"
        )
    rows = [
        (f"engine serial x{shards} (obs off)", shards, off),
        (f"engine serial x{shards} (obs on)", shards, on),
    ]
    _write_bench_json(
        rows,
        "check",
        extra={
            "obs_overhead_pct": round(overhead_pct, 2),
            "obs_overhead_raw_pct": round(raw_overhead_pct, 2),
            "obs_overhead_below_noise_floor": noise_floor,
            "trials": trials,
            "off_mips_runs": [round(m, 3) for m in off_runs],
            "on_mips_runs": [round(m, 3) for m in on_runs],
            "off_spread_pct": round(off_spread, 2),
            "on_spread_pct": round(on_spread, 2),
        },
        n_items=n_items,
    )
    # generous CI-noise margin; locally this lands in low single digits
    limit = 15.0
    if overhead_pct > limit:
        print(f"FAIL: overhead {overhead_pct:.2f}% exceeds {limit}%")
        return 1
    if _shed_counter_smoke() != 0:
        return 1
    print("OK")
    return 0


def _shed_counter_smoke() -> int:
    """Overload accounting smoke: shed counters must reach /metrics.

    Drives a burst into a bounded engine with one shard pinned down
    under ``shed_oldest`` and checks that the registry-rendered shed
    totals match the stats snapshot and close the conservation
    identity — the admission-control path CI actually depends on.
    """
    cfg = EngineConfig(
        "cm", window=WINDOW, size=SIZE, num_shards=4,
        flush_batch_size=CHUNK, flush_interval_s=None,
        max_buffered_items=1024, overload_policy="shed_oldest",
        sketch_kwargs={"seed": 7},
    )
    eng = StreamEngine(cfg, obs=True)
    eng._down.add(0)
    stream = _stream(50_000)
    for lo in range(0, stream.size, 2048):
        eng.ingest(stream[lo:lo + 2048])
    snap = eng.stats_snapshot(tick=False)
    conserved = snap["items_ingested"] == (
        snap["items_flushed"] + snap["items_buffered"]
        + snap["items_shed"] + snap["items_retained_down"]
    )
    text = eng.obs.registry.render()
    exported = f"engine_items_shed_total {snap['items_shed']}" in text
    per_shard = 'engine_shard_items_shed_total{shard="0"}' in text
    print(
        f"shed smoke: shed={snap['items_shed']} conserved={conserved} "
        f"exported={exported and per_shard}"
    )
    if snap["items_shed"] <= 0 or not conserved or not exported or not per_shard:
        print("FAIL: shed accounting did not reach the metrics registry")
        return 1
    return 0


def check_windowed_overhead(
    n_items: int = N_ITEMS, shards: int = 4, trials: int = 3
) -> int:
    """CI gate mode: windowed-telemetry overhead on an obs-on engine.

    Same methodology as :func:`check_obs_overhead`, but the baseline is
    an *instrumented* engine (``Observability(enabled=True,
    telemetry=False)``) and the candidate adds the windowed layer — the
    stage latency recorder on the ingest/flush hot path plus the
    registry view (the view itself is scrape-driven, so the measured
    cost is the stage recorder's buffered ``observe`` calls).  Target
    is <= 2%; the hard gate leaves the usual CI-noise margin.  Results
    merge into ``BENCH_service.json`` under ``windowed_overhead``.
    """
    from repro.obs import Observability

    trials = max(trials, 3)
    stream = _stream(n_items)
    base_runs: list[float] = []
    tele_runs: list[float] = []
    for _ in range(trials):
        base_runs.append(_engine_mips(
            stream, shards, "serial",
            obs=Observability(enabled=True, telemetry=False),
        ))
        tele_runs.append(_engine_mips(
            stream, shards, "serial",
            obs=Observability(enabled=True, telemetry=True),
        ))
    base, tele = max(base_runs), max(tele_runs)
    raw_pct = (base - tele) / base * 100.0
    pct = max(raw_pct, 0.0)
    print(f"obs on, telemetry off: {base:.2f} Mips  (best of {trials})")
    print(f"obs on, telemetry on:  {tele:.2f} Mips  (best of {trials})")
    print(f"windowed-telemetry overhead: {pct:.2f}%  (target <= 2%)")
    if raw_pct < 0.0:
        print(
            f"note: raw overhead {raw_pct:.2f}% is negative — below the "
            "noise floor, reported as 0"
        )
    path = _REPO_ROOT / "BENCH_service.json"
    payload = (
        json.loads(path.read_text())
        if path.exists()
        else {"benchmark": "bench_service_throughput"}
    )
    payload["windowed_overhead"] = {
        "n_items": n_items,
        "shards": shards,
        "trials": trials,
        "base_mips_runs": [round(m, 3) for m in base_runs],
        "telemetry_mips_runs": [round(m, 3) for m in tele_runs],
        "overhead_pct": round(pct, 2),
        "overhead_raw_pct": round(raw_pct, 2),
        "target_pct": 2.0,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    # generous CI-noise margin; locally this lands well under the target
    limit = 15.0
    if pct > limit:
        print(f"FAIL: windowed overhead {pct:.2f}% exceeds {limit}%")
        return 1
    print("OK")
    return 0


def check_wal_overhead(
    n_items: int = N_ITEMS, shards: int = 4, trials: int = 3
) -> int:
    """CI gate mode: WAL-off vs logged ingest throughput, no pytest.

    Same methodology as :func:`check_obs_overhead` — alternating
    trials, best-of-N per mode, overhead clamped at 0 when the
    measurement is below the noise floor.  The gated number is the
    ``interval`` policy (the recommended production setting: one
    buffered write per batch, fsync on a timer); ``always`` pays a real
    fsync per batch, so its bound is far looser — it exists to catch a
    pathological regression (per-item syscalls), not to promise that
    synchronous durability is cheap.  Results merge into
    ``BENCH_service.json`` under ``wal_overhead`` so the trajectory
    file keeps the obs-check numbers alongside.
    """
    trials = max(trials, 3)
    stream = _stream(n_items)
    runs: dict[str, list[float]] = {"off": [], "interval": [], "always": []}
    for _ in range(trials):
        for mode in runs:
            runs[mode].append(
                _engine_mips(stream, shards, "serial", wal=mode)
            )
    best = {mode: max(vals) for mode, vals in runs.items()}
    overhead = {
        mode: max(0.0, (best["off"] - best[mode]) / best["off"] * 100.0)
        for mode in ("interval", "always")
    }
    print(f"wal off:      {best['off']:.2f} Mips  (best of {trials})")
    for mode in ("interval", "always"):
        print(
            f"wal {mode:<8} {best[mode]:.2f} Mips  "
            f"(overhead {overhead[mode]:.2f}%)"
        )
    path = _REPO_ROOT / "BENCH_service.json"
    payload = (
        json.loads(path.read_text())
        if path.exists()
        else {"benchmark": "bench_service_throughput"}
    )
    payload["wal_overhead"] = {
        "n_items": n_items,
        "shards": shards,
        "trials": trials,
        "mips": {m: round(v, 3) for m, v in best.items()},
        "mips_runs": {
            m: [round(x, 3) for x in vals] for m, vals in runs.items()
        },
        "overhead_pct": {m: round(v, 2) for m, v in overhead.items()},
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    limits = {"interval": 30.0, "always": 80.0}
    rc = 0
    for mode, limit in limits.items():
        if overhead[mode] > limit:
            print(
                f"FAIL: wal={mode} overhead {overhead[mode]:.2f}% "
                f"exceeds {limit}%"
            )
            rc = 1
    if rc == 0:
        print("OK")
    return rc


if __name__ == "__main__":
    if "--check-obs" in sys.argv:
        rc = check_obs_overhead(n_items=200_000)
        sys.exit(rc if rc else check_windowed_overhead(n_items=200_000))
    if "--check-wal" in sys.argv:
        sys.exit(check_wal_overhead(n_items=200_000))
    sys.exit(
        "usage: python bench_service_throughput.py "
        "--check-obs | --check-wal"
    )
