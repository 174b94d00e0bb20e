"""Sliding-window telemetry: SHE-framed quantiles, stage latency, views.

The repo's own observability layer should eat what it serves: counters
and fixed-bucket histograms answer "since process start", but operators
of a sliding-window system ask sliding-window questions — p99 flush
latency *over the last window*, shed rate *in the last five minutes*.
This module backs the telemetry layer with the framework itself:

* :class:`SheWindowedQuantile` — a log-bucket (DDSketch-style) quantile
  sketch lifted onto a SHE frame, so samples expire by the window clock
  and same-geometry sketches merge across shards.  Registered as
  algorithm kind ``"wq"`` through :mod:`repro.core.registry`, which
  makes it servable by a :class:`~repro.service.engine.StreamEngine`
  end-to-end (sharding, checkpoints, recovery) — the extension path the
  registry promises, exercised by the telemetry layer itself.
* :class:`StageLatencyRecorder` — windowed p50/p95/p99 for each engine
  hot-path stage (admit → wal_append → stamp → flush_rpc → apply →
  query_fanin), with exemplar trace-ids reservoir-sampled into the top
  latency buckets (one-per-bucket reservoirs in the spirit of
  Braverman, Ostrovsky & Zaniolo's succinct stream sampling).
* :class:`WindowedRegistryView` — derived last-1m/5m/1h rate and
  quantile gauges over every existing Counter/Histogram family,
  computed from scrape-time snapshots so the hot path pays nothing.

Thread safety: ``observe()`` appends under a small lock and batches the
sketch inserts; ``refresh()`` (called by the exporter's scrape thread)
drains under the same lock.  The view only reads metric children, which
are single-writer / torn-read-tolerant by design.
"""

from __future__ import annotations

import math
import random
import threading
import time

import numpy as np

from repro.core.base import FrameKind, sized_from_memory
from repro.core.csm import CellType, CsmSpec, UpdateKind
from repro.core.generic import GenericSheSketch
from repro.core.registry import (
    AlgoDescriptor,
    _default_from_state,
    _default_to_state,
    _single_frame_signature,
    register_algorithm,
)

__all__ = [
    "QUANTILE_SPEC",
    "SheWindowedQuantile",
    "ExemplarReservoir",
    "StageLatencyRecorder",
    "NULL_STAGES",
    "WindowedRegistryView",
    "ENGINE_STAGES",
]


# -- the windowed quantile sketch ---------------------------------------------

#: ⟨C, K, F⟩ for the quantile sketch: one ADD_ONE counter per log
#: bucket.  ``locations=1`` keeps the registry's derived cell-merge
#: (counts add) and hash bookkeeping, but inserts index buckets
#: directly — the "hash" of a measurement is its magnitude.
QUANTILE_SPEC = CsmSpec(
    name="windowed-quantile",
    cell_type=CellType.COUNTER,
    locations=1,
    update=UpdateKind.ADD_ONE,
    default_cell_bits=32,
    empty_value=0,
    one_sided=False,
)


def _require_q(q: float) -> None:
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")


class SheWindowedQuantile(GenericSheSketch):
    """Sliding-window quantiles over non-negative integer measurements.

    DDSketch-style value mapping: measurement ``v`` lands in log bucket
    ``round(ln(v) / ln(base))`` with ``base = (1+gamma)/(1-gamma)``, so
    every quantile estimate carries relative error ≤ ``gamma``.  The
    buckets are SHE cells — each insert stamps its bucket with the
    arrival time, the frame's lazy cleaning expires stale counts, and
    two same-geometry sketches merge by adding cells — so a quantile at
    time ``t`` reflects (approximately, per the SHE legality band) the
    last ``window`` samples of the union stream.

    Measurements are ``uint64`` keys on the engine wire format; the
    telemetry layer uses integer microseconds.  ``quantile`` returns
    the bucket's representative value in the same unit (as a float).

    Values 0 and 1 share bucket 0; values beyond ``base**(M-1)``
    saturate into the top bucket (the estimate floors at that bucket's
    representative).
    """

    cell_bits = 32
    from_memory = classmethod(sized_from_memory)

    def __init__(
        self,
        window: int,
        num_cells: int,
        *,
        gamma: float = 0.05,
        alpha: float = 0.2,
        group_width: int = 64,
        beta: float = 0.9,
        frame: FrameKind = "hardware",
        seed: int = 7,
    ):
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {gamma}")
        super().__init__(
            QUANTILE_SPEC,
            window,
            num_cells,
            alpha=alpha,
            group_width=group_width,
            beta=beta,
            frame=frame,
            seed=seed,
        )
        self.gamma = float(gamma)
        self._log_base = math.log((1.0 + self.gamma) / (1.0 - self.gamma))

    # -- value <-> bucket mapping -------------------------------------------

    def bucket_of(self, values) -> np.ndarray:
        """Log-bucket index for each non-negative measurement."""
        v = np.asarray(values, dtype=np.float64)
        out = np.zeros(v.shape, dtype=np.int64)
        big = v > 1.0
        if np.any(big):
            idx = np.rint(np.log(v[big]) / self._log_base).astype(np.int64)
            out[big] = np.clip(idx, 0, self.num_cells_total - 1)
        return out

    def representative(self, bucket: int) -> float:
        """The value a bucket stands for (γ-relative-accurate)."""
        if bucket <= 0:
            return 1.0
        return math.exp(bucket * self._log_base)

    # -- SHE plumbing --------------------------------------------------------

    def _touch_columns(self, keys: np.ndarray, times: np.ndarray):
        # measurements index their bucket directly: no hashing, one
        # touched cell per sample, counts add under ADD_ONE
        idx = self.bucket_of(keys).reshape(1, -1)
        return times, idx, None, self.spec.update

    # -- queries -------------------------------------------------------------

    def _window_cells(self, t: int | None) -> tuple[tuple, tuple]:
        """``(cells, times)`` of the frame cleaned at ``t``, as the
        estimators take them."""
        t = self._resolve_time(t)
        self.frame.prepare_query_all(t)
        return (self.frame.cells,), (t,)

    def sample_count(self, t: int | None = None) -> int:
        """Samples currently held in the window (post-cleaning)."""
        return self.estimate_sample_count(*self._window_cells(t))

    def quantile(self, q: float, t: int | None = None) -> float:
        """The ``q``-quantile of the windowed samples (NaN when empty)."""
        _require_q(q)
        return self.estimate_quantile(*self._window_cells(t), q)

    def quantiles(self, qs, t: int | None = None) -> list[float]:
        """Several quantiles from one frame cleaning pass."""
        return self.estimate_quantiles(*self._window_cells(t), qs)

    # -- estimators over cells as cleaning at ``times`` leaves them; they
    # read only this sketch's geometry (AlgoDescriptor.estimators)

    def estimate_sample_count(self, cells: tuple, times: tuple) -> int:
        return int(cells[0].astype(np.float64).sum())

    def estimate_quantile(self, cells: tuple, times: tuple, q: float) -> float:
        _require_q(q)
        return self.estimate_quantiles(cells, times, (q,))[0]

    def estimate_quantiles(self, cells: tuple, times: tuple, qs) -> list[float]:
        counts = cells[0].astype(np.float64)
        total = counts.sum()
        if total <= 0:
            return [float("nan")] * len(list(qs))
        cum = np.cumsum(counts)
        out = []
        for q in qs:
            _require_q(q)
            target = max(q, 1e-12) * total
            bucket = int(np.searchsorted(cum, target, side="left"))
            out.append(self.representative(min(bucket, counts.size - 1)))
        return out

    def _probe_extra(self) -> dict:
        return {"gamma": self.gamma, "samples_in_window": self.sample_count()}


def _wq_to_state(desc, sketch) -> tuple[dict, dict]:
    meta, arrays = _default_to_state(desc, sketch)
    # the bucket mapping is part of the sketch's identity: a recover
    # with a different gamma would silently re-bucket history
    meta["params"]["gamma"] = sketch.gamma
    return meta, arrays


def _wq_signature(desc, sketch) -> tuple:
    return _single_frame_signature(desc, sketch) + (float(sketch.gamma),)


register_algorithm(AlgoDescriptor(
    kind="wq",
    cls=SheWindowedQuantile,
    size_arg="num_cells",
    spec=QUANTILE_SPEC,
    queries=frozenset({"quantile"}),
    degraded_caveat=(
        "quantiles ignore samples owned by missing shards; tail "
        "estimates may shift"
    ),
    shed_caveat=(
        "quantiles ignore arrivals shed inside the current window"
    ),
    signature=_wq_signature,
    estimators={
        "quantile": SheWindowedQuantile.estimate_quantile,
        "sample_count": SheWindowedQuantile.estimate_sample_count,
    },
    to_state=_wq_to_state,
    from_state=_default_from_state,  # gamma rides in params
))


# -- exemplars ----------------------------------------------------------------


class ExemplarReservoir:
    """One-slot reservoir per latency bucket, linking buckets to traces.

    Each bucket keeps a single uniformly-chosen exemplar of the samples
    that ever landed there (classic reservoir sampling with k=1, kept
    per bucket so the *tail* buckets — the ones an operator drills into
    — always hold a live trace-id).  Read-side filtering drops
    exemplars older than ``max_age_s`` so a bucket that went quiet
    stops advertising a stale trace.
    """

    def __init__(self, bucket_of, *, max_age_s: float = 600.0, seed: int = 0xE7):
        self._bucket_of = bucket_of
        self._max_age_s = float(max_age_s)
        self._rng = random.Random(seed)
        # bucket -> [trace_id, value, wall_ts, samples_seen]
        self._slots: dict[int, list] = {}

    def offer(self, value: float, trace_id: str | None, now: float) -> None:
        if trace_id is None:
            return
        bucket = int(self._bucket_of(value))
        slot = self._slots.get(bucket)
        if slot is None:
            self._slots[bucket] = [trace_id, value, now, 1]
            return
        slot[3] += 1
        if self._rng.random() * slot[3] < 1.0:
            slot[0], slot[1], slot[2] = trace_id, value, now

    def read(self, *, min_bucket: int = 0, now: float, limit: int = 3) -> list[dict]:
        """Fresh exemplars at/above ``min_bucket``, highest bucket first."""
        out = []
        for bucket in sorted(self._slots, reverse=True):
            if bucket < min_bucket:
                break
            trace_id, value, ts, seen = self._slots[bucket]
            if now - ts > self._max_age_s:
                continue
            out.append({
                "bucket": bucket,
                "trace_id": trace_id,
                "value": value,
                "age_s": round(now - ts, 3),
                "samples_seen": seen,
            })
            if len(out) >= limit:
                break
        return out


# -- stage-level latency attribution ------------------------------------------

#: the engine hot path, in pipeline order
ENGINE_STAGES = (
    "admit",
    "wal_append",
    "stamp",
    "flush_rpc",
    "apply",
    "query_fanin",
)


class StageLatencyRecorder:
    """Windowed latency quantiles per engine hot-path stage.

    One :class:`SheWindowedQuantile` per stage, clocked in *samples*
    (the SHE union-stream clock is count-based): the quantiles cover
    the last ``window`` observations of that stage.  ``observe`` is
    called from the engine thread (and the executor ack path); it
    buffers under a lock and batch-inserts every ``batch`` samples so
    the steady-state cost is one list append.  The exporter's scrape
    thread calls :meth:`refresh` to drain and publish gauges:

    * ``engine_stage_latency_seconds{stage, quantile}`` — windowed
      p50/p95/p99 over the last ``window`` samples
    * ``engine_stage_exemplar_seconds{stage, trace_id}`` — the freshest
      top-bucket exemplars (cleared and re-set on each refresh)
    * ``engine_stage_seconds{stage}`` — a cumulative histogram feeding
      :class:`WindowedRegistryView`'s wall-clock 1m/5m/1h quantiles

    :meth:`track_threshold` adds cumulative good/total accounting for a
    latency SLO (samples above the threshold are "bad" events).
    """

    enabled = True

    def __init__(
        self,
        registry,
        *,
        stages: tuple[str, ...] = ENGINE_STAGES,
        window: int = 4096,
        num_cells: int = 256,
        gamma: float = 0.05,
        batch: int = 128,
        quantiles: tuple[float, ...] = (0.5, 0.95, 0.99),
        exemplar_limit: int = 3,
        clock=time.time,
    ):
        self.stages = tuple(stages)
        self.window = int(window)
        self._quantiles = tuple(quantiles)
        self._batch = int(batch)
        self._exemplar_limit = int(exemplar_limit)
        self._clock = clock
        self._lock = threading.Lock()
        self._sketches = {
            s: SheWindowedQuantile(window, num_cells, gamma=gamma)
            for s in self.stages
        }
        self._reservoirs = {
            s: ExemplarReservoir(self._bucket_of_seconds(s))
            for s in self.stages
        }
        self._pending: dict[str, list] = {s: [] for s in self.stages}
        self._seen = {s: 0 for s in self.stages}
        # stage -> threshold_s -> cumulative samples above it
        self._over: dict[str, dict[float, int]] = {s: {} for s in self.stages}
        self._g_quantile = registry.gauge(
            "engine_stage_latency_seconds",
            f"Windowed stage latency quantiles (last {self.window} samples)",
            labels=("stage", "quantile"),
        )
        self._g_exemplar = registry.gauge(
            "engine_stage_exemplar_seconds",
            "Top-bucket latency exemplars linking stages to trace ids",
            labels=("stage", "trace_id"),
        )
        self._h_stage = registry.histogram(
            "engine_stage_seconds",
            "Stage duration on the engine hot path (cumulative)",
            labels=("stage",),
        )
        self._h_children = {s: self._h_stage.labels(s) for s in self.stages}

    def _bucket_of_seconds(self, stage: str):
        sketch = self._sketches[stage]

        def bucket(seconds: float) -> int:
            return int(sketch.bucket_of([_to_micros(seconds)])[0])

        return bucket

    # -- hot-path write side -------------------------------------------------

    def observe(self, stage: str, seconds: float, trace_id: str | None = None) -> None:
        """Record one stage duration (engine thread / executor ack).

        The steady-state cost is one lock plus one list append: the
        cumulative histogram, windowed sketch, threshold counts, clock
        read and exemplar offer are all deferred to the next drain
        (every ``batch`` samples, or any read-side call), where they
        run vectorised over the whole pending batch.
        """
        pending = self._pending.get(stage)
        if pending is None:
            raise ValueError(f"unknown stage {stage!r}; stages: {self.stages}")
        with self._lock:
            pending.append((seconds, trace_id))
            if len(pending) >= self._batch:
                self._drain_locked(stage)

    def _drain_locked(self, stage: str) -> None:
        pending = self._pending[stage]
        if not pending:
            return
        arr_s = np.asarray([s for s, _ in pending], dtype=np.float64)
        # traced samples are the tracer-sampled minority; exemplars
        # share one wall-clock read per drain (freshness within one
        # batch is indistinguishable to the read-side age filter)
        now = self._clock()
        reservoir = self._reservoirs[stage]
        for seconds, trace_id in pending:
            if trace_id is not None:
                reservoir.offer(seconds, trace_id, now)
        pending.clear()
        self._h_children[stage].observe_many(arr_s)
        micros = np.maximum(arr_s * 1e6, 1.0).astype(np.uint64)
        self._sketches[stage].insert_many(micros)
        self._seen[stage] += int(arr_s.size)
        over = self._over[stage]
        for threshold in over:
            over[threshold] += int(np.count_nonzero(arr_s > threshold))

    # -- SLO accounting ------------------------------------------------------

    def track_threshold(self, stage: str, threshold_s: float) -> None:
        """Start counting samples above ``threshold_s`` for a latency SLO."""
        if stage not in self._over:
            raise ValueError(f"unknown stage {stage!r}; stages: {self.stages}")
        with self._lock:
            self._over[stage].setdefault(float(threshold_s), 0)

    def threshold_totals(self, stage: str, threshold_s: float) -> tuple[int, int]:
        """Cumulative ``(samples_above, samples_total)`` for a tracked
        threshold — the bad/total event counts a burn rate divides."""
        with self._lock:
            self._drain_locked(stage)
            return self._over[stage][float(threshold_s)], self._seen[stage]

    # -- read side (scrape thread) -------------------------------------------

    def quantile(self, stage: str, q: float) -> float | None:
        """One windowed stage quantile in seconds (None when empty)."""
        with self._lock:
            self._drain_locked(stage)
            value = self._sketches[stage].quantile(q)
        return None if math.isnan(value) else value * 1e-6

    def refresh(self) -> None:
        """Drain pending samples and republish the windowed gauges."""
        now = self._clock()
        exemplars: dict[str, list[dict]] = {}
        with self._lock:
            for stage in self.stages:
                self._drain_locked(stage)
                sketch = self._sketches[stage]
                values = sketch.quantiles(self._quantiles)
                for q, value in zip(self._quantiles, values):
                    if not math.isnan(value):
                        self._g_quantile.labels(stage, _q_label(q)).set(value * 1e-6)
                p90 = sketch.quantile(0.9)
                min_bucket = (
                    0 if math.isnan(p90)
                    else int(sketch.bucket_of([max(p90, 1.0)])[0])
                )
                exemplars[stage] = self._reservoirs[stage].read(
                    min_bucket=min_bucket, now=now, limit=self._exemplar_limit
                )
        # exemplar children churn with trace ids: clear-and-set bounds
        # the family to (stages x exemplar_limit) live children
        self._g_exemplar.clear()
        for stage, entries in exemplars.items():
            for entry in entries:
                self._g_exemplar.labels(stage, entry["trace_id"]).set(entry["value"])

    def statusz_section(self) -> dict:
        """Per-stage windowed quantiles + fresh tail exemplars."""
        now = self._clock()
        out: dict = {"window_samples": self.window, "stages": {}}
        with self._lock:
            for stage in self.stages:
                self._drain_locked(stage)
                sketch = self._sketches[stage]
                values = sketch.quantiles(self._quantiles)
                p90 = sketch.quantile(0.9)
                min_bucket = (
                    0 if math.isnan(p90)
                    else int(sketch.bucket_of([max(p90, 1.0)])[0])
                )
                out["stages"][stage] = {
                    "samples_total": self._seen[stage],
                    "samples_in_window": sketch.sample_count(),
                    "quantiles_s": {
                        _q_label(q): (None if math.isnan(v) else v * 1e-6)
                        for q, v in zip(self._quantiles, values)
                    },
                    "exemplars": self._reservoirs[stage].read(
                        min_bucket=min_bucket, now=now,
                        limit=self._exemplar_limit,
                    ),
                }
        return out


def _to_micros(seconds: float) -> float:
    return max(seconds * 1e6, 1.0)


def _q_label(q: float) -> str:
    text = f"{q:g}"
    return text


class _NullStageRecorder:
    """Disabled recorder: observe/refresh are no-ops, totals read 0."""

    enabled = False
    stages = ()

    def observe(self, stage, seconds, trace_id=None) -> None:
        pass

    def track_threshold(self, stage, threshold_s) -> None:
        pass

    def threshold_totals(self, stage, threshold_s) -> tuple[int, int]:
        return 0, 0

    def quantile(self, stage, q):
        return None

    def refresh(self) -> None:
        pass

    def statusz_section(self) -> dict:
        return {}


NULL_STAGES = _NullStageRecorder()


# -- windowed views over the whole registry -----------------------------------

#: horizon name -> seconds, for the derived rate/quantile gauges
DEFAULT_HORIZONS = (("1m", 60.0), ("5m", 300.0), ("1h", 3600.0))


class WindowedRegistryView:
    """Last-1m/5m/1h rates and quantiles for every Counter/Histogram.

    Pure snapshot differencing: on each :meth:`refresh` (the exporter
    scrape thread) the view records every counter value / histogram
    bucket vector into a per-horizon ring of time slots, subtracts the
    oldest in-horizon slot from the newest, and publishes

    * ``<name minus _total>_rate{..., window}`` — per-second rate of
      each counter over the horizon
    * ``<name>_windowed_<unit>{..., window, quantile}`` — p50/p95/p99
      interpolated from each histogram's windowed bucket deltas

    The hot path never sees this: metric children are plain numbers and
    reading them races only with single writers (torn reads a scrape
    tolerates by design).  Derived gauges are skipped on later passes
    (the view only windows counters and histograms), so there is no
    feedback.  Until a horizon's ring spans its full width the delta
    covers the available history — rates and quantiles are ratios, so
    a shorter span changes resolution, not meaning.
    """

    def __init__(
        self,
        registry,
        *,
        horizons=DEFAULT_HORIZONS,
        slots: int = 15,
        quantiles: tuple[float, ...] = (0.5, 0.95, 0.99),
        clock=time.time,
    ):
        if slots < 2:
            raise ValueError("windowed view needs at least 2 ring slots")
        self._registry = registry
        self._horizons = tuple((str(n), float(s)) for n, s in horizons)
        self._slots = int(slots)
        self._quantiles = tuple(quantiles)
        self._clock = clock
        # (metric name, label key) -> horizon name -> ring of
        # [slot_epoch, wall_ts, snapshot] (snapshot = float for
        # counters, (counts tuple, sum, count) for histograms)
        self._rings: dict = {}
        self._out: dict[str, object] = {}  # derived gauge families
        self._last: dict = {}

    # -- naming --------------------------------------------------------------

    @staticmethod
    def rate_name(name: str) -> str:
        base = name[: -len("_total")] if name.endswith("_total") else name
        return base + "_rate"

    @staticmethod
    def windowed_name(name: str) -> str:
        for unit in ("_seconds", "_bytes"):
            if name.endswith(unit):
                return name[: -len(unit)] + "_windowed" + unit
        return name + "_windowed"

    # -- ring plumbing -------------------------------------------------------

    def _ring_update(self, series_key, horizon, now, snap):
        """Write the current slot and return (delta base, span_s)."""
        name, seconds = horizon
        rings = self._rings.setdefault(series_key, {})
        ring = rings.get(name)
        if ring is None:
            ring = rings[name] = [None] * self._slots
        slot_s = seconds / self._slots
        epoch = int(now // slot_s)
        i = epoch % self._slots
        cell = ring[i]
        if cell is None or cell[0] != epoch:
            ring[i] = [epoch, now, snap]  # first sample in this slot wins
        base = None
        for cell in ring:
            if cell is None or epoch - cell[0] >= self._slots:
                continue  # empty or aged out of the horizon
            if base is None or cell[0] < base[0]:
                base = cell
        if base is None or base[1] >= now:
            return None, 0.0
        return base, now - base[1]

    def _out_gauge(self, name: str, help: str, labelnames) -> object:
        gauge = self._out.get(name)
        if gauge is None:
            gauge = self._registry.gauge(name, help, labels=tuple(labelnames))
            self._out[name] = gauge
        return gauge

    # -- the scrape-side pass ------------------------------------------------

    def refresh(self) -> None:
        now = self._clock()
        summary: dict = {
            "horizons": {n: s for n, s in self._horizons},
            "refreshed_at": now,
            "rates": {},
            "quantiles": {},
        }
        for metric in list(self._registry.metrics()):
            if metric.name in self._out:
                continue  # never window our own derived gauges
            if metric.kind == "counter":
                self._refresh_counter(metric, now, summary)
            elif metric.kind == "histogram":
                self._refresh_histogram(metric, now, summary)
        self._last = summary

    def _refresh_counter(self, metric, now, summary) -> None:
        gauge = self._out_gauge(
            self.rate_name(metric.name),
            f"Windowed per-second rate of {metric.name}",
            metric.labelnames + ("window",),
        )
        for key, child in list(metric.children()):
            series_key = (metric.name, key)
            for horizon in self._horizons:
                base, span = self._ring_update(
                    series_key, horizon, now, float(child.value)
                )
                if base is None or span <= 0:
                    continue
                rate = max(child.value - base[2], 0.0) / span
                gauge.labels(*key, horizon[0]).set(rate)
                flat = _flat_series(metric.name, metric.labelnames, key)
                summary["rates"].setdefault(flat, {})[horizon[0]] = rate

    def _refresh_histogram(self, metric, now, summary) -> None:
        gauge = self._out_gauge(
            self.windowed_name(metric.name),
            f"Windowed quantiles of {metric.name}",
            metric.labelnames + ("window", "quantile"),
        )
        for key, child in list(metric.children()):
            series_key = (metric.name, key)
            snap = (tuple(child.counts), child.sum, child.count)
            for horizon in self._horizons:
                base, span = self._ring_update(series_key, horizon, now, snap)
                if base is None or span <= 0:
                    continue
                deltas = [
                    max(c - b, 0)
                    for c, b in zip(snap[0], base[2][0])
                ]
                flat = _flat_series(metric.name, metric.labelnames, key)
                for q in self._quantiles:
                    est = _bucket_quantile(child.bounds, deltas, q)
                    if est is None:
                        continue
                    gauge.labels(*key, horizon[0], _q_label(q)).set(est)
                    summary["quantiles"].setdefault(flat, {}).setdefault(
                        horizon[0], {}
                    )[_q_label(q)] = est

    def statusz_section(self) -> dict:
        return self._last


def _flat_series(name: str, labelnames, key) -> str:
    if not key:
        return name
    inner = ",".join(f'{n}="{v}"' for n, v in zip(labelnames, key))
    return f"{name}{{{inner}}}"


def _bucket_quantile(bounds, counts, q: float) -> float | None:
    """Linear interpolation inside fixed histogram buckets.

    ``counts`` are per-bucket (not cumulative) with the +Inf bucket
    last; the +Inf bucket answers with the top finite bound (no better
    information exists there).
    """
    total = sum(counts)
    if total <= 0:
        return None
    target = max(q, 1e-12) * total
    running = 0.0
    for i, c in enumerate(counts):
        if running + c >= target:
            if i >= len(bounds):
                return float(bounds[-1])
            lower = float(bounds[i - 1]) if i > 0 else 0.0
            upper = float(bounds[i])
            frac = (target - running) / c if c else 0.0
            return lower + frac * (upper - lower)
        running += c
    return float(bounds[-1])
