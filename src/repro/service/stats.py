"""In-process observability for the streaming engine.

A serving system is debugged through its counters: how much came in,
how often the buffers drained, how long a drain takes at the tail, how
stale the last checkpoint is.  ``EngineStats`` keeps exactly that — but
since the obs subsystem arrived it no longer owns the numbers: every
counter lives in a :class:`repro.obs.Registry` (the engine's, when
observability is enabled, so ``/metrics`` serves the same values; a
private one otherwise), and ``EngineStats`` is the thin view that
preserves the original attribute and ``snapshot()`` surface.  The ring
of recent flush durations stays local (percentiles need the raw
samples), there are still no locks (the engine mutates from one
thread), and the monotonic clock is injectable so tests can pin time.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.obs.registry import Registry

__all__ = ["EngineStats", "format_stats"]

_RING = 1024  # flush-latency samples kept for percentile estimates

# seconds-scale buckets for the exported flush-duration histogram
_FLUSH_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


class EngineStats:
    """Counters and latency percentiles for one :class:`StreamEngine`.

    Args:
        clock: injectable monotonic clock.
        registry: where the counters live.  Pass the engine's obs
            registry to have ``/metrics`` serve these values; the
            default private registry keeps the class self-contained
            (and is what a disabled-obs engine uses — counting is an
            attribute increment either way, so ``snapshot()`` always
            works).
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.monotonic,
        registry: Registry | None = None,
    ):
        self._clock = clock
        self.started_at = clock()
        reg = registry if registry is not None else Registry()
        self.registry = reg
        self._ingested = reg.counter(
            "engine_items_ingested_total", "Items accepted by ingest()"
        )
        self._flushed = reg.counter(
            "engine_items_flushed_total", "Items drained into shard sketches"
        )
        self._flushes = reg.counter(
            "engine_flushes_total", "Buffer drain rounds"
        )
        self._queries = reg.counter(
            "engine_queries_total", "Queries answered (any kind)"
        )
        self._checkpoints = reg.counter(
            "engine_checkpoints_total", "Completed checkpoints"
        )
        # fault-tolerance counters: how often the engine hit a deadline,
        # lost a worker, restarted one, replayed batches into a rebuilt
        # worker, or answered a query with shards missing
        self._timeouts = reg.counter(
            "engine_rpc_timeouts_total", "Worker RPCs that missed their deadline"
        )
        self._deaths = reg.counter(
            "engine_worker_deaths_total", "Workers observed dead"
        )
        self._restarts = reg.counter(
            "engine_worker_restarts_total", "Successful worker restarts"
        )
        self._replayed_items = reg.counter(
            "engine_items_replayed_total", "Items re-applied during recovery"
        )
        self._replayed_batches = reg.counter(
            "engine_batches_replayed_total", "Batches re-applied during recovery"
        )
        self._degraded = reg.counter(
            "engine_degraded_queries_total",
            "Queries answered with shards missing",
        )
        # admission-control counters: items dropped by a shed policy
        # (admitted then evicted, or turned away at the door) and whole
        # batches rejected by the raise policy (those never
        # consume union-stream clock ticks and are NOT in items_ingested)
        self._shed = reg.counter(
            "engine_items_shed_total",
            "Items dropped by the overload shed policies",
        )
        self._rejected = reg.counter(
            "engine_items_rejected_total",
            "Items in batches rejected by the raise overload policy",
        )
        self._flush_hist = reg.histogram(
            "engine_flush_seconds", "Buffer drain duration", buckets=_FLUSH_BUCKETS
        )
        self.recovered_from: str | None = None
        self._flush_seconds: deque[float] = deque(maxlen=_RING)
        self._last_checkpoint_at: float | None = None

    # -- recording (called by the engine) ----------------------------------

    def record_ingest(self, n: int) -> None:
        self._ingested.inc(int(n))

    def record_flush(self, n_items: int, seconds: float) -> None:
        self._flushes.inc()
        self._flushed.inc(int(n_items))
        self._flush_seconds.append(float(seconds))
        self._flush_hist.observe(float(seconds))

    def record_query(self) -> None:
        self._queries.inc()

    def record_checkpoint(self) -> None:
        self._checkpoints.inc()
        self._last_checkpoint_at = self._clock()

    def record_timeout(self) -> None:
        self._timeouts.inc()

    def record_worker_death(self) -> None:
        self._deaths.inc()

    def record_restart(self) -> None:
        self._restarts.inc()

    def record_replay(self, n_items: int, n_batches: int) -> None:
        self._replayed_items.inc(int(n_items))
        self._replayed_batches.inc(int(n_batches))

    def record_degraded_query(self) -> None:
        self._degraded.inc()

    def record_shed(self, n: int) -> None:
        self._shed.inc(int(n))

    def record_rejected(self, n: int) -> None:
        self._rejected.inc(int(n))

    # -- the original attribute surface (now registry-backed reads) ---------

    @property
    def items_ingested(self) -> int:
        return int(self._ingested.value)

    @property
    def items_flushed(self) -> int:
        return int(self._flushed.value)

    @property
    def flush_count(self) -> int:
        return int(self._flushes.value)

    @property
    def query_count(self) -> int:
        return int(self._queries.value)

    @property
    def checkpoint_count(self) -> int:
        return int(self._checkpoints.value)

    @property
    def rpc_timeouts(self) -> int:
        return int(self._timeouts.value)

    @property
    def worker_deaths(self) -> int:
        return int(self._deaths.value)

    @property
    def worker_restarts(self) -> int:
        return int(self._restarts.value)

    @property
    def items_replayed(self) -> int:
        return int(self._replayed_items.value)

    @property
    def batches_replayed(self) -> int:
        return int(self._replayed_batches.value)

    @property
    def degraded_queries(self) -> int:
        return int(self._degraded.value)

    @property
    def items_shed(self) -> int:
        return int(self._shed.value)

    @property
    def items_rejected(self) -> int:
        return int(self._rejected.value)

    # -- derived views ------------------------------------------------------

    def flush_latency_ms(self, percentiles: Iterable[float] = (50, 90, 99)) -> dict[str, float]:
        """Percentiles (ms) over the most recent flushes; empty dict if none."""
        if not self._flush_seconds:
            return {}
        samples = np.asarray(self._flush_seconds, dtype=np.float64) * 1e3
        return {
            f"p{int(p) if float(p).is_integer() else p}": float(np.percentile(samples, p))
            for p in percentiles
        }

    def checkpoint_age_s(self) -> float | None:
        """Seconds since the last completed checkpoint (None if never)."""
        if self._last_checkpoint_at is None:
            return None
        return self._clock() - self._last_checkpoint_at

    def uptime_s(self) -> float:
        return self._clock() - self.started_at

    def snapshot(
        self,
        queue_depths: Iterable[int] = (),
        down_shards: Iterable[int] = (),
    ) -> dict:
        """One flat dict of everything, for printing or scraping."""
        depths = list(queue_depths)
        down = [int(s) for s in down_shards]
        # conservation identity: items_ingested == items_flushed +
        # items_buffered + items_shed + items_retained_down.  Buffered
        # splits into live-shard queues and down-shard retention; when
        # the caller supplies real per-shard depths those are the source
        # of truth, otherwise fall back to counter arithmetic.
        retained_down = sum(
            depths[s] for s in down if 0 <= s < len(depths)
        )
        if depths:
            buffered = sum(depths) - retained_down
        else:
            buffered = (
                self.items_ingested - self.items_flushed - self.items_shed
            )
        # read the clock once: under an injected clock, calling
        # checkpoint_age_s() twice could yield inconsistent None/float
        # (or two different ages) within one snapshot
        checkpoint_age = self.checkpoint_age_s()
        out = {
            "uptime_s": round(self.uptime_s(), 3),
            "items_ingested": self.items_ingested,
            "items_flushed": self.items_flushed,
            "items_buffered": buffered,
            "items_shed": self.items_shed,
            "items_rejected": self.items_rejected,
            "items_retained_down": retained_down,
            "flush_count": self.flush_count,
            "query_count": self.query_count,
            "checkpoint_count": self.checkpoint_count,
            "checkpoint_age_s": (
                None if checkpoint_age is None else round(checkpoint_age, 3)
            ),
            "queue_depths": depths,
            "queue_depth_max": max(depths) if depths else 0,
            "rpc_timeouts": self.rpc_timeouts,
            "worker_deaths": self.worker_deaths,
            "worker_restarts": self.worker_restarts,
            "items_replayed": self.items_replayed,
            "batches_replayed": self.batches_replayed,
            "degraded_queries": self.degraded_queries,
            "shards_down": down,
        }
        if self.recovered_from is not None:
            out["recovered_from"] = self.recovered_from
        for name, value in self.flush_latency_ms().items():
            out[f"flush_{name}_ms"] = round(value, 3)
        return out


def format_stats(snapshot: Mapping) -> str:
    """Render a stats snapshot as an aligned two-column text block."""
    if not snapshot:
        return ""
    width = max(len(str(k)) for k in snapshot)
    lines = [f"{k:<{width}}  {v}" for k, v in snapshot.items()]
    return "\n".join(lines)
