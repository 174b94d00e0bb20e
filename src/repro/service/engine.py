"""The sharded streaming engine: ingestion, routing and queries.

``StreamEngine`` turns the single-sketch SHE library into a serving
layer, following the shard-then-merge pattern of Papapetrou et al.'s
distributed sliding-window monitors for whole-array queries, and
reading each key's owning shard for point queries:

* **Sharding.** Keys hash-partition across ``S`` shards; every shard is
  an independent SHE sketch built from one prototype, so all shards
  share geometry, seeds and — crucially — the *union stream's* count
  clock.  Arrivals carry their global arrival index into the owning
  shard (``insert_at``), and idle shards are advanced to the global
  clock before any query, so the shard set always satisfies
  :func:`repro.core.merge.merge_many`'s alignment requirement.

* **Batching.** Inserts buffer in per-shard queues and drain through
  the exact vectorised batch path.  A queue drains when it reaches
  ``flush_batch_size`` (size trigger) or when ``flush_interval_s``
  elapses since the last drain (time trigger, checked on ingest);
  queries and checkpoints drain everything first, so they always see
  the full stream.

* **Pipelined flushes.** A round sent by ingest's own trigger stays in
  flight: ingest returns once the batches are sent, so the caller
  stamps and buffers the next arrivals while the workers apply.  The
  round is *settled* (acknowledgements collected, failures handled)
  before the next round is sent and before anything else reaches the
  executor, so at most one round is ever in flight.  Its items count as
  buffered until then, and its errors surface at that next call.

* **Admission control.** Buffers are bounded when
  :class:`EngineConfig` sets budgets (``max_buffered_items`` /
  ``max_buffered_total`` / ``down_retention_items``): ingest *admits
  before it stamps*, so arrivals rejected by the ``raise`` policy —
  or turned away by ``shed_newest`` — never consume union-stream
  clock ticks, while ``shed_oldest`` evicts the oldest
  buffered items with exact per-shard accounting.  The default
  (no budgets) is today's unbounded behaviour, untouched.

* **Queries.** Every query is one ``read`` per worker, run where the
  shards live: the worker advances its shards to the global clock and
  answers without copying or cleaning them, so a query changes no
  shard state beyond that advance.  Point queries (membership,
  frequency) go to each key's owning shard alone: every arrival of a
  key lives there, so the owner's answer is exact for the sketch it
  is, and no other shard's load adds to its error.  Whole-array
  queries (cardinality, similarity, quantile) fold each worker's
  shards via ``merge_many`` into one operand; a lone worker answers
  from it and ships the value, several ship their operands for the
  driver to fold.  Either way the answer is exactly the merged single
  sketch's.

* **Failure containment.** Executor failures arrive as the typed
  hierarchy of :mod:`repro.service.errors` and never lose data: a
  batch stays in (or returns to) its buffer until the executor
  acknowledges it, an attached
  :class:`repro.service.supervisor.Supervisor` restarts dead workers
  from checkpoint + replay, and shards that stay unrecoverable are
  marked *down* — strict calls raise
  :class:`ShardUnrecoverableError`, while ``strict=False`` queries
  answer from the surviving shards and annotate the result with its
  coverage (:class:`DegradedAnswer`).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.common.validation import as_key_array, require_positive_int
from repro.core.merge import merge_many
from repro.core.registry import get_descriptor, registered_kinds
from repro.obs import Observability, new_id, span_record
from repro.obs.probes import AGE_HIST_BINS
from repro.service.errors import (
    EngineOverloadedError,
    ShardDeadError,
    ShardError,
    ShardFailedError,
    ShardTimeoutError,
    ShardUnrecoverableError,
)
from repro.service.executor import ProcessExecutor, SerialExecutor
from repro.service.sharding import DEFAULT_SHARD_SEED, partition, shard_ids
from repro.service.stats import EngineStats, format_stats
from repro.service.wal import WAL_FSYNC_POLICIES, WriteAheadLog

__all__ = [
    "EngineConfig",
    "StreamEngine",
    "DegradedAnswer",
    "OVERLOAD_POLICIES",
]

#: admission-control responses when a buffer budget would be breached
OVERLOAD_POLICIES = ("raise", "shed_oldest", "shed_newest")

#: config keys older checkpoint manifests carry but the engine no
#: longer reads (``transport`` chose the removed shared-memory flush
#: ring, ``block_timeout_s`` bounded the removed ``"block"`` policy's
#: wait); :meth:`EngineConfig.from_json` drops them
RETIRED_CONFIG_KEYS = frozenset({"transport", "block_timeout_s"})

#: point queries: the sketch method that answers one, and the value a
#: key reads as when its owning shard is missing from a degraded answer
_POINT_QUERIES = {
    "membership": ("contains_many", False),
    "frequency": ("frequency_many", 0.0),
}

#: replay coalesces consecutive same-side log records into batches of
#: about this many items, so a log of small appends still replays
#: through wide flushes
REPLAY_COALESCE_ITEMS = 8192


def _coalesced(records):
    """Concatenate runs of consecutive same-side ``(side, keys)`` records
    up to :data:`REPLAY_COALESCE_ITEMS`.  Exact for replay: consecutive
    arrivals get the same times as one batch or many."""
    pend: list[np.ndarray] = []
    pend_side = pend_n = 0
    for side, keys in records:
        if pend and (side != pend_side or pend_n >= REPLAY_COALESCE_ITEMS):
            yield pend_side, np.concatenate(pend)
            pend, pend_n = [], 0
        pend_side = side
        pend.append(keys)
        pend_n += int(keys.size)
    if pend:
        yield pend_side, np.concatenate(pend)


@dataclass
class EngineConfig:
    """Everything needed to (re)build a :class:`StreamEngine`.

    Args:
        kind: which SHE sketch backs the shards — any registered
            algorithm kind: ``"bf"`` (membership), ``"bm"`` / ``"hll"``
            (cardinality), ``"cm"`` (frequency), ``"mh"`` (two-stream
            similarity), ``"generic"`` (a :class:`CsmSpec` via
            ``sketch_kwargs``), or anything installed with
            :func:`repro.core.registry.register_algorithm`.
        window: sliding-window size N (items).
        size: per-shard sketch size (bits / registers / counters).
        num_shards: how many shards to hash-partition keys across.
        flush_batch_size: per-shard queue depth that triggers a drain.
        flush_interval_s: drain everything when this much wall time has
            passed since the last drain (None disables the time trigger).
        shard_seed: partitioner seed (independent of sketch seeds).
        rpc_timeout_s: per-RPC deadline for worker executors (None
            waits forever); see :class:`ProcessExecutor`.
        max_buffered_items: per-shard buffer budget (items, summed over
            sides for two-stream engines).  ``None`` (the default)
            disables admission control entirely and preserves the
            unbounded pre-budget behaviour.
        max_buffered_total: engine-wide buffer budget across all
            shards; ``None`` disables the global bound.
        down_retention_items: retention cap for a *down* shard's buffer
            (its data cannot drain until recovery, so a long outage
            must degrade coverage, not memory).  ``None`` falls back to
            ``max_buffered_items``.
        overload_policy: what admission control does when a budget
            would be breached and draining the live buffers did not
            free enough room — ``"raise"`` rejects the batch with
            :class:`~repro.service.errors.EngineOverloadedError`
            (atomically: no arrival of it consumes a clock tick),
            ``"shed_oldest"`` admits the arrivals and evicts the oldest
            buffered items, and ``"shed_newest"`` turns away the arrivals
            that do not fit (they never consume clock ticks).
        wal_dir: directory for the durable ingestion write-ahead log
            (:mod:`repro.service.wal`).  ``None`` (the default) disables
            the WAL entirely.  When set, every *admitted* ingest batch
            is appended (checksummed) before it is stamped, checkpoints
            record their WAL position, and ``recover_engine`` replays
            the suffix — a crashed process recovers bit-identical to a
            crash-free run under ``wal_fsync="always"``.
        wal_fsync: durability policy, one of
            :data:`~repro.service.wal.WAL_FSYNC_POLICIES` —
            ``"always"`` fsyncs every append, ``"interval"`` at most
            every ``wal_fsync_interval_s``, ``"off"`` never (OS page
            cache only).  See docs/service.md "Durability model".
        wal_fsync_interval_s: max fsync staleness for ``"interval"``.
        wal_segment_bytes: WAL segment rotation size.
        sketch_kwargs: forwarded to the sketch constructor (``seed``,
            ``alpha``, ``num_hashes``, ``frame``, ...).
    """

    kind: str
    window: int
    size: int
    num_shards: int = 4
    flush_batch_size: int = 8192
    flush_interval_s: float | None = 1.0
    shard_seed: int = DEFAULT_SHARD_SEED
    rpc_timeout_s: float | None = 30.0
    max_buffered_items: int | None = None
    max_buffered_total: int | None = None
    down_retention_items: int | None = None
    overload_policy: str = "raise"
    wal_dir: str | None = None
    wal_fsync: str = "always"
    wal_fsync_interval_s: float = 1.0
    wal_segment_bytes: int = 64 * 1024 * 1024
    sketch_kwargs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        try:
            self.descriptor()
        except KeyError:
            raise ValueError(
                f"kind must be one of {registered_kinds()}, got {self.kind!r} "
                "(register_algorithm adds more)"
            ) from None
        require_positive_int("window", self.window)
        require_positive_int("size", self.size)
        require_positive_int("num_shards", self.num_shards)
        require_positive_int("flush_batch_size", self.flush_batch_size)
        if self.max_buffered_items is not None:
            require_positive_int("max_buffered_items", self.max_buffered_items)
        if self.max_buffered_total is not None:
            require_positive_int("max_buffered_total", self.max_buffered_total)
        if self.down_retention_items is not None:
            require_positive_int(
                "down_retention_items", self.down_retention_items
            )
        if self.overload_policy not in OVERLOAD_POLICIES:
            raise ValueError(
                f"overload_policy must be one of {OVERLOAD_POLICIES}, "
                f"got {self.overload_policy!r}"
            )
        if self.wal_dir is not None:
            # JSON round-trip stability: manifests store the config, so
            # a Path here must not come back as a different type
            self.wal_dir = str(self.wal_dir)
        if self.wal_fsync not in WAL_FSYNC_POLICIES:
            raise ValueError(
                f"wal_fsync must be one of {WAL_FSYNC_POLICIES}, "
                f"got {self.wal_fsync!r}"
            )
        if self.wal_fsync_interval_s <= 0:
            raise ValueError(
                "wal_fsync_interval_s must be positive, "
                f"got {self.wal_fsync_interval_s}"
            )
        require_positive_int("wal_segment_bytes", self.wal_segment_bytes)

    @property
    def bounded(self) -> bool:
        """True when any admission-control budget is configured."""
        return (
            self.max_buffered_items is not None
            or self.max_buffered_total is not None
            or self.down_retention_items is not None
        )

    def descriptor(self):
        """The registered :class:`~repro.core.registry.AlgoDescriptor`."""
        return get_descriptor(self.kind)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "EngineConfig":
        """Rebuild a config saved by :meth:`to_json`.

        Unknown keys raise a :class:`ValueError` naming them — a config
        from a newer version (or a typo) should fail loudly, not as an
        opaque ``TypeError`` from the dataclass constructor.  Retired
        keys (:data:`RETIRED_CONFIG_KEYS`) that older manifests still
        carry are dropped whatever their value, and the retired
        ``"block"`` policy reads as ``"raise"``: in this synchronous
        engine nothing drains during its wait, so it always escalated
        to the raise behaviour.
        """
        data = {k: v for k, v in data.items() if k not in RETIRED_CONFIG_KEYS}
        if data.get("overload_policy") == "block":
            data["overload_policy"] = "raise"
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown EngineConfig keys {unknown}; known keys: "
                f"{sorted(known)}"
            )
        return cls(**data)


@dataclass(frozen=True)
class DegradedAnswer:
    """A ``strict=False`` query result plus its shard coverage.

    ``value`` is the usual answer computed over the surviving shards:
    per key for point queries (a missing owner's keys read ``False`` /
    ``0.0``), and ``None`` for a whole-array query when every shard is
    down.  ``caveat`` spells out, per
    sketch kind, which guarantee the missing shards cost — e.g. SHE-CM
    loses its one-sided error: keys owned by a missing shard can now be
    *under*-estimated (to zero), which a strict CM answer never does.

    ``shed_shards`` lists answering shards that shed arrivals inside
    the current window under an overload policy: their portion of the
    answer silently omits the shed items, and ``caveat`` (via the
    algorithm descriptor's caveat hook) says which guarantee that
    costs.
    """

    value: Any
    shards_answered: int
    shards_total: int
    missing_shards: tuple[int, ...] = ()
    caveat: str | None = None
    shed_shards: tuple[int, ...] = ()

    @property
    def degraded(self) -> bool:
        return self.shards_answered < self.shards_total or bool(self.shed_shards)

    @property
    def coverage(self) -> float:
        return self.shards_answered / self.shards_total


def _build_shards(config: EngineConfig) -> list:
    desc = config.descriptor()
    proto = desc.build(config.window, config.size, **config.sketch_kwargs)
    return [proto] + [proto.clone_empty() for _ in range(config.num_shards - 1)]


class _ShardBuffer:
    """Pending (keys, times) chunks for one shard (and side, for MH)."""

    __slots__ = ("keys", "times", "count")

    def __init__(self) -> None:
        self.keys: list[np.ndarray] = []
        self.times: list[np.ndarray] = []
        self.count = 0

    def append(self, keys: np.ndarray, times: np.ndarray) -> None:
        self.keys.append(keys)
        self.times.append(times)
        self.count += int(keys.size)

    def drain(self) -> tuple[np.ndarray, np.ndarray]:
        keys = np.concatenate(self.keys) if len(self.keys) > 1 else self.keys[0]
        times = np.concatenate(self.times) if len(self.times) > 1 else self.times[0]
        self.keys.clear()
        self.times.clear()
        self.count = 0
        return keys, times

    def requeue(self, keys: np.ndarray, times: np.ndarray) -> None:
        """Put a drained-but-unacknowledged batch back at the front,
        so per-shard time order survives a failed flush."""
        self.keys.insert(0, keys)
        self.times.insert(0, times)
        self.count += int(keys.size)

    def shed_oldest(self, n: int) -> int:
        """Drop up to ``n`` of the oldest buffered items; returns the
        number actually dropped.  Chunks are time-ordered front-to-back
        and ascending within, so popping from the front is oldest-first."""
        dropped = 0
        while dropped < n and self.keys:
            head = self.keys[0]
            take = min(int(head.size), n - dropped)
            if take == int(head.size):
                self.keys.pop(0)
                self.times.pop(0)
            else:
                self.keys[0] = head[take:]
                self.times[0] = self.times[0][take:]
            dropped += take
        self.count -= dropped
        return dropped

    def front_time(self) -> int | None:
        """Union-stream time of the oldest buffered item (None if empty)."""
        if self.times:
            return int(self.times[0][0])
        return None


@dataclass
class _InflightRound:
    """A flush round sent to the executor and not yet settled: what
    ``_settle`` needs to account for it, or to requeue it on failure."""

    staged: list  # ((shard, side), keys, times) per batch, send order
    n_items: int
    started: float  # engine clock at drain
    rpc_start: float | None  # perf_counter at send, when stage-timed
    root: Any  # the open engine.flush span


class StreamEngine:
    """Sharded, buffered ingestion and query serving over SHE sketches.

    Args:
        config: the :class:`EngineConfig` describing shards and flushing.
        executor: ``"serial"`` (default) applies flushes inline;
            ``"process"`` forks shard-owning workers so flushes of
            different shards run in parallel.  A callable taking the
            shard list and returning an executor instance is also
            accepted (fault-injection wrappers, custom pools).
        num_workers: worker count for the process executor
            (default: one per shard).
        clock: injectable monotonic clock for the time trigger and
            stats (tests pin it).
        obs: observability — ``True`` / an :class:`repro.obs.Observability`
            bundle enables the labelled metrics registry, trace spans
            and SHE probe gauges (serve them with
            :class:`repro.obs.MetricsExporter`); the default ``None``
            keeps everything on no-op stand-ins so the hot path pays
            nothing.

    The engine is also a context manager; ``close()`` flushes buffers
    and stops workers.
    """

    def __init__(
        self,
        config: EngineConfig,
        *,
        executor: str = "serial",
        num_workers: int | None = None,
        clock=time.monotonic,
        obs: "Observability | bool | None" = None,
        _shards: list | None = None,
        _clock_state: list[int] | None = None,
    ):
        self.config = config
        self._clock = clock
        self.obs = Observability.coerce(obs)
        self.stats = EngineStats(
            clock=clock,
            registry=self.obs.registry if self.obs.enabled else None,
        )
        self._desc = config.descriptor()
        self._two_stream = self._desc.two_stream
        shards = _shards if _shards is not None else _build_shards(config)
        if len(shards) != config.num_shards:
            raise ValueError(
                f"got {len(shards)} shards for num_shards={config.num_shards}"
            )
        if executor == "serial":
            self._exec = SerialExecutor(shards)
        elif executor == "process":
            self._exec = ProcessExecutor(
                shards,
                num_workers=num_workers,
                timeout_s=config.rpc_timeout_s,
            )
        elif callable(executor):
            self._exec = executor(shards)
        else:
            raise ValueError(
                "executor must be 'serial', 'process' or a factory "
                f"callable, got {executor!r}"
            )
        self.executor_kind = (
            executor if isinstance(executor, str)
            else type(self._exec).__name__
        )
        set_obs = getattr(self._exec, "set_obs", None)
        if set_obs is not None:
            set_obs(self.obs if self.obs.enabled else None)
        # stage-level latency attribution (repro.obs.windows): the
        # recorder is the bundle's NULL_STAGES no-op unless windowed
        # telemetry is on, so hot-path guards are one attribute read
        self._stages = self.obs.stages
        self._last_sync_trace: str | None = None
        self._init_shard_metrics()
        # global union-stream clock(s): next arrival index per side
        self._t = list(_clock_state) if _clock_state is not None else (
            [0, 0] if self._two_stream else [0]
        )
        self._buffers: dict[tuple[int, int], _ShardBuffer] = {}
        # the one flush round sent but not yet settled (see _settle)
        self._inflight: _InflightRound | None = None
        self._last_drain = clock()
        self._closed = False
        self._supervisor = None  # attached by Supervisor.__init__
        self._down: set[int] = set()  # shards with no live, trusted worker
        # admission-control bookkeeping (all zero-cost when unbounded):
        # lifetime shed count per shard, the union-stream time of each
        # shard's latest shed event (keyed by side, for the shed-in-window
        # caveat), and the deepest the queue has ever been per shard
        self._shed_counts = [0] * config.num_shards
        self._last_shed_t: dict[tuple[int, int], int] = {}
        self._queue_high_water = [0] * config.num_shards
        # (first, last) times of each eviction per (shard, side) since
        # the supervisor's base: logged, never flushed, never replayed
        self._shed_runs: dict[tuple[int, int], list[tuple[int, int]]] = {}
        # the suffix log ingest appends to (repro.service.wal): the WAL,
        # else a supervisor's MemoryLog.  Opening a WAL directory
        # truncates torn appends and raises WalCorruptionError on
        # mid-log damage — an engine must not start on an untrusted log
        self._wal = None
        self._log = None
        if config.wal_dir is not None:
            self._wal = WriteAheadLog(
                config.wal_dir,
                fsync=config.wal_fsync,
                fsync_interval_s=config.wal_fsync_interval_s,
                segment_max_bytes=config.wal_segment_bytes,
                clock=clock,
                registry=self.obs.registry if self.obs.enabled else None,
            )
            self._log = self._wal

    def _init_shard_metrics(self) -> None:
        """Pre-resolve per-shard metric children so the hot path is one
        attribute increment per touched shard (no dict lookups)."""
        reg = self.obs.registry
        shards = [str(s) for s in range(self.config.num_shards)]
        items = reg.counter(
            "engine_shard_items_total",
            "Items routed to each shard's buffer",
            labels=("shard",),
        )
        flushes = reg.counter(
            "engine_shard_flushes_total",
            "Batches drained into each shard",
            labels=("shard",),
        )
        failures = reg.counter(
            "engine_shard_flush_failures_total",
            "Flush rounds that failed for each shard",
            labels=("shard",),
        )
        shed = reg.counter(
            "engine_shard_items_shed_total",
            "Items dropped by the overload shed policies, per shard",
            labels=("shard",),
        )
        self._m_shard_items = [items.labels(s) for s in shards]
        self._m_shard_flushes = [flushes.labels(s) for s in shards]
        self._m_shard_failures = [failures.labels(s) for s in shards]
        self._m_shard_shed = [shed.labels(s) for s in shards]
        # SHE probe gauges: refreshed by update_probe_gauges(), not the
        # hot path — see docs/observability.md for the catalogue
        self._g_probe = {
            name: reg.gauge(name, help_, labels=("shard",))
            for name, help_ in (
                ("she_young_cells", "Probe: cells younger than the window"),
                ("she_perfect_cells", "Probe: cells aged exactly N"),
                ("she_aged_cells", "Probe: cells older than the window"),
                ("she_occupied_cells", "Probe: cells holding a stored value"),
                ("she_fill_ratio", "Probe: occupied fraction of cells"),
                (
                    "she_legal_group_fraction",
                    "Probe: groups inside the legal age band",
                ),
                (
                    "she_cells_cleaned_total",
                    "Probe: cells reset by cleaning since start",
                ),
                (
                    "she_groups_cleaned_total",
                    "Probe: group resets by cleaning since start",
                ),
                (
                    "she_cleaning_checks_total",
                    "Probe: cleaning checks (CheckGroup calls / sweeps)",
                ),
            )
        }
        self._g_age_hist = reg.gauge(
            "she_cell_age_le",
            "Probe: cells with age <= le fraction of Tcycle (cumulative)",
            labels=("shard", "le"),
        )
        self._g_queue_depth = reg.gauge(
            "engine_queue_depth", "Buffered items per shard", labels=("shard",)
        )
        self._g_queue_high_water = reg.gauge(
            "engine_queue_depth_high_water",
            "Deepest buffered-item count observed per shard",
            labels=("shard",),
        )
        self._g_shard_down = reg.gauge(
            "engine_shard_down",
            "1 when the shard has no live, trusted worker",
            labels=("shard",),
        )
        self._g_memory = reg.gauge(
            "engine_memory_bytes", "Aggregate sketch memory across shards"
        )

    # -- clock ---------------------------------------------------------------

    def now(self, side: int = 0) -> int:
        """The union-stream clock: items ingested (per side for MH)."""
        return self._t[side]

    @property
    def window(self) -> int:
        return self.config.window

    @property
    def num_shards(self) -> int:
        return self.config.num_shards

    # -- ingestion -----------------------------------------------------------

    def ingest(self, keys, side: int | None = None) -> None:
        """Buffer a batch of arrivals at consecutive union-stream times.

        ``side`` selects the stream for two-stream (MH) engines and must
        be omitted otherwise.

        The batch is *admitted before it is stamped*: when admission
        control is configured (:attr:`EngineConfig.bounded`) the budgets
        are checked first, and only the admitted arrivals receive
        union-stream clock ticks.  A batch rejected by the ``"raise"``
        policy — and arrivals turned away by ``"shed_newest"`` — never
        advance the clock, so a caller that backs off and retries
        delivers exactly the stream it meant to.
        """
        self._check_open()
        if self._two_stream:
            if side not in (0, 1):
                raise ValueError("two-stream engines need side=0 or side=1")
        elif side not in (None, 0):
            raise ValueError(f"single-stream engine got side={side}")
        side = 0 if side is None else side
        arr = as_key_array(keys)
        if arr.size == 0:
            return
        n_offered = int(arr.size)
        sids = shard_ids(arr, self.config.num_shards, self.config.shard_seed)
        # stage timing (repro.obs.windows): zero-cost when telemetry is
        # off; when on, each hot-path stage feeds a windowed quantile
        # and the whole ingest files one span whose id rides into the
        # stage exemplars
        stages = self._stages
        timed = stages.enabled
        if timed:
            perf = time.perf_counter
            ingest_start = perf()
            trace_id = new_id() if self.obs.tracer.enabled else None
            stage_t0 = perf()
        admit = self._admit(arr, sids, side)  # may raise EngineOverloadedError
        if admit is not None:
            arr = arr[admit]
            sids = sids[admit]
        if timed:
            stages.observe("admit", perf() - stage_t0, trace_id)
        if self._log is not None and arr.size:
            # the log's one append point: the *admitted* batch, before
            # it is stamped — a failed WAL append (WalWriteError)
            # rejects it before any clock tick, like the raise policy
            if timed:
                stage_t0 = perf()
            self._log.append(side, arr)
            if timed:
                stages.observe("wal_append", perf() - stage_t0, trace_id)
        if timed:
            stage_t0 = perf()
        t0 = self._t[side]
        times = t0 + np.arange(arr.size, dtype=np.int64)
        self._t[side] = t0 + int(arr.size)
        for s, keys_s, times_s in partition(
            arr, times, sids, self.config.num_shards
        ):
            n = int(keys_s.size)
            buf = self._buffers.setdefault((s, side), _ShardBuffer())
            buf.append(keys_s, times_s)
            self._m_shard_items[s].inc(n)
            depth = buf.count
            if self._two_stream:
                other = self._buffers.get((s, 1 - side))
                if other is not None:
                    depth += other.count
            if depth > self._queue_high_water[s]:
                self._queue_high_water[s] = depth
        if timed:
            stages.observe("stamp", perf() - stage_t0, trace_id)
            if trace_id is not None:
                # file a complete ingest span so the exemplar trace-ids
                # the stage recorder samples resolve in the span ring
                self.obs.tracer.ingest((span_record(
                    "engine.ingest", trace_id, None, ingest_start,
                    (perf() - ingest_start) * 1e3,
                    items=n_offered, side=side,
                ),))
        # offered, not admitted: arrivals a shed policy dropped still
        # count as ingested, so the conservation identity
        #   ingested == flushed + buffered + shed + retained_down
        # closes.  raise rejections never reach this line.
        self.stats.record_ingest(n_offered)
        if self.config.bounded and self.config.overload_policy == "shed_oldest":
            self._enforce_caps_shed_oldest(side)
        self._maybe_flush()

    # -- admission control ---------------------------------------------------

    def _shard_cap(self, s: int) -> int | None:
        """The per-shard budget in force for shard ``s`` right now:
        the down-shard retention cap while it is down (falling back to
        the live cap), the live cap otherwise."""
        cfg = self.config
        if s in self._down and cfg.down_retention_items is not None:
            return cfg.down_retention_items
        return cfg.max_buffered_items

    def _over_budget(
        self, counts: np.ndarray
    ) -> tuple[dict[int, int], bool]:
        """Would admitting ``counts`` (incoming items per shard) breach
        a budget?  Returns (over-budget shard -> current depth, whether
        the engine-wide budget would be breached)."""
        cfg = self.config
        depths = self.queue_depths()
        over = {}
        for s in range(cfg.num_shards):
            cap = self._shard_cap(s)
            if cap is not None and counts[s] and depths[s] + int(counts[s]) > cap:
                over[s] = depths[s]
        over_total = (
            cfg.max_buffered_total is not None
            and sum(depths) + int(counts.sum()) > cfg.max_buffered_total
        )
        return over, over_total

    def _record_shed(self, s: int, side: int, n: int) -> None:
        """Account ``n`` items shed from shard ``s``: global and
        per-shard counters, plus the shed-event time used by the
        shed-in-window query caveat."""
        if n <= 0:
            return
        self.stats.record_shed(n)
        self._m_shard_shed[s].inc(n)
        self._shed_counts[s] += n
        mark = self._t[side]
        prev = self._last_shed_t.get((s, side))
        if prev is None or mark > prev:
            self._last_shed_t[s, side] = mark

    def _admit(
        self, arr: np.ndarray, sids: np.ndarray, side: int
    ) -> np.ndarray | None:
        """Admission control for one ingest batch.

        Returns ``None`` to admit everything (the unbounded fast path
        and the ``shed_oldest`` policy, which admits then evicts), or a
        boolean mask of the admitted arrivals (``shed_newest``).  The
        ``raise`` policy raises :class:`EngineOverloadedError` for the
        whole batch instead; partial admission would reorder the union
        stream.

        Before any policy fires, flushable live buffers are drained
        (a *relief flush*): data is never rejected or dropped while
        room can still be made.  The relief flush drains every live
        buffer, and nothing marks a shard up during ``ingest``, so a
        second check after it is final.
        """
        cfg = self.config
        if not cfg.bounded:
            return None
        policy = cfg.overload_policy
        if policy == "shed_oldest":
            return None
        counts = np.bincount(sids, minlength=cfg.num_shards)
        over, over_total = self._over_budget(counts)
        if not over and not over_total:
            return None
        if self._flushable_keys() or self._inflight is not None:
            self._flush_buffers(strict=False)
            over, over_total = self._over_budget(counts)
            if not over and not over_total:
                return None
        if policy == "raise":
            self.stats.record_rejected(int(arr.size))
            limits = {self._shard_cap(s) for s in over} - {None}
            parts = []
            if over:
                parts.append(
                    "per-shard budget full: "
                    + ", ".join(f"shard {s} depth {d}" for s, d in sorted(over.items()))
                )
            if over_total:
                parts.append(
                    f"engine-wide budget {cfg.max_buffered_total} full"
                )
            raise EngineOverloadedError(
                f"ingest of {arr.size} items rejected ({'; '.join(parts)}); "
                "no clock ticks were consumed — back off and retry",
                shard_ids=tuple(sorted(over)),
                depths=over,
                limit=min(limits) if limits else None,
                total_limit=cfg.max_buffered_total,
                policy=policy,
            )
        # shed_newest: turn away exactly the overflow at the door —
        # per over-budget shard keep the earliest arrivals that fit,
        # then trim the batch tail for the engine-wide budget
        depths = self.queue_depths()
        admit = np.ones(arr.size, dtype=bool)
        for s in over:
            cap = self._shard_cap(s)
            room = max(0, cap - depths[s])
            idx = np.flatnonzero(sids == s)
            if idx.size > room:
                admit[idx[room:]] = False
        if cfg.max_buffered_total is not None:
            room_total = max(0, cfg.max_buffered_total - sum(depths))
            kept = np.flatnonzero(admit)
            if kept.size > room_total:
                admit[kept[room_total:]] = False
        dropped = sids[~admit]
        if dropped.size:
            drop_counts = np.bincount(dropped, minlength=cfg.num_shards)
            for s in np.flatnonzero(drop_counts):
                self._record_shed(int(s), side, int(drop_counts[s]))
        return admit

    def _enforce_caps_shed_oldest(self, side: int) -> None:
        """Post-admission eviction for the ``shed_oldest`` policy: the
        new arrivals are already stamped and buffered; evict the oldest
        buffered items until every budget holds again.  A relief flush
        runs first so live data drains instead of dropping."""
        cfg = self.config
        depths = self.queue_depths()
        caps = [self._shard_cap(s) for s in range(cfg.num_shards)]
        over = any(
            cap is not None and depths[s] > cap for s, cap in enumerate(caps)
        )
        over_total = (
            cfg.max_buffered_total is not None
            and sum(depths) > cfg.max_buffered_total
        )
        if not over and not over_total:
            return
        if self._flushable_keys() or self._inflight is not None:
            self._flush_buffers(strict=False)
        depths = self.queue_depths()
        for s in range(cfg.num_shards):
            cap = self._shard_cap(s)
            if cap is not None and depths[s] > cap:
                depths[s] -= self._shed_from_shard(s, depths[s] - cap)
        if cfg.max_buffered_total is not None:
            excess = sum(depths) - cfg.max_buffered_total
            while excess > 0:
                # evict globally-oldest: the shard whose front item is
                # earliest sheds first (front chunks only, so each pass
                # stays oldest-first at chunk granularity)
                oldest, oldest_t = None, None
                for (s, sd), buf in self._buffers.items():
                    ft = buf.front_time()
                    if ft is not None and (oldest_t is None or ft < oldest_t):
                        oldest, oldest_t = s, ft
                if oldest is None:
                    break
                shed = self._shed_from_shard(oldest, excess)
                if shed == 0:
                    break
                excess -= shed

    def _shed_from_shard(self, s: int, n: int) -> int:
        """Evict up to ``n`` oldest buffered items from shard ``s``
        (across its sides, oldest front chunk first); returns the
        number evicted."""
        remaining = n
        while remaining > 0:
            best_side, best_t, best_buf = None, None, None
            for side in ((0, 1) if self._two_stream else (0,)):
                buf = self._buffers.get((s, side))
                if buf is None:
                    continue
                ft = buf.front_time()
                if ft is not None and (best_t is None or ft < best_t):
                    best_side, best_t, best_buf = side, ft, buf
            if best_buf is None:
                break
            head = best_buf.times[0]
            dropped = best_buf.shed_oldest(min(remaining, int(head.size)))
            if dropped == 0:
                break
            if self._supervisor is not None:
                self._shed_runs.setdefault((s, best_side), []).append(
                    (int(head[0]), int(head[dropped - 1]))
                )
            self._record_shed(s, best_side, dropped)
            remaining -= dropped
        return n - remaining

    # alias so sketch-shaped consumers (HeavyHitters, harness drivers)
    # can drive an engine where they would drive a sketch
    def insert_many(self, keys) -> None:
        self.ingest(keys)

    def insert(self, key: int) -> None:
        self.ingest([key])

    def _maybe_flush(self) -> None:
        full = [
            key for key, buf in self._buffers.items()
            if buf.count >= self.config.flush_batch_size
            and key[0] not in self._down
        ]
        interval = self.config.flush_interval_s
        if interval is not None and self._clock() - self._last_drain >= interval:
            self._flush_buffers(pipelined=True)
        elif full:
            self._flush_buffers(full, pipelined=True)

    def _flushable_keys(self) -> list[tuple[int, int]]:
        """Non-empty buffers whose shard has a live worker (down
        shards retain their data until recovery)."""
        return [
            k for k, b in self._buffers.items()
            if b.count and k[0] not in self._down
        ]

    def flush(self) -> None:
        """Drain every live shard's queue through the batch insert path.

        Buffers of down shards are retained, not dropped; recover the
        shards (:class:`repro.service.supervisor.Supervisor`) and the
        next flush delivers them in order.
        """
        self._check_open()
        self._flush_buffers()

    def tick(self) -> None:
        """Run the time-based flush trigger without new arrivals.

        ``flush_interval_s`` used to be checked only inside
        :meth:`ingest`, so a quiet stream held buffered items (and an
        overloaded engine its backlog) until the next arrival.  The
        stats path calls this automatically on serial engines; drivers
        of idle engines should call it periodically.  Cheap no-op when
        nothing is due.
        """
        if self._closed:
            return
        self._settle(strict=False)
        interval = self.config.flush_interval_s
        if interval is not None and self._clock() - self._last_drain >= interval:
            self._flush_buffers(strict=False)

    # -- failure plumbing ----------------------------------------------------

    def _note_failure(self, err: ShardError) -> None:
        if isinstance(err, ShardTimeoutError):
            self.stats.record_timeout()
        elif isinstance(err, ShardDeadError):
            self.stats.record_worker_death()

    def _shards_of_error(self, err: ShardError) -> set[int]:
        """Which shards an executor error implicates (worst case: all)."""
        if err.shard_ids:
            return set(err.shard_ids)
        if err.worker_ids:
            return {
                s for w in err.worker_ids for s in self._exec.shards_of(w)
            }
        return set(range(self.config.num_shards))

    def _workers_of_error(self, err: ShardError) -> set[int]:
        """Which workers an executor error implicates (worst case: all);
        the set a supervisor rebuilds."""
        return (
            set(err.worker_ids)
            or {self._exec.worker_of(s) for s in err.shard_ids}
            or set(range(self._exec.num_workers))
        )

    def _handle_executor_failure(self, err: ShardError, *, strict: bool) -> bool:
        """Common response to a failed executor op (advance/snapshot).

        Returns True when an attached supervisor fully recovered the
        implicated workers (the caller may retry the op).  Otherwise
        the shards are marked down and the error re-raises unless the
        caller opted into degradation.
        """
        self._note_failure(err)
        if (
            self._supervisor is not None
            and not isinstance(err, ShardFailedError)
            and self._supervisor.handle_failure(err)
        ):
            return True
        if not isinstance(err, ShardFailedError):
            self._down.update(self._shards_of_error(err))
        if strict or isinstance(err, ShardFailedError):
            raise err
        return False

    def _flush_buffers(
        self, buffer_keys=None, *, strict: bool = True, pipelined: bool = False
    ) -> None:
        """Send one round draining ``buffer_keys`` (default: every
        flushable buffer, listed after the round in flight settles).

        The round is settled at once unless ``pipelined``, which leaves
        it in flight for the next call that reaches the executor.
        """
        self._settle(strict)
        if buffer_keys is None:
            buffer_keys = self._flushable_keys()
        if not buffer_keys:
            self._last_drain = self._clock()
            return
        started = self._clock()
        staged: list[tuple[tuple[int, int], np.ndarray, np.ndarray]] = []
        batches = []
        n_items = 0
        for s, side in buffer_keys:
            keys, times = self._buffers[s, side].drain()
            n_items += int(keys.size)
            staged.append(((s, side), keys, times))
            batches.append((s, keys, times, side if self._two_stream else None))
        # root of the flush chain: the trace context crosses the executor
        # RPC boundary and the worker's apply span rides back on the ack
        # (see repro.obs.tracing); the span stays open until the settle
        root = self.obs.tracer.span(
            "engine.flush", items=n_items, batches=len(batches)
        ).__enter__()
        self._inflight = _InflightRound(
            staged, n_items, started,
            time.perf_counter() if self._stages.enabled else None, root,
        )
        self._exec.send_many(batches, trace=root.context)
        self._last_drain = self._clock()
        if not pipelined:
            self._settle(strict)

    def _settle(self, strict: bool = True) -> None:
        """Collect the round in flight and account for it; no-op if none.

        Success counts the round flushed.  On failure an attached
        supervisor rebuilds the implicated workers; otherwise their
        batches return to the front of their buffers (per-shard time
        order holds: everything buffered since is newer), live shards
        that lost their worker are marked down, and the error raises
        unless ``strict`` is off (a worker-reported
        :class:`ShardFailedError` always raises).
        """
        rnd = self._inflight
        if rnd is None:
            return
        self._inflight = None
        try:
            self._exec.settle()
        except ShardError as err:
            rnd.root.__exit__(type(err), err, None)
            self._note_failure(err)
            recovered = (
                self._supervisor is not None
                and not isinstance(err, ShardFailedError)
                and self._supervisor.handle_failure(err)
            )
            if not recovered:
                failed = self._shards_of_error(err)
                sent = {s for (s, _side), _, _ in rnd.staged}
                for s in failed & sent:
                    self._m_shard_failures[s].inc()
                if not isinstance(err, ShardFailedError):
                    self._down.update(failed & sent)
                # retention: unacknowledged batches return to their
                # buffers; a later worker replay stops at each buffer's
                # front, so they still apply exactly once
                for (s, side), keys, times in reversed(rnd.staged):
                    if s in failed:
                        self._buffers[s, side].requeue(keys, times)
                applied = rnd.n_items - sum(
                    int(keys.size)
                    for (s, _side), keys, _times in rnd.staged
                    if s in failed
                )
                self._last_drain = self._clock()
                if applied:
                    self.stats.record_flush(applied, self._last_drain - rnd.started)
                if strict or isinstance(err, ShardFailedError):
                    raise
                return
            # recovered: the failed worker was rebuilt from checkpoint
            # and the log replayed up to its buffers' fronts, which lie
            # past this round's drained batches
        else:
            rnd.root.__exit__(None, None, None)
            if rnd.rpc_start is not None:
                # send -> acknowledgements collected; a pipelined round
                # includes the caller's work done while it was in flight
                self._stages.observe(
                    "flush_rpc",
                    time.perf_counter() - rnd.rpc_start,
                    rnd.root.trace_id,
                )
            for (s, _side), _keys, _times in rnd.staged:
                self._m_shard_flushes[s].inc()
        self.stats.record_flush(rnd.n_items, self._clock() - rnd.started)

    def _replay(
        self, start, clock, shards, cutoffs=None
    ) -> tuple[list[int], int, int]:
        """Re-apply the logged suffix from ``start`` to ``shards``.

        The one replay routine, behind worker restarts and
        ``recover_engine``: log records are stamped from a copy of
        ``clock`` and split by :func:`~repro.service.sharding.partition`
        exactly as :meth:`ingest` did.  Per ``(shard, side)`` only items
        below ``cutoffs[shard, side]`` are applied (the rest still sit in
        that buffer; no cutoff keeps all), minus the shed runs recorded
        since the base checkpoint.  Returns ``(clock, items, batches)``:
        the clock after the last record, and what was sent.
        """
        self._settle()
        cfg = self.config
        clock = list(clock)
        cutoffs = cutoffs or {}
        items = batches = 0
        for side, keys in _coalesced(self._log.records(start)):
            times = clock[side] + np.arange(keys.size, dtype=np.int64)
            clock[side] += int(keys.size)
            sids = shard_ids(keys, cfg.num_shards, cfg.shard_seed)
            sends = []
            for s, k, t in partition(keys, times, sids, cfg.num_shards):
                if s not in shards:
                    continue
                cut = cutoffs.get((s, side))
                if cut is not None:
                    n = int(np.searchsorted(t, cut))
                    k, t = k[:n], t[:n]
                runs = self._shed_runs.get((s, side))
                if runs and t.size:
                    lo, hi = np.asarray(runs, dtype=np.int64).T
                    i = np.searchsorted(hi, t)  # first run ending at/after t
                    keep = (i == hi.size) | (t < lo[np.minimum(i, hi.size - 1)])
                    k, t = k[keep], t[keep]
                if t.size:
                    sends.append((s, k, t, side if self._two_stream else None))
                    items += int(t.size)
            if sends:
                self._exec.flush_many(sends)
                batches += len(sends)
        return clock, items, batches

    def queue_depths(self) -> list[int]:
        """Buffered items per shard (summed over sides), counting the
        round in flight: its items are not flushed until it settles."""
        depths = [0] * self.config.num_shards
        for (s, _side), buf in self._buffers.items():
            depths[s] += buf.count
        if self._inflight is not None:
            for (s, _side), keys, _times in self._inflight.staged:
                depths[s] += int(keys.size)
        return depths

    # -- querying ------------------------------------------------------------

    def _drain(self, strict: bool) -> None:
        """Settle and flush every buffer, so a read sees the whole stream.

        With ``strict=True``, any down shard — previously marked or
        newly failed here — raises; ``strict=False`` marks failures
        down and keeps going so degraded queries can answer from the
        survivors.
        """
        self._settle(strict)
        if strict and self._down:
            raise ShardUnrecoverableError(
                f"shards {sorted(self._down)} are down; recover them "
                "(Supervisor.recover_down) or query with strict=False",
                shard_ids=tuple(sorted(self._down)),
            )
        self._check_open()
        with self.obs.tracer.span("engine.sync", strict=strict) as sync_span:
            # remembered for the query_fanin stage exemplar: the read
            # that follows this drain belongs to the same logical trace
            self._last_sync_trace = sync_span.trace_id
            self._flush_buffers(strict=strict)

    def _sync(self, strict: bool = True) -> None:
        """Drain buffers and bring every live shard to the global clock."""
        self._read(strict, None)

    def snapshots(self) -> list:
        """Clock-aligned copies of all shards (flushes first): the one
        read that still ships whole shards."""
        return self._read(True, None, copy=True)[0]

    def _read(
        self, strict: bool, op, args: dict | None = None,
        *, copy: bool = False,
    ) -> tuple[list, set[int]]:
        """The one read behind every query: ``(answers, missing)``.

        Drains, then sends the executor's ``read`` verb over every live
        shard: each worker advances its shards to the engine clock and
        answers ``op`` where they live, with ``args[shard]`` (None for
        shards ``args`` omits), so ``answers`` holds one entry per
        worker.  With ``copy`` the aligned shards then come back whole
        (``snapshots``), in shard order.  A failed read goes through
        ``_handle_executor_failure``: after the supervisor rebuilds the
        implicated workers the read runs once more (its clock catches
        the rebuilt shards up), and shards that stay lost raise on a
        strict read and are reported missing from a degraded one.
        """
        self._drain(strict)
        args = args or {}
        lost: set[int] = set()  # failed again after this read's rebuild
        rebuilt = False
        while True:
            missing = self._down | lost
            live = {
                s: args.get(s)
                for s in range(self.config.num_shards) if s not in missing
            }
            try:
                answers = self._exec.read(self._t, op, live)
                if copy:
                    answers = self._exec.snapshots(list(live))
                return answers, missing
            except ShardError as err:
                if not rebuilt and self._handle_executor_failure(err, strict=strict):
                    rebuilt = True
                elif strict:
                    raise
                else:
                    lost |= self._shards_of_error(err)

    def _merge(self, operands: list):
        """One sketch from the workers' ``merge_many`` operands: a lone
        operand already is one, more fold in the driver (None when no
        shard answered)."""
        if len(operands) <= 1:
            return operands[0] if operands else None
        t = None if self._two_stream else self._t[0]
        return merge_many(operands, t=t, require_aligned=True)

    def merged(self):
        """One sketch equal to observing the union stream unsharded.

        ``merge_many`` over the aligned shards, per
        :mod:`repro.core.merge` semantics: each worker folds its own
        shards where they live and ships one operand.
        """
        started = time.perf_counter() if self._stages.enabled else None
        out = self._merge(self._read(True, "merge")[0])
        self._observe_fanin(started)
        return out

    def _observe_fanin(self, started: float | None) -> None:
        """File one query_fanin stage sample (no-op when untimed)."""
        if started is not None:
            self._stages.observe(
                "query_fanin",
                time.perf_counter() - started,
                self._last_sync_trace,
            )

    def _require_query(self, query: str) -> None:
        if query not in self._desc.queries:
            supporting = [
                k for k in registered_kinds()
                if query in get_descriptor(k).queries
            ]
            raise TypeError(
                f"{query} queries need a {'/'.join(supporting) or '?'} "
                f"engine, this one is {self.config.kind!r}"
            )

    def _shards_shed_in_window(self) -> set[int]:
        """Shards whose latest shed event is still inside the current
        window — their portion of any answer undercounts the stream."""
        if not self._last_shed_t:
            return set()
        window = self.config.window
        return {
            s
            for (s, side), mark in self._last_shed_t.items()
            if mark > self._t[side] - window
        }

    def _degraded_answer(self, value, missing: set[int]) -> DegradedAnswer:
        total = self.config.num_shards
        shed = self._shards_shed_in_window() - missing
        if missing:
            self.stats.record_degraded_query()
        return DegradedAnswer(
            value=value,
            shards_answered=total - len(missing),
            shards_total=total,
            missing_shards=tuple(sorted(missing)),
            caveat=self._desc.caveat(missing=bool(missing), shed=bool(shed)),
            shed_shards=tuple(sorted(shed)),
        )

    def _answer(self, query: str, strict: bool, op, answer, args=None):
        """Run ``answer(answers)`` over one read of ``op`` and wrap the
        result: the bare value when strict, a :class:`DegradedAnswer`
        otherwise.  Files one ``query_fanin`` stage sample either way."""
        self._require_query(query)
        self.stats.record_query()
        started = time.perf_counter() if self._stages.enabled else None
        answers, missing = self._read(strict, op, args)
        value = answer(answers)
        self._observe_fanin(started)
        return value if strict else self._degraded_answer(value, missing)

    def _point(self, query: str, keys, strict: bool):
        """A point query answered by each key's owning shard alone.

        Keys hash-partition, so every arrival of a key lives on its
        owner: the owner's answer is the sketch's own, within the §5
        bound of the items that one shard holds, with no other shard's
        load added.  Each worker gets only its shards' keys.  Keys
        whose owner is missing read as the kind's empty value
        (``False`` / ``0.0``).
        """
        method, empty = _POINT_QUERIES[query]
        keys = as_key_array(keys)
        n = self.config.num_shards
        owners = shard_ids(keys, n, self.config.shard_seed)
        # the one partition routine, carrying each key's position in
        # place of a time so answers land back in the caller's order
        where = np.arange(keys.size, dtype=np.int64)
        runs = partition(keys, where, owners, n)

        def route(answers: list) -> np.ndarray:
            out = np.full(keys.shape, empty)
            got = {s: a for part in answers for s, a in part.items()}
            for s, _keys_s, where_s in runs:
                if s in got:
                    out[where_s] = got[s]
            return out

        return self._answer(
            query, strict, method, route, {s: k for s, k, _w in runs}
        )

    def _whole(self, query: str, strict: bool, method: str, *margs):
        """A whole-array query: ``method(*margs)`` of the live shards'
        merge (None when no shard answered).

        When one worker holds every live shard, its merge is the whole
        merge, so it answers there and ships the value.  Otherwise each
        worker ships its operand and the driver folds and answers.  A
        read only loses shards, never gains them, so the one worker
        stays the only one through the read's retries.
        """
        n = self.config.num_shards
        workers = {self._exec.worker_of(s) for s in range(n) if s not in self._down}
        if len(workers) <= 1:
            return self._answer(
                query, strict, ("answer", method, margs),
                lambda answers: answers[0] if answers else None,
            )

        def fold(operands: list):
            merged = self._merge(operands)
            return None if merged is None else getattr(merged, method)(*margs)

        return self._answer(query, strict, "merge", fold)

    def contains(self, key: int, *, strict: bool = True):
        """Membership of ``key`` in the window (BF engines)."""
        res = self.contains_many(np.asarray([key], dtype=np.uint64), strict=strict)
        if strict:
            return bool(res[0])
        return dataclasses.replace(res, value=bool(res.value[0]))

    def contains_many(self, keys, *, strict: bool = True):
        """Windowed membership per key, from each key's owning shard;
        ``strict=False`` answers as a :class:`DegradedAnswer` when some
        shards are down (their keys read as absent)."""
        return self._point("membership", keys, strict)

    def cardinality(self, *, strict: bool = True):
        """Distinct keys in the window (BM / HLL engines)."""
        return self._whole("cardinality", strict, "cardinality")

    def frequency(self, key: int, *, strict: bool = True):
        """Windowed count of ``key`` (CM engines)."""
        res = self.frequency_many(np.asarray([key], dtype=np.uint64), strict=strict)
        if strict:
            return float(res[0])
        return dataclasses.replace(res, value=float(res.value[0]))

    def frequency_many(self, keys, *, strict: bool = True):
        """Windowed count estimates, from each key's owning shard.

        Counts of one key live entirely on its owner, so the owner's
        estimate is the sketch's own: it never underestimates through
        mature counters, and no other shard's collision noise is added.
        ``strict=False`` answers from the live shards; keys owned by a
        missing shard read as zero, which the returned
        :class:`DegradedAnswer`'s caveat says explicitly.
        """
        return self._point("frequency", keys, strict)

    def similarity(self, *, strict: bool = True):
        """Jaccard similarity of the two streams (MH engines)."""
        return self._whole("similarity", strict, "similarity")

    def quantile(self, q: float, *, strict: bool = True):
        """The ``q``-quantile of the windowed measurements (WQ engines).

        Served by the ``"wq"`` sliding-window quantile kind
        (:class:`repro.obs.windows.SheWindowedQuantile`): keys are
        non-negative integer measurements, the answer is the log-bucket
        representative value with the sketch's γ relative error, over
        (approximately) the last ``window`` arrivals of the union
        stream.  NaN when the window holds no samples.
        """
        return self._whole("quantile", strict, "quantile", q)

    # -- observability -------------------------------------------------------

    @property
    def memory_bytes(self) -> int:
        """Aggregate sketch memory across the live shards (buffers
        excluded); each worker answers one int."""
        return sum(self._scrape("memory"))

    def _scrape(self, op: str) -> list:
        """One clockless ``read`` of ``op`` over the live shards: ints
        and dicts come back, no shard moves and none advances.

        A process executor's read is an RPC on the worker pipes, so the
        round in flight settles first.  A serial executor reads its
        shards in place without settling: the exporter scrapes serial
        engines from its own thread, which must not change engine
        state.
        """
        if not isinstance(self._exec, SerialExecutor):
            self._settle()
        live = {
            s: None for s in range(self.config.num_shards) if s not in self._down
        }
        return self._exec.read(None, op, live)

    @property
    def down_shards(self) -> tuple[int, ...]:
        """Shards currently without a live, trusted worker."""
        return tuple(sorted(self._down))

    def probe_shards(self) -> list[dict | None]:
        """Read-only SHE introspection of every shard (no draining).

        Each entry is the shard sketch's :meth:`probe` dict — cell age
        distribution vs ``Tcycle``, young/perfect/aged counts, fill
        ratio, cleaning telemetry — or ``None`` for down shards.  Each
        worker probes its own live shards (a serial executor in place)
        and returns the dicts, so on a process engine call this from
        the engine's own thread only.
        """
        probed: list[dict | None] = [None] * self.config.num_shards
        for part in self._scrape("probe"):
            for s, probe in part.items():
                probed[s] = probe
        return probed

    @staticmethod
    def _probe_frames(probe: dict) -> list[dict]:
        """The frame dict(s) of one probe (MH reports one per side)."""
        if "frames" in probe:
            return list(probe["frames"])
        return [probe["frame"]]

    def update_probe_gauges(self) -> None:
        """Refresh the ``she_*`` / ``engine_queue_depth`` gauges.

        Cheap no-op when observability is disabled.  The exporter calls
        this on scrape for serial engines; process deployments should
        call it from the engine thread (e.g. after a flush round), since
        probing a process executor sends a ``read`` to every worker.
        """
        if not self.obs.enabled:
            return
        for s, depth in enumerate(self.queue_depths()):
            self._g_queue_depth.labels(str(s)).set(depth)
        for s, hw in enumerate(self._queue_high_water):
            self._g_queue_high_water.labels(str(s)).set(hw)
        for s in range(self.config.num_shards):
            self._g_shard_down.labels(str(s)).set(1 if s in self._down else 0)
        if self._down:
            # probing fans out to every worker; while shards are down the
            # queue/down gauges above still refresh, the sketch-level
            # gauges keep their last good values
            return
        self._g_memory.set(self.memory_bytes)
        for s, probe in enumerate(self.probe_shards()):
            if probe is None:
                continue
            frames = self._probe_frames(probe)
            sums = {
                key: sum(f[key] for f in frames)
                for key in (
                    "young_cells", "perfect_cells", "aged_cells",
                    "occupied_cells", "cells_cleaned", "groups_cleaned",
                    "cleaning_checks", "num_cells",
                )
            }
            label = str(s)
            g = self._g_probe
            g["she_young_cells"].labels(label).set(sums["young_cells"])
            g["she_perfect_cells"].labels(label).set(sums["perfect_cells"])
            g["she_aged_cells"].labels(label).set(sums["aged_cells"])
            g["she_occupied_cells"].labels(label).set(sums["occupied_cells"])
            g["she_cells_cleaned_total"].labels(label).set(sums["cells_cleaned"])
            g["she_groups_cleaned_total"].labels(label).set(sums["groups_cleaned"])
            g["she_cleaning_checks_total"].labels(label).set(sums["cleaning_checks"])
            n_cells = max(sums["num_cells"], 1)
            g["she_fill_ratio"].labels(label).set(sums["occupied_cells"] / n_cells)
            g["she_legal_group_fraction"].labels(label).set(
                sum(f["legal_group_fraction"] for f in frames) / len(frames)
            )
            for frac in AGE_HIST_BINS:
                le = f"{frac:g}"
                self._g_age_hist.labels(label, le).set(
                    sum(f["age_hist_le"][le] for f in frames)
                )

    def overload_snapshot(self) -> dict:
        """Admission-control state for ``/statusz``: the configured
        budgets and policy, live depths, high-water marks, per-shard
        shed counts, and which shards shed inside the current window."""
        cfg = self.config
        return {
            "policy": cfg.overload_policy,
            "bounded": cfg.bounded,
            "max_buffered_items": cfg.max_buffered_items,
            "max_buffered_total": cfg.max_buffered_total,
            "down_retention_items": cfg.down_retention_items,
            "queue_depths": self.queue_depths(),
            "queue_high_water": list(self._queue_high_water),
            "items_shed_per_shard": list(self._shed_counts),
            "items_shed_total": self.stats.items_shed,
            "items_rejected_total": self.stats.items_rejected,
            "shed_in_window": sorted(self._shards_shed_in_window()),
        }

    def wal_status(self) -> dict:
        """Durability state for ``/statusz`` and ``/healthz``.

        ``last_error`` is non-None while the most recent WAL append or
        fsync failed (the exporter reports degraded until a later sync
        clears it); ``lag_items`` counts appended items not yet covered
        by an fsync — what a power cut could take under the current
        policy.
        """
        if self._wal is None:
            return {"enabled": False}
        w = self._wal
        return {
            "enabled": True,
            "directory": str(w.directory),
            "fsync": w.fsync_policy,
            "fsync_interval_s": w.fsync_interval_s,
            "position": list(w.position()),
            "durable_position": list(w.durable_position()),
            "segments": w.segment_count(),
            "bytes": w.total_bytes,
            "lag_items": w.pending_items,
            "appends_total": w.appends,
            "fsyncs_total": w.fsyncs,
            "torn_bytes_dropped": w.torn_bytes_dropped,
            "last_error": w.last_error,
            "replayed_items": self.stats.items_replayed,
        }

    def stats_snapshot(self, *, tick: bool | None = None) -> dict:
        """Counter snapshot; see :meth:`EngineStats.snapshot`.

        ``tick`` runs the time-based flush trigger first so an idle
        engine's buffers still drain when only stats are being read.
        The default (``None``) ticks serial engines only: the metrics
        exporter scrapes from its own thread, and ticking a process
        executor there would issue worker RPCs off the engine thread.
        """
        if tick is None:
            tick = isinstance(self._exec, SerialExecutor)
        if tick and not self._closed:
            self.tick()
        return self.stats.snapshot(
            queue_depths=self.queue_depths(), down_shards=self.down_shards
        )

    def stats_report(self) -> str:
        """Human-readable counter block for dashboards and examples."""
        return format_stats(self.stats_snapshot())

    # -- lifecycle -----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("engine is closed")

    def close(self) -> None:
        """Flush pending work and stop any workers.

        Workers are stopped (and their handles released) even when the
        final flush fails — a dying engine must not leak processes.
        """
        if self._closed:
            return
        try:
            self._flush_buffers(strict=False)
        finally:
            self._closed = True
            try:
                if self._wal is not None:
                    self._wal.close()
            finally:
                self._exec.close()

    def __enter__(self) -> "StreamEngine":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
