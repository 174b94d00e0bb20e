"""repro.service — sharded streaming ingestion & query serving.

The serving layer over the SHE sketch library: hash-sharded ingestion
with batched flushes (:class:`StreamEngine`), optional multiprocessing
flush executors, point queries routed to each key's owning shard and
merge-based whole-array queries, atomic checkpoint/recovery
(:class:`Checkpointer`, :func:`recover_engine`), in-process counters
(:class:`EngineStats`), and a fault-tolerance layer: RPC deadlines and
a typed error hierarchy (:mod:`repro.service.errors`), worker
supervision with restart-from-checkpoint + replay
(:class:`Supervisor`), degraded queries that answer from surviving
shards (``strict=False`` → :class:`DegradedAnswer`), deterministic
fault injection (:class:`ChaosExecutor`) to test all of it, and
admission control: bounded ingestion buffers with typed overload
policies (``EngineConfig(max_buffered_items=..., overload_policy=...)``
→ :class:`EngineOverloadedError` / exact shed accounting; see
``docs/service.md``).

Observability lives in :mod:`repro.obs`: pass ``obs=True`` to the
engine and every counter, trace span and SHE probe gauge is live;
serve them with :class:`repro.obs.MetricsExporter` (``/metrics``,
``/healthz``, ``/statusz``).  See ``docs/observability.md``.

Quickstart::

    from repro.obs import MetricsExporter
    from repro.service import EngineConfig, StreamEngine, Supervisor

    engine = StreamEngine(EngineConfig("cm", window=1 << 16, size=1 << 14,
                                       num_shards=4), executor="process",
                          obs=True)
    sup = Supervisor(engine, "/var/tmp/ckpts")   # deadline+restart+replay
    exporter = MetricsExporter(engine).start()   # Prometheus endpoint
    engine.ingest(keys)                  # buffered, batched, sharded
    engine.frequency(some_key)           # read from the key's owning shard
    engine.frequency(some_key, strict=False)  # survives down shards
    engine.close()
"""

from repro.service.checkpoint import (
    Checkpointer,
    latest_checkpoint,
    load_checkpoint_shard,
    prune_checkpoints,
    read_manifest,
    recover_engine,
    save_checkpoint,
    verify_checkpoint,
)
from repro.service.crashsim import (
    CrashHarness,
    SimulatedCrash,
    flip_bit,
    simulate_process_kill,
    tear_tail,
)
from repro.service.engine import (
    OVERLOAD_POLICIES,
    DegradedAnswer,
    EngineConfig,
    StreamEngine,
)
from repro.service.errors import (
    CheckpointCorruptionError,
    EngineOverloadedError,
    ShardDeadError,
    ShardError,
    ShardFailedError,
    ShardTimeoutError,
    ShardUnrecoverableError,
    WalCorruptionError,
    WalError,
    WalWriteError,
)
from repro.service.executor import (
    DEFAULT_RPC_TIMEOUT_S,
    ProcessExecutor,
    SerialExecutor,
)
from repro.service.faults import ChaosExecutor
from repro.service.sharding import DEFAULT_SHARD_SEED, partition, shard_ids
from repro.service.stats import EngineStats, format_stats
from repro.service.supervisor import RetryPolicy, Supervisor
from repro.service.wal import (
    WAL_FSYNC_POLICIES,
    MemoryLog,
    WalPosition,
    WriteAheadLog,
    inspect_wal,
    iter_records,
    verify_wal,
)

__all__ = [
    "OVERLOAD_POLICIES",
    "EngineConfig",
    "StreamEngine",
    "DegradedAnswer",
    "Checkpointer",
    "save_checkpoint",
    "latest_checkpoint",
    "prune_checkpoints",
    "recover_engine",
    "read_manifest",
    "load_checkpoint_shard",
    "SerialExecutor",
    "ProcessExecutor",
    "DEFAULT_RPC_TIMEOUT_S",
    "ChaosExecutor",
    "Supervisor",
    "RetryPolicy",
    "ShardError",
    "EngineOverloadedError",
    "ShardTimeoutError",
    "ShardDeadError",
    "ShardFailedError",
    "ShardUnrecoverableError",
    "EngineStats",
    "format_stats",
    "DEFAULT_SHARD_SEED",
    "shard_ids",
    "partition",
    # durability: write-ahead log + checksummed checkpoints (PR 7)
    "WAL_FSYNC_POLICIES",
    "WalPosition",
    "WriteAheadLog",
    "MemoryLog",
    "iter_records",
    "verify_wal",
    "inspect_wal",
    "verify_checkpoint",
    "WalError",
    "WalWriteError",
    "WalCorruptionError",
    "CheckpointCorruptionError",
    "CrashHarness",
    "SimulatedCrash",
    "simulate_process_kill",
    "tear_tail",
    "flip_bit",
]
