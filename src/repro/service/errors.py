"""Typed failure hierarchy for the sharded serving layer.

A sharded store distinguishes *how* a shard failed because each mode
has a different remedy: a timed-out RPC may still complete (restart and
replay from a durable base, never resend blind), a dead worker needs a
restart, a worker-reported exception is the caller's bug, and a shard
that cannot be rebuilt (no checkpoint, replay overflow, circuit breaker
open) can only be dropped from the engine's reads.  The supervisor and the
engine's degraded-query mode dispatch on these types; everything
derives from :class:`ShardError` (itself a ``RuntimeError`` so legacy
``except RuntimeError`` call sites keep working).

Timeout ambiguity is the important subtlety: ``ShardTimeoutError``
means *the acknowledgement did not arrive in time*, not *the operation
did not happen*.  The worker may have applied the batch just before —
or just after — the deadline fired.  The only safe recovery is to
discard the worker's in-memory state and rebuild from the newest
checkpoint plus the replay buffer, which is exactly what
:class:`repro.service.supervisor.Supervisor` does.
"""

from __future__ import annotations

__all__ = [
    "ShardError",
    "ShardTimeoutError",
    "ShardDeadError",
    "ShardFailedError",
    "ShardUnrecoverableError",
    "EngineOverloadedError",
    "WalError",
    "WalWriteError",
    "WalCorruptionError",
    "CheckpointCorruptionError",
]


class ShardError(RuntimeError):
    """Base for executor / supervisor failures tied to specific shards.

    Args:
        message: human-readable description.
        shard_ids: the shards whose batches are *not known to have
            applied* (failed, skipped, or unacknowledged), empty when
            unknown.
        worker_ids: the owning workers, when the executor has workers
            (a fan-out round can lose several at once).
    """

    def __init__(
        self,
        message: str,
        *,
        shard_ids: tuple[int, ...] = (),
        worker_ids: tuple[int, ...] = (),
    ):
        super().__init__(message)
        self.shard_ids = tuple(shard_ids)
        self.worker_ids = tuple(worker_ids)

    @property
    def worker_id(self) -> int | None:
        """First affected worker (None when unattributed)."""
        return self.worker_ids[0] if self.worker_ids else None


class ShardTimeoutError(ShardError):
    """An executor RPC missed its deadline; the op may or may not have
    applied.  Worker state is now untrusted — rebuild, don't resend."""

    def __init__(self, message: str, *, timeout_s: float | None = None, **kw):
        super().__init__(message, **kw)
        self.timeout_s = timeout_s


class ShardDeadError(ShardError):
    """The worker process is gone (EOF on its pipe / not alive)."""


class ShardFailedError(ShardError):
    """The worker is alive and reported an exception applying the op.

    Carries the worker-side traceback; this is a caller/data error
    (e.g. rewound times), not a process failure, so the supervisor does
    *not* restart for it.
    """


class ShardUnrecoverableError(ShardError):
    """A shard cannot be rebuilt: replay buffer overflowed, checkpoint
    missing/corrupt, or the restart circuit breaker is open.  Strict
    queries fail with this; ``strict=False`` queries degrade instead."""


class EngineOverloadedError(ShardError):
    """Admission control rejected an ingest batch: buffer budgets full.

    Raised by the ``"raise"`` overload policy *before* any arrival of
    the batch is stamped — rejected keys never consume union-stream
    clock ticks, so a caller that backs off and retries observes
    exactly the stream it delivered.
    The whole batch is rejected atomically: admitting a prefix would
    silently reorder the union stream relative to what the caller sent.

    Args:
        message: human-readable description.
        depths: shard id -> buffered depth at rejection time for the
            over-budget shards.
        limit: the per-shard budget in force for those shards (the
            down-shard retention cap when the shard was down), None
            when only the engine-wide budget was breached.
        total_limit: the engine-wide budget, None when unset.
        policy: the overload policy that rejected the batch
            (``"raise"``).
        shard_ids / worker_ids: standard :class:`ShardError`
            attribution (the over-budget shards).
    """

    def __init__(
        self,
        message: str,
        *,
        depths: dict[int, int] | None = None,
        limit: int | None = None,
        total_limit: int | None = None,
        policy: str = "raise",
        **kw,
    ):
        super().__init__(message, **kw)
        self.depths = dict(depths or {})
        self.limit = limit
        self.total_limit = total_limit
        self.policy = policy


class WalError(RuntimeError):
    """Base for write-ahead-log failures (:mod:`repro.service.wal`)."""


class WalWriteError(WalError):
    """The OS rejected a WAL append or fsync.  The batch that triggered
    it was *not* ingested (no clock ticks were consumed) and the log's
    ``last_error`` stays set — ``/healthz`` reports degraded — until a
    later sync succeeds."""


class WalCorruptionError(WalError):
    """The log is damaged in a way recovery must not paper over: a
    mid-log record fails its checksum with valid records after it, a
    segment is missing from the middle of the sequence, or a recorded
    replay position points past the data.  A *torn tail* — the final
    segment ending mid-record — is NOT this error; torn bytes were
    never durable and are silently truncated on open."""


class CheckpointCorruptionError(RuntimeError):
    """Checkpoint integrity verification failed: a manifest or shard
    file does not match its recorded checksum/size.  ``recover_engine``
    falls back to an older checkpoint when one is loadable and raises
    this (never silently loads damaged state) when none is."""
