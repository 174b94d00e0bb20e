"""Worker supervision: detect, restart, replay, or give up honestly.

A sharded engine's failure story has two halves.  The *mechanism* —
deadlines, typed errors, ``restart_worker`` — lives in the executors.
This module is the *policy*: :class:`Supervisor` watches worker
liveness, and when an RPC times out or a worker dies it rebuilds the
worker's shards from the newest complete checkpoint, then replays the
engine's suffix log through ``StreamEngine._replay`` — the stamp and
partition code ``ingest`` runs — up to the front of each of the
worker's buffers.  The log is the engine's write-ahead log when it has
one, otherwise a bounded in-memory :class:`~repro.service.wal.MemoryLog`
the supervisor attaches.  Restart-from-base-plus-replay (rather than
"resend the failed batch") is forced by timeout ambiguity: a batch
whose ack was lost may already have applied, and resending it blind
would double-count; rebuilding from a durable base makes replay exact,
so a recovered shard is *bit-identical* to one that never failed (the
chaos tests assert this).

Retries follow :class:`RetryPolicy` — exponential backoff between
attempts and a per-worker circuit breaker (``max_restarts`` between
successful checkpoints).  When the breaker opens, the in-memory log
overflows, or the base checkpoint is unreadable, the worker's shards
are marked **down**: strict engine calls raise
:class:`ShardUnrecoverableError`, while ``strict=False`` queries keep
answering from the surviving shards with a coverage annotation (the
graceful-degradation posture of distributed sliding-window monitors —
Papapetrou et al., PAPERS.md).

The supervisor takes a checkpoint at attach time, so it always owns a
durable base covering everything the engine has flushed; thereafter
every successful checkpoint becomes the new base, empties the
in-memory log and resets the breaker.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.obs import OBS_DISABLED
from repro.service.checkpoint import (
    latest_checkpoint,
    load_checkpoint_shard,
    read_manifest,
    save_checkpoint,
)
from repro.service.errors import (
    ShardError,
    ShardFailedError,
    ShardUnrecoverableError,
)
from repro.service.wal import MemoryLog, WalPosition

__all__ = ["RetryPolicy", "Supervisor"]


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff and circuit-breaker knobs for worker restarts.

    Args:
        max_restarts: restart budget per worker between successful
            checkpoints; exhausting it opens the breaker and marks the
            worker's shards down.  ``0`` disables recovery outright
            (every failure degrades immediately).
        backoff_base_s: sleep before the first restart attempt.
        backoff_factor: multiplier per subsequent attempt.
        backoff_max_s: backoff ceiling.
    """

    max_restarts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0

    def backoff_s(self, attempt: int) -> float:
        """Sleep before restart ``attempt`` (0-based)."""
        return min(
            self.backoff_base_s * self.backoff_factor ** attempt,
            self.backoff_max_s,
        )


class Supervisor:
    """Monitors one engine's workers and rebuilds them after failures.

    Args:
        engine: the :class:`StreamEngine` to supervise; the supervisor
            attaches itself (``engine._supervisor``) so flush failures
            route here automatically.
        checkpoint_dir: where durable bases live.  An attach-time
            checkpoint is taken immediately, so the replay suffix
            starts exactly at a durable cut.
        policy: restart/backoff/breaker knobs.
        replay_limit_items: bound (admitted items since the base
            checkpoint) of the in-memory log attached when the engine
            has no WAL.
        sleep: injectable backoff sleeper (tests pin it to a recorder).

    Use :func:`repro.service.checkpoint.save_checkpoint` (or a
    ``Checkpointer``) as usual — completed checkpoints notify the
    supervisor, moving its base and resetting the breaker.
    """

    def __init__(
        self,
        engine,
        checkpoint_dir: str | Path,
        *,
        policy: RetryPolicy | None = None,
        replay_limit_items: int = 1 << 22,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.engine = engine
        self.directory = Path(checkpoint_dir)
        self.policy = policy or RetryPolicy()
        self._sleep = sleep
        self._restarts: dict[int, int] = defaultdict(int)
        self._base_path: Path | None = None
        # why the last recovery gave up (None after a success)
        self.last_error: str | None = None
        engine._supervisor = self
        # share the engine's obs bundle (no-op stand-ins when disabled)
        self.obs = getattr(engine, "obs", None) or OBS_DISABLED
        # the replay suffix: the engine's WAL when it has one, else an
        # in-memory log of the same records (None means "the WAL")
        self.log: MemoryLog | None = None
        if engine._log is None:
            self.log = engine._log = MemoryLog(
                replay_limit_items, registry=self.obs.registry
            )
        # establish the durable base the suffix is relative to
        save_checkpoint(engine, self.directory)
        if self._base_path is None:  # pragma: no cover - hook always fires
            self._base_path = latest_checkpoint(self.directory)

    # -- engine hooks --------------------------------------------------------

    def on_checkpoint(self, path: Path) -> None:
        """Called after a checkpoint publishes: new base, fresh budget."""
        self._base_path = Path(path)
        if self.log is not None:
            self.log.reset()
        self.engine._shed_runs.clear()
        self._restarts.clear()

    # -- failure handling ----------------------------------------------------

    def restarts(self, worker_id: int) -> int:
        """Restarts spent on this worker since the last checkpoint."""
        return self._restarts[worker_id]

    def handle_failure(self, err: ShardError) -> bool:
        """Recover every worker implicated by ``err``.

        Returns True only if *all* of them came back (their replayed
        state now includes the batches the failed round covered).
        Worker-reported data errors (:class:`ShardFailedError`) are the
        caller's bug, not a process failure — never restarted.
        """
        if isinstance(err, ShardFailedError):
            return False
        ok = True
        for w in sorted(self.engine._workers_of_error(err)):
            ok &= self.recover_worker(w)
        return ok

    def recover_worker(self, worker_id: int) -> bool:
        """Restart one worker from checkpoint + replay, with backoff.

        Returns True on success (shards un-marked down, state
        bit-identical to an unfailed worker at the same stream point);
        False once the circuit breaker opens or the shards are
        unrecoverable (they are then marked down for degraded queries).
        """
        self.engine._settle(strict=False)
        with self.obs.tracer.span("supervisor.recover", worker=worker_id) as sp:
            ok = self._recover_worker(worker_id)
            sp.tag(outcome="recovered" if ok else "down")
            return ok

    def _recover_worker(self, worker_id: int) -> bool:
        engine, executor = self.engine, self.engine._exec
        shard_ids = tuple(executor.shards_of(worker_id))
        while True:
            attempt = self._restarts[worker_id]
            if attempt >= self.policy.max_restarts:
                engine._down.update(shard_ids)
                return False
            self._sleep(self.policy.backoff_s(attempt))
            self._restarts[worker_id] = attempt + 1
            try:
                start, clock, base = self._load_base(worker_id, shard_ids)
                executor.restart_worker(worker_id, base)
                # items still buffered flush normally after recovery
                cutoffs = {
                    key: buf.front_time()
                    for key, buf in engine._buffers.items()
                    if key[0] in shard_ids and buf.count
                }
                _clock, items, batches = engine._replay(
                    start, clock, shard_ids, cutoffs
                )
                engine.stats.record_replay(items, batches)
                executor.ping(worker_id)
            except ShardUnrecoverableError as exc:
                self.last_error = str(exc)
                engine._down.update(shard_ids)
                return False
            except ShardError:
                continue  # worker died again mid-recovery; next attempt
            self.last_error = None
            engine.stats.record_restart()
            engine._down.difference_update(shard_ids)
            return True

    def _load_base(self, worker_id: int, shard_ids) -> tuple:
        """The base cut for one worker: ``(log start, clock, shards)``.

        Clock and WAL position come from the base manifest (its
        self-checksum verified); the in-memory log starts at the base
        by construction.  Anything unusable raises
        :class:`ShardUnrecoverableError` naming why.
        """
        if self.log is not None and self.log.overflowed:
            raise ShardUnrecoverableError(
                f"replay log overflowed its {self.log.limit_items}-item "
                "bound; arrivals since the last checkpoint are gone",
                shard_ids=shard_ids, worker_ids=(worker_id,),
            )
        path = self._base_path
        try:
            meta = read_manifest(path)
            clock = [int(t) for t in meta["clock"]]
            start = None if self.log is not None else WalPosition(
                *(int(x) for x in meta["wal"]["position"])
            )
            shards = {s: load_checkpoint_shard(path, s) for s in shard_ids}
        except Exception as exc:
            raise ShardUnrecoverableError(
                f"base checkpoint {path} is unreadable ({exc}); worker "
                f"{worker_id} cannot be rebuilt",
                shard_ids=shard_ids, worker_ids=(worker_id,),
            ) from exc
        return start, clock, shards

    # -- liveness ------------------------------------------------------------

    def check(self) -> dict[int, bool]:
        """Heartbeat every worker; recover the dead ones.

        Returns worker id -> healthy-after-check.  A worker that fails
        ``is_alive``/ping is put through :meth:`recover_worker`; the
        mapping then reflects whether recovery succeeded.
        """
        self.engine._settle(strict=False)
        executor = self.engine._exec
        result: dict[int, bool] = {}
        for w in range(executor.num_workers):
            healthy = executor.is_worker_alive(w)
            if healthy:
                try:
                    executor.ping(w)
                except ShardError:
                    healthy = False
            if healthy:
                result[w] = True
                continue
            self.engine.stats.record_worker_death()
            result[w] = self.recover_worker(w)
        return result

    def reset_breaker(self) -> None:
        """Manually refill every worker's restart budget."""
        self._restarts.clear()

    def recover_down(self) -> bool:
        """Retry recovery for every currently-down shard's worker."""
        self.engine._settle(strict=False)
        executor = self.engine._exec
        workers = sorted({executor.worker_of(s) for s in self.engine._down})
        ok = True
        for w in workers:
            ok &= self.recover_worker(w)
        return ok

    def snapshot(self) -> dict:
        """Supervision counters for dashboards."""
        log = self.log
        out = {
            "replay_source": "wal" if log is None else "memory",
            "replay_log_batches": None if log is None else len(log),
            "replay_log_items": None if log is None else log.items,
            "replay_log_overflowed": log is not None and log.overflowed,
            "restarts_since_checkpoint": dict(self._restarts),
            "base_checkpoint": str(self._base_path),
            "down_shards": sorted(self.engine._down),
            "last_error": self.last_error,
        }
        # overload context: a down shard under admission control keeps
        # at most the retention cap buffered, and anything it shed
        # before recovery is gone for good — dashboards correlating
        # replay size with recovery prospects need both numbers
        if self.engine.config.bounded:
            out["items_shed_per_shard"] = list(self.engine._shed_counts)
            out["overload_policy"] = self.engine.config.overload_policy
        return out
