"""Deterministic fault injection for the service layer.

Real crash tests are flaky by construction — a SIGKILL lands between
two unknowable instructions.  :class:`ChaosExecutor` instead wraps any
executor and injects failures at exact *operation indices*: the N-th
forwarded data op (flush batch / each shard a read advances /
snapshot / checkpoint, counted from 1) can kill the owning worker,
stall it past the RPC deadline, apply-but-drop the acknowledgement, or
corrupt the checkpoint file it just wrote.  Because the engine's op
sequence is a pure function of the ingested stream, every chaos run is
exactly reproducible — the supervision tests assert bit-identical
recovery, not "it eventually worked".

Fault semantics:

* ``kill_worker_after_ops=N`` — immediately before op ``N`` executes,
  SIGKILL the worker that owns it (real process death for
  :class:`ProcessExecutor`; a simulated dead-worker mark for
  :class:`SerialExecutor`).  Op ``N`` and everything after it on that
  worker fails with :class:`ShardDeadError` until a restart.
* ``delay_ops={N: seconds}`` — stall the owning worker for ``seconds``
  before op ``N``.  Against a ``ProcessExecutor`` this exercises the
  real ``conn.poll`` deadline path: pick ``seconds`` larger than the
  executor's ``timeout_s`` and op ``N`` raises
  :class:`ShardTimeoutError` (the worker is then poisoned, exactly as
  a production stall would leave it).  Delays smaller than the deadline
  would desynchronise the pipe and are rejected up front.
* ``slow_workers={W: seconds}`` — a *slow* worker, distinct from a
  stalled one: every op forwarded to worker ``W`` first pays
  ``seconds`` of latency, kept strictly below the executor's
  ``timeout_s`` so the op still completes inside its deadline.  The
  injection round-trips a real sleep through the worker loop (send +
  acknowledge), so the pipe stays in sync — this models a CPU-starved
  or swapping worker that drags the whole engine's throughput down
  without ever tripping the fault machinery, which is exactly the
  overload regime admission control exists for.
* ``drop_ack_ops={N}`` — forward op ``N``, let it apply, then raise
  :class:`ShardTimeoutError` as if the acknowledgement were lost.
  This is the at-least-once ambiguity that forces restart-from-
  checkpoint + replay (blindly resending would double-apply).
* ``corrupt_checkpoint_ops={N}`` — if op ``N`` is a checkpoint, let it
  write and then overwrite the file with garbage, modelling torn or
  bit-rotted durable storage.

The wrapper forwards the full executor surface (topology helpers,
``restart_worker``, ``ping``, ``close``), so a
:class:`repro.service.supervisor.Supervisor` can drive recovery through
it without knowing chaos is present.
"""

from __future__ import annotations

import os
import signal
import time

from repro.obs import OBS_DISABLED
from repro.service.errors import (
    ShardDeadError,
    ShardError,
    ShardFailedError,
    ShardTimeoutError,
)
from repro.service.executor import _by_worker, _round_error

__all__ = ["ChaosExecutor"]


class ChaosExecutor:
    """Fault-injecting wrapper around any executor (see module docs).

    Args:
        inner: the executor to wrap (``SerialExecutor`` /
            ``ProcessExecutor`` / anything protocol-compatible).
        kill_worker_after_ops: kill the owning worker right before this
            op index (1-based) executes.
        kill_worker_id: kill this worker instead of the op's owner.
        delay_ops: op index -> seconds to stall the owning worker first.
        slow_workers: worker id -> seconds of latency paid before every
            op on that worker (must stay below the executor deadline;
            use ``delay_ops`` to trip it instead).
        drop_ack_ops: op indices whose acknowledgement is "lost" after
            the op applies.
        corrupt_checkpoint_ops: checkpoint op indices whose file is
            overwritten with garbage after writing.

    ``ops`` exposes the running op count; ``kills`` the
    ``(op_index, worker_id)`` log of injected kills.
    """

    def __init__(
        self,
        inner,
        *,
        kill_worker_after_ops: int | None = None,
        kill_worker_id: int | None = None,
        delay_ops: dict[int, float] | None = None,
        slow_workers: dict[int, float] | None = None,
        drop_ack_ops=(),
        corrupt_checkpoint_ops=(),
    ):
        self._inner = inner
        self._kill_at = kill_worker_after_ops
        self._kill_worker = kill_worker_id
        self._delay_ops = dict(delay_ops or {})
        self._slow_workers = dict(slow_workers or {})
        self._drop_ack_ops = set(drop_ack_ops)
        self._corrupt_ops = set(corrupt_checkpoint_ops)
        self._dead: set[int] = set()  # simulated deaths (serial inner)
        # the round in flight: its shards in send order, the injected
        # failures by batch index, and the batches whose ack is dropped
        self._round_shards: list[int] = []
        self._round_errors: list[tuple[int, ShardError]] = []
        self._round_drops: list[tuple[int, int, int, int]] = []
        self.ops = 0
        self.kills: list[tuple[int, int]] = []
        self.set_obs(None)
        for w, seconds in self._slow_workers.items():
            if seconds <= 0:
                raise ValueError(
                    f"slow_workers[{w}]={seconds}s must be positive"
                )
        timeout_s = getattr(inner, "timeout_s", None)
        if timeout_s is not None:
            for op, seconds in self._delay_ops.items():
                if seconds <= timeout_s:
                    raise ValueError(
                        f"delay_ops[{op}]={seconds}s must exceed the inner "
                        f"executor's timeout_s={timeout_s}s (a shorter stall "
                        "would desynchronise the ack pipe instead of timing "
                        "out)"
                    )
            for w, seconds in self._slow_workers.items():
                if seconds >= timeout_s:
                    raise ValueError(
                        f"slow_workers[{w}]={seconds}s must stay below the "
                        f"inner executor's timeout_s={timeout_s}s — a slow "
                        "worker completes inside its deadline; use delay_ops "
                        "to trip it"
                    )

    def set_obs(self, obs) -> None:
        """Attach an obs bundle: chaos events become countable metrics."""
        self.obs = obs if obs is not None else OBS_DISABLED
        self._chaos_events = self.obs.registry.counter(
            "chaos_events_total",
            "Injected faults by kind",
            labels=("event",),
        )
        inner_set = getattr(self._inner, "set_obs", None)
        if inner_set is not None:
            inner_set(obs)

    # -- topology (forwarded) ------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self._inner.num_shards

    @property
    def num_workers(self) -> int:
        return self._inner.num_workers

    def worker_of(self, shard_id: int) -> int:
        return self._inner.worker_of(shard_id)

    def shards_of(self, worker_id: int) -> list[int]:
        return self._inner.shards_of(worker_id)

    def is_worker_alive(self, worker_id: int) -> bool:
        if worker_id in self._dead:
            return False
        return self._inner.is_worker_alive(worker_id)

    # -- fault machinery -----------------------------------------------------

    def _kill(self, worker_id: int) -> None:
        self._chaos_events.labels("kill").inc()
        self.kills.append((self.ops, worker_id))
        procs = getattr(self._inner, "_procs", None)
        if procs is not None:
            proc = procs[worker_id]
            if proc is not None and proc.is_alive():
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=5)  # make the death visible deterministically
        else:
            self._dead.add(worker_id)

    def _stall(self, worker_id: int, seconds: float) -> None:
        self._chaos_events.labels("stall").inc()
        send = getattr(self._inner, "_send", None)
        if send is not None:  # process worker: sleep inside the worker loop
            send(worker_id, ("sleep", float(seconds)))
        # serial inner: the deadline machinery doesn't exist in-process,
        # so a stall there has nothing to trip; treat it as a no-op.

    def _maybe_slow(self, worker_id: int, shard_ids=(), in_round=False) -> None:
        """Pay the configured latency for a slow worker before its op.

        Unlike :meth:`_stall`, the sleep's acknowledgement is consumed,
        keeping the worker pipe in sync — the subsequent real op then
        completes inside its deadline, just late.  Inside a flush round
        the sleep is queued ahead of the batch and its acknowledgement
        is collected by the round's ``settle``.
        """
        seconds = self._slow_workers.get(worker_id)
        if not seconds:
            return
        self._chaos_events.labels("slow").inc()
        send = getattr(self._inner, "_send", None)
        if send is not None and in_round:
            self._inner._send_in_round(
                worker_id, tuple(shard_ids), ("sleep", float(seconds))
            )
        elif send is not None:
            send(worker_id, ("sleep", float(seconds)), shard_ids=shard_ids)
            self._inner._recv(
                worker_id, op="chaos-slow", shard_ids=shard_ids
            )
        else:
            time.sleep(float(seconds))

    def _guard(self, worker_id: int, shard_ids=()) -> None:
        if worker_id in self._dead:
            raise ShardDeadError(
                f"worker {worker_id} was killed by chaos at op "
                f"{self.kills[-1][0] if self.kills else '?'}",
                shard_ids=tuple(shard_ids), worker_ids=(worker_id,),
            )

    def _strikes(self, n: int) -> bool:
        """Whether a kill or a stall is staged at op ``n``."""
        return n == self._kill_at or n in self._delay_ops

    def _before_op(self, worker_id: int) -> int:
        """Advance the op counter and fire any faults staged at it."""
        self.ops += 1
        n = self.ops
        if n == self._kill_at:
            target = self._kill_worker if self._kill_worker is not None else worker_id
            self._kill(target)
        if n in self._delay_ops:
            self._stall(worker_id, self._delay_ops[n])
        return n

    def _run(self, worker_id: int, shard_ids: tuple, ops: int, fn, *args,
             op: str):
        """Forward one call to ``worker_id`` as ``ops`` countable ops;
        with none (a scrape) it pays no slowness, but deaths apply."""
        ns = [self._before_op(worker_id) for _ in range(ops)]
        self._guard(worker_id, shard_ids=shard_ids)
        if ops:
            self._maybe_slow(worker_id, shard_ids=shard_ids)
        result = fn(*args)
        n = next((n for n in ns if n in self._drop_ack_ops), None)
        if n is not None:
            # the op applied, but the caller must believe the ack vanished;
            # poison a real worker pool the way a genuine lost ack would
            self._chaos_events.labels("drop_ack").inc()
            poisoned = getattr(self._inner, "_poisoned", None)
            if poisoned is not None:
                poisoned.add(worker_id)
            raise ShardTimeoutError(
                f"chaos dropped the acknowledgement of {op} (op {n})",
                shard_ids=shard_ids, worker_ids=(worker_id,),
            )
        return result

    # -- protocol verbs ------------------------------------------------------

    def send_many(self, batches, trace=None) -> None:
        """Count each batch as its own op; forward the batches that
        pass their faults to the inner executor as one round.

        The inner round carries every surviving batch, so a process
        inner sends each worker's share as one ``apply`` message and a
        worker applies it in one stacked call where it can.  A kill or
        stall staged at a batch's op lands between the batches before
        it, which are forwarded first, and the batches from it on, as
        when every batch was its own round; so a kill or stall can land
        on a worker that holds unacknowledged batches.  Every failure
        is kept for :meth:`settle`.
        """
        survivors: list = []
        for shard_id, keys, times, side in batches:
            worker_id = self.worker_of(shard_id)
            if survivors and self._strikes(self.ops + 1):
                self._inner.send_many(survivors, trace)
                survivors = []
            n = self._before_op(worker_id)
            i = len(self._round_shards)
            self._round_shards.append(shard_id)
            try:
                self._guard(worker_id, shard_ids=(shard_id,))
            except ShardDeadError as exc:
                self._round_errors.append((i, exc))
                continue
            self._maybe_slow(worker_id, shard_ids=(shard_id,), in_round=True)
            survivors.append((shard_id, keys, times, side))
            if n in self._drop_ack_ops:
                self._round_drops.append((i, n, shard_id, worker_id))
        if survivors:
            self._inner.send_many(survivors, trace)

    def settle(self) -> None:
        """Settle the inner round, then raise every failure of this
        round (injected or real) as one error, in batch order."""
        shards, errors, drops = (
            self._round_shards, self._round_errors, self._round_drops
        )
        self._round_shards, self._round_errors, self._round_drops = [], [], []
        inner_failed: set[int] = set()
        try:
            self._inner.settle()
        except ShardError as exc:
            inner_failed = set(exc.shard_ids)
            first = next(
                (i for i, s in enumerate(shards) if s in inner_failed),
                len(shards),
            )
            errors.append((first, exc))
        for i, n, shard_id, worker_id in drops:
            if shard_id in inner_failed:
                continue
            # the batch applied, but the caller must believe the ack
            # vanished; poison a real worker pool the way a genuine
            # lost ack would
            self._chaos_events.labels("drop_ack").inc()
            poisoned = getattr(self._inner, "_poisoned", None)
            if poisoned is not None:
                poisoned.add(worker_id)
            errors.append((i, ShardTimeoutError(
                f"chaos dropped the acknowledgement of flush (op {n})",
                shard_ids=(shard_id,), worker_ids=(worker_id,),
            )))
        if errors:
            errors.sort(key=lambda e: e[0])
            ordered = [e for _i, e in errors]
            failed = [s for e in ordered for s in e.shard_ids]
            raise _round_error(ordered, failed) from ordered[0]

    def flush_many(self, batches, trace=None) -> None:
        self.send_many(batches, trace)
        self.settle()

    def read(self, clock, op, args: dict) -> list:
        """Per-worker forwarding, in worker order.

        A worker's read counts one op per shard it advances, as the
        per-shard advances it replaces did, so a schedule's op indices
        keep their meaning; a fault at any of them fails the worker's
        whole read.  A clockless scrape advances nothing and counts no
        op.
        """
        out = []
        for w, part in _by_worker(self, args).items():
            out.extend(self._run(
                w, tuple(part), len(part) if clock is not None else 0,
                self._inner.read, clock, op, part, op="read",
            ))
        return out

    def snapshot(self, shard_id: int):
        return self._run(
            self.worker_of(shard_id), (shard_id,), 1, self._inner.snapshot,
            shard_id, op="snapshot",
        )

    def snapshots(self, shard_ids=None) -> list:
        if shard_ids is None:
            shard_ids = range(self.num_shards)
        return [self.snapshot(s) for s in shard_ids]

    def checkpoint(self, shard_id: int, path) -> None:
        worker_id = self.worker_of(shard_id)
        n = self._before_op(worker_id)
        self._guard(worker_id, shard_ids=(shard_id,))
        self._maybe_slow(worker_id, shard_ids=(shard_id,))
        self._inner.checkpoint(shard_id, path)
        if n in self._corrupt_ops:
            self._chaos_events.labels("corrupt_checkpoint").inc()
            with open(path, "wb") as fh:
                fh.write(b"chaos ate this checkpoint")
        if n in self._drop_ack_ops:
            self._chaos_events.labels("drop_ack").inc()
            poisoned = getattr(self._inner, "_poisoned", None)
            if poisoned is not None:
                poisoned.add(worker_id)
            raise ShardTimeoutError(
                f"chaos dropped the acknowledgement of checkpoint (op {n})",
                shard_ids=(shard_id,), worker_ids=(worker_id,),
            )

    def ping(self, worker_id: int, timeout: float | None = None) -> bool:
        self._guard(worker_id, shard_ids=tuple(self.shards_of(worker_id)))
        return self._inner.ping(worker_id, timeout)

    def restart_worker(self, worker_id: int, shards: dict) -> None:
        self._inner.restart_worker(worker_id, shards)
        self._dead.discard(worker_id)

    def close(self) -> None:
        self._inner.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
