"""Flush executors: where the shard sketches actually live.

The engine is a router; the executor owns the shard state and applies
batches to it.  Two implementations share one protocol
(``flush`` / ``flush_many`` / ``advance`` / ``snapshot`` /
``checkpoint`` / ``ping`` / ``close`` plus the worker topology helpers
``worker_of`` / ``shards_of`` / ``is_worker_alive`` /
``restart_worker``, and ``set_obs`` to attach an observability bundle):

* :class:`SerialExecutor` keeps the sketches in-process — zero overhead
  per flush, the right default for one CPU.
* :class:`ProcessExecutor` forks long-lived workers, each owning a
  fixed subset of shards; batches ship over pipes (or, opt-in, through
  a shared-memory ring) and apply in parallel.  Shard ownership never
  migrates, so no sketch state is ever shared — the classic
  shared-nothing layout of sharded stores.

Both are deterministic: the same sequence of flushes produces
bit-identical shard state, which the equivalence tests assert.

Failure semantics (see :mod:`repro.service.errors`): every
``ProcessExecutor`` RPC carries a deadline enforced with
``conn.poll(timeout)``, so no call can block past ``timeout_s``.  A
missed deadline raises :class:`ShardTimeoutError`, a vanished worker
:class:`ShardDeadError`, a worker-reported exception
:class:`ShardFailedError`; each names the shards whose batches are not
known to have applied, which is what the engine's retention logic and
the supervisor's replay need.

Observability (:mod:`repro.obs`): with a bundle attached via
``set_obs``, every RPC records its round-trip into the ``rpc_seconds``
histogram, and a flush carrying a ``(trace_id, parent_span_id)``
context is traced *across the process boundary* — the worker times the
sketch apply, ships a ``worker.apply`` span dict back on the
acknowledgement, and the parent files it in its span ring, so one
batch's journey main-process → worker → sketch-apply reads as one
trace.  ``restart_worker`` is the *mechanism*
half of recovery — it respawns one worker with caller-provided shard
state; the *policy* half (what state: checkpoint + replay) lives in
:class:`repro.service.supervisor.Supervisor`.
"""

from __future__ import annotations

import copy
import multiprocessing as mp
import time
import traceback

import numpy as np

from repro.obs import OBS_DISABLED
from repro.obs.tracing import span_record
from repro.persist import save_sketch
from repro.service.errors import (
    ShardDeadError,
    ShardFailedError,
    ShardTimeoutError,
)
from repro.service.shm import ITEM_BYTES, SlotRing, shm_available

__all__ = ["SerialExecutor", "ProcessExecutor", "DEFAULT_RPC_TIMEOUT_S"]

DEFAULT_RPC_TIMEOUT_S = 30.0

#: flush transports: ``"pickle"`` ships arrays through the pipe (the
#: default), ``"shm"`` ships slot descriptors into a shared-memory ring
TRANSPORTS = ("pickle", "shm")

#: default ring geometry: slots sized for a few engine flush batches
DEFAULT_RING_SLOT_ITEMS = 32768

#: cap on one ring's segment size.  Writing into a tmpfs page that
#: ``/dev/shm`` cannot back kills the parent with SIGBUS (no fallback
#: is possible then), so the ring stays well inside a small container
#: ``/dev/shm`` (Docker's default is 64 MiB); batches larger than the
#: capped slots take the per-batch pickle fallback instead.
MAX_RING_BYTES = 16 * 1024 * 1024


def _check_transport(transport: str) -> str:
    if transport not in TRANSPORTS:
        raise ValueError(
            f"transport must be one of {TRANSPORTS}, got {transport!r}"
        )
    return transport


_UNSET = object()

# per-RPC latency buckets: pipe round-trips live in the sub-ms to
# tens-of-ms range; anything slower is already deadline territory
_RPC_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0,
)


def _apply_flush(sketch, keys: np.ndarray, times: np.ndarray, side: int | None) -> None:
    # two-stream sketches (the SHE-MH shape) take the stream side first;
    # the class attribute is the dispatch point, not the concrete type
    if getattr(sketch, "two_stream", False):
        sketch.insert_at(0 if side is None else side, keys, times)
    else:
        sketch.insert_at(keys, times)


def _apply_advance(sketch, t: int, side: int | None) -> None:
    if getattr(sketch, "two_stream", False):
        sketch.advance_to(t, side)
    else:
        sketch.advance_to(t)


class SerialExecutor:
    """All shards live in the calling process; commands apply inline.

    Presents the same worker topology surface as the process pool —
    one implicit worker 0 owning every shard — so supervisors and
    fault-injection wrappers treat both uniformly.
    """

    def __init__(self, shards, *, obs=None, transport: str = "pickle"):
        self._shards = list(shards)
        # nothing crosses a process boundary, so both transports apply
        # inline through the same kernel; the value is only validated
        self.transport = _check_transport(transport)
        self.set_obs(obs)

    def set_obs(self, obs) -> None:
        """Attach an :class:`repro.obs.Observability` bundle (or None)."""
        self.obs = obs if obs is not None else OBS_DISABLED
        self._h_apply = self.obs.registry.histogram(
            "executor_apply_seconds",
            "In-process sketch apply duration per batch",
            buckets=_RPC_BUCKETS,
        )

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def num_workers(self) -> int:
        return 1

    def worker_of(self, shard_id: int) -> int:
        return 0

    def shards_of(self, worker_id: int) -> list[int]:
        return list(range(self.num_shards))

    def is_worker_alive(self, worker_id: int) -> bool:
        return True

    def ping(self, worker_id: int, timeout: float | None = None) -> bool:
        return True

    def restart_worker(self, worker_id: int, shards: dict) -> None:
        """Replace the listed shards' state in place (recovery hook)."""
        for shard_id, sketch in shards.items():
            self._shards[shard_id] = sketch

    def flush(
        self,
        shard_id: int,
        keys,
        times,
        side: int | None = None,
        trace: tuple[str, str] | None = None,
    ) -> None:
        started = time.perf_counter()
        if trace is not None:
            with self.obs.tracer.span(
                "shard.apply",
                trace_id=trace[0],
                parent_id=trace[1],
                shard=shard_id,
                items=int(keys.size),
            ):
                _apply_flush(self._shards[shard_id], keys, times, side)
        else:
            _apply_flush(self._shards[shard_id], keys, times, side)
        elapsed = time.perf_counter() - started
        self._h_apply.observe(elapsed)
        self.obs.stages.observe(
            "apply", elapsed, trace[0] if trace is not None else None
        )

    def flush_many(self, batches, trace: tuple[str, str] | None = None) -> None:
        """Apply batches in order; a failure names the not-applied shards."""
        batches = list(batches)
        for i, (shard_id, keys, times, side) in enumerate(batches):
            try:
                self.flush(shard_id, keys, times, side, trace)
            except Exception as exc:
                not_applied = tuple(b[0] for b in batches[i:])
                raise ShardFailedError(
                    f"shard worker failed:\n{traceback.format_exc()}",
                    shard_ids=not_applied,
                    worker_ids=(0,),
                ) from exc

    def advance(self, shard_id: int, t: int, side: int | None = None) -> None:
        _apply_advance(self._shards[shard_id], t, side)

    def snapshot(self, shard_id: int):
        """An isolated copy of one shard, safe to merge or mutate."""
        return copy.deepcopy(self._shards[shard_id])

    def snapshots(self) -> list:
        return [self.snapshot(s) for s in range(self.num_shards)]

    def peeks(self) -> list:
        """Read-side view of the shards without copying.

        Callers may run point queries and ``merge_many``, which only
        read frames, but must not insert or run whole-array queries
        (``prepare_query_all`` cleans in place).
        """
        return self._shards

    def checkpoint(self, shard_id: int, path) -> None:
        save_sketch(self._shards[shard_id], path)

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# -- multiprocessing ---------------------------------------------------------


def _worker_main(conn, shards: dict, ring_spec: tuple | None = None) -> None:
    """Worker loop: apply commands to the shards this process owns.

    ``ring_spec`` — ``(name, slot_items, num_slots)`` of the parent's
    shared-memory ring under ``transport="shm"``, else ``None``; the
    worker attaches read-only and serves ``flush_shm`` descriptors from
    zero-copy views.  Plain ``flush`` messages carry pickled arrays:
    the pickle transport, and the shm ring's fallback for batches the
    ring cannot take.
    """
    ring = None
    if ring_spec is not None:
        name, slot_items, num_slots = ring_spec
        ring = SlotRing(slot_items, num_slots, name=name)
    try:
        while True:
            cmd, *args = conn.recv()
            try:
                if cmd in ("flush", "flush_shm"):
                    if cmd == "flush":
                        sid, keys, times, side, trace = args
                    else:
                        sid, slot, n, side, trace = args
                        keys = ring.keys_view(slot, n)
                        times = ring.times_view(slot, n)
                    t0 = time.perf_counter()
                    _apply_flush(shards[sid], keys, times, side)
                    dur_ms = (time.perf_counter() - t0) * 1e3
                    items = int(keys.size)
                    # drop slot views so they never pin the ring's
                    # mapping past this batch
                    keys = times = None
                    if trace is None:
                        conn.send(("ok", None))
                    else:
                        # the cross-process half of a flush trace: the
                        # timed apply ships back on the acknowledgement
                        # as a span for the parent's ring
                        conn.send((
                            "ok",
                            span_record(
                                "worker.apply", trace[0], trace[1],
                                t0, dur_ms, shard=sid, items=items,
                            ),
                        ))
                elif cmd == "advance":
                    sid, t, side = args
                    _apply_advance(shards[sid], t, side)
                    conn.send(("ok", None))
                elif cmd == "snapshot":
                    (sid,) = args
                    conn.send(("ok", shards[sid]))
                elif cmd == "checkpoint":
                    sid, path = args
                    save_sketch(shards[sid], path)
                    conn.send(("ok", None))
                elif cmd == "ping":
                    conn.send(("ok", "pong"))
                elif cmd == "sleep":  # fault injection: stall this worker
                    (seconds,) = args
                    time.sleep(seconds)
                    conn.send(("ok", None))
                elif cmd == "close":
                    conn.send(("ok", None))
                    return
                else:  # pragma: no cover - protocol is closed
                    conn.send(("err", f"unknown command {cmd!r}"))
            except Exception:
                conn.send(("err", traceback.format_exc()))
    except (EOFError, KeyboardInterrupt):  # parent died / interrupted
        pass
    finally:
        if ring is not None:
            ring.close()


class ProcessExecutor:
    """Shards partitioned over a pool of long-lived worker processes.

    Shard ``s`` is owned by worker ``s % num_workers`` forever; a flush
    for it is a message to that worker.  ``flush_many`` fans a round of
    batches out to all workers before collecting acknowledgements, so
    independent shards really do apply in parallel.

    Args:
        shards: the sketch per shard (worker ownership derives from
            position).
        num_workers: pool size, capped at the shard count.
        timeout_s: per-RPC deadline; ``None`` waits forever (the
            pre-fault-tolerance behaviour).  Enforced with
            ``conn.poll``, so a wedged worker costs at most one
            deadline, never a hang.
        transport: ``"pickle"`` (the default) ships arrays through the
            pipes; ``"shm"`` copies each batch once into a
            shared-memory :class:`SlotRing` and ships only the slot
            descriptor, the pipes staying the control plane.  Under
            ``"shm"`` a batch that outgrows a slot, or finds the ring
            exhausted, ships pickled instead; so does every batch when
            the ring cannot be created.  Results are bit-identical.
        ring_slot_items: requested slot capacity (items) of the shm
            ring; size it at or above the engine's flush batch size.
            Capped so the whole ring stays within
            :data:`MAX_RING_BYTES`.
    """

    def __init__(
        self,
        shards,
        *,
        num_workers: int | None = None,
        timeout_s: float | None = DEFAULT_RPC_TIMEOUT_S,
        transport: str = "pickle",
        ring_slot_items: int = DEFAULT_RING_SLOT_ITEMS,
    ):
        shards = list(shards)
        if not shards:
            raise ValueError("ProcessExecutor needs at least one shard")
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self._num_shards = len(shards)
        self.num_workers = min(num_workers or len(shards), len(shards))
        self.timeout_s = timeout_s
        self.transport = _check_transport(transport)
        self._ring: SlotRing | None = None
        if self.transport == "shm":
            # enough slots for a full flush round (one per shard and
            # side) plus headroom for supervisor replay traffic
            num_slots = max(2 * self._num_shards + 2, 8)
            slot_items = max(1, min(
                int(ring_slot_items),
                MAX_RING_BYTES // (ITEM_BYTES * num_slots),
            ))
            if shm_available():
                try:
                    self._ring = SlotRing(slot_items, num_slots)
                except OSError:  # no usable /dev/shm: ship pickled
                    pass
            if self._ring is None:
                self.transport = "pickle"
        self._conns: list = [None] * self.num_workers
        self._procs: list = [None] * self.num_workers
        # workers whose pipe can no longer be trusted (a missed deadline
        # may leave a stale ack in flight); only a restart clears this
        self._poisoned: set[int] = set()
        self.set_obs(None)
        for w in range(self.num_workers):
            self._spawn(w, {s: shards[s] for s in self.shards_of(w)})
        self._closed = False

    def set_obs(self, obs) -> None:
        """Attach an :class:`repro.obs.Observability` bundle (or None)."""
        self.obs = obs if obs is not None else OBS_DISABLED
        self._h_rpc = self.obs.registry.histogram(
            "rpc_seconds",
            "Worker RPC round-trip duration",
            labels=("op", "worker"),
            buckets=_RPC_BUCKETS,
        )
        self._g_ring_in_use = self.obs.registry.gauge(
            "engine_shm_ring_slots_in_use",
            "Shared-memory ring slots currently handed to workers",
        )
        self._g_ring_total = self.obs.registry.gauge(
            "engine_shm_ring_slots_total",
            "Shared-memory ring capacity in slots",
        )
        self._c_shm_fallback = self.obs.registry.counter(
            "executor_shm_fallback_total",
            "Flush batches that fell back to the pickle path "
            "(oversized batch or exhausted ring)",
        )
        if self._ring is not None:
            self._g_ring_total.set(self._ring.num_slots)
            self._g_ring_in_use.set(self._ring.in_use())

    # -- topology ------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self._num_shards

    def worker_of(self, shard_id: int) -> int:
        return shard_id % self.num_workers

    def shards_of(self, worker_id: int) -> list[int]:
        return [
            s for s in range(self._num_shards)
            if s % self.num_workers == worker_id
        ]

    def is_worker_alive(self, worker_id: int) -> bool:
        proc = self._procs[worker_id]
        return proc is not None and proc.is_alive()

    # -- process lifecycle ---------------------------------------------------

    def _spawn(self, worker_id: int, owned: dict) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        ring_spec = None
        if self._ring is not None:
            ring_spec = (
                self._ring.name, self._ring.slot_items, self._ring.num_slots
            )
        proc = self._ctx.Process(
            target=_worker_main, args=(child_conn, owned, ring_spec), daemon=True
        )
        proc.start()
        child_conn.close()
        self._conns[worker_id] = parent_conn
        self._procs[worker_id] = proc
        self._poisoned.discard(worker_id)

    def _reap(self, worker_id: int, *, grace_s: float = 2.0) -> None:
        """Stop one worker on every path: join, escalate to terminate
        then kill for wedged processes, and release pipe + process
        handles so nothing leaks across restarts."""
        conn, proc = self._conns[worker_id], self._procs[worker_id]
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
            self._conns[worker_id] = None
        if proc is None:
            return
        proc.join(timeout=grace_s)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=grace_s)
        if proc.is_alive():  # pragma: no cover - terminate almost always lands
            proc.kill()
            proc.join(timeout=grace_s)
        try:
            proc.close()
        except ValueError:  # pragma: no cover - still alive after kill
            pass
        self._procs[worker_id] = None

    def restart_worker(self, worker_id: int, shards: dict) -> None:
        """Respawn one worker with caller-provided shard state.

        ``shards`` must map exactly the shard ids this worker owns to
        fresh sketch objects (typically checkpoint loads — the old
        process's in-memory state is unrecoverable by definition).
        """
        expected = set(self.shards_of(worker_id))
        if set(shards) != expected:
            raise ValueError(
                f"worker {worker_id} owns shards {sorted(expected)}, "
                f"got state for {sorted(shards)}"
            )
        self._reap(worker_id)
        self._spawn(worker_id, dict(shards))

    # -- RPC plumbing --------------------------------------------------------

    def _conn_of(self, shard_id: int):
        return self._conns[self.worker_of(shard_id)]

    def _check_trusted(self, worker_id: int, shard_ids) -> None:
        if worker_id in self._poisoned:
            raise ShardDeadError(
                f"worker {worker_id} is untrusted after a missed deadline; "
                "restart_worker() it before further RPCs",
                shard_ids=shard_ids, worker_ids=(worker_id,),
            )

    def _send(self, worker_id: int, message, *, shard_ids=()) -> None:
        self._check_trusted(worker_id, shard_ids)
        conn = self._conns[worker_id]
        if conn is None:
            raise ShardDeadError(
                f"worker {worker_id} has no live process",
                shard_ids=shard_ids, worker_ids=(worker_id,),
            )
        try:
            conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise ShardDeadError(
                f"worker {worker_id} pipe is broken (process died?)",
                shard_ids=shard_ids, worker_ids=(worker_id,),
            ) from exc

    def _recv(self, worker_id: int, *, op="rpc", shard_ids=(), timeout=_UNSET):
        conn = self._conns[worker_id]
        deadline = self.timeout_s if timeout is _UNSET else timeout
        if conn is None:
            raise ShardDeadError(
                f"worker {worker_id} has no live process",
                shard_ids=shard_ids, worker_ids=(worker_id,),
            )
        if deadline is not None and not conn.poll(deadline):
            proc = self._procs[worker_id]
            if proc is None or not proc.is_alive():
                raise ShardDeadError(
                    f"worker {worker_id} died before acknowledging {op}",
                    shard_ids=shard_ids, worker_ids=(worker_id,),
                )
            self._poisoned.add(worker_id)
            raise ShardTimeoutError(
                f"worker {worker_id} missed the {deadline}s deadline for {op}",
                timeout_s=deadline, shard_ids=shard_ids, worker_ids=(worker_id,),
            )
        try:
            status, payload = conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardDeadError(
                f"worker {worker_id} hung up mid-{op} (process died?)",
                shard_ids=shard_ids, worker_ids=(worker_id,),
            ) from exc
        if status == "err":
            raise ShardFailedError(
                f"shard worker failed:\n{payload}",
                shard_ids=shard_ids, worker_ids=(worker_id,),
            )
        return payload

    def _call(self, shard_id: int, *message, timeout=_UNSET):
        w = self.worker_of(shard_id)
        started = time.perf_counter()
        self._send(w, message, shard_ids=(shard_id,))
        payload = self._recv(
            w, op=message[0], shard_ids=(shard_id,), timeout=timeout
        )
        self._h_rpc.labels(message[0], str(w)).observe(
            time.perf_counter() - started
        )
        return payload

    # -- protocol verbs ------------------------------------------------------

    def _make_flush(self, shard_id, keys, times, side, trace):
        """Build one flush message: a slot descriptor when the shm ring
        can carry the batch, else the pickled-array message.

        Returns ``(message, slot)``; the caller owns releasing a
        non-``None`` slot once the batch is acknowledged or failed.
        """
        if self._ring is not None:
            n = int(keys.size)
            if n <= self._ring.slot_items:
                slot = self._ring.acquire()
                if slot is not None:
                    started = time.perf_counter()
                    self._ring.write(slot, keys, times)
                    self._g_ring_in_use.set(self._ring.in_use())
                    self.obs.stages.observe(
                        "shm_acquire",
                        time.perf_counter() - started,
                        trace[0] if trace is not None else None,
                    )
                    return ("flush_shm", shard_id, slot, n, side, trace), slot
            # oversized batch or exhausted ring: pickle still works
            self._c_shm_fallback.inc()
        return ("flush", shard_id, keys, times, side, trace), None

    def _release_slot(self, slot, trace=None) -> None:
        if slot is None:
            return
        started = time.perf_counter()
        self._ring.release(slot)
        self._g_ring_in_use.set(self._ring.in_use())
        self.obs.stages.observe(
            "shm_release",
            time.perf_counter() - started,
            trace[0] if trace is not None else None,
        )

    def flush(
        self,
        shard_id: int,
        keys,
        times,
        side: int | None = None,
        trace: tuple[str, str] | None = None,
    ) -> None:
        keys = np.asarray(keys)
        message, slot = self._make_flush(shard_id, keys, times, side, trace)
        try:
            payload = self._call(shard_id, *message)
        finally:
            self._release_slot(slot, trace)
        if payload is not None:
            self.obs.tracer.ingest((payload,))
            self._observe_apply(payload)

    def _observe_apply(self, payload: dict) -> None:
        """Feed the worker's timed apply into the stage recorder.

        The worker half of the flush trace already times the sketch
        apply (``worker.apply`` span records, repro.obs.tracing); the
        same measurement feeds the windowed ``apply`` stage so process
        deployments attribute apply latency without extra clock reads.
        """
        duration_ms = payload.get("duration_ms")
        if duration_ms is not None:
            self.obs.stages.observe(
                "apply", duration_ms / 1e3, payload.get("trace_id")
            )

    def flush_many(self, batches, trace: tuple[str, str] | None = None) -> None:
        """Apply ``(shard_id, keys, times, side)`` batches in parallel.

        Sends every batch before awaiting any acknowledgement; pipes are
        FIFO per worker, so per-shard ordering is preserved while
        distinct workers overlap their work.  Every worker is attempted
        even if another has already failed; on error, the raised
        :class:`ShardError` lists exactly the shards whose batches are
        not known to have applied (and once a worker misses a deadline
        or dies, all its later batches in the round count as unapplied
        — the pipe can no longer be trusted).
        """
        batches = list(batches)
        started = time.perf_counter()
        # send phase: skip workers whose pipe already failed this round
        dead_workers: set[int] = set()
        errors: list[ShardFailedError | ShardDeadError | ShardTimeoutError] = []
        failed_shards: list[int] = []
        # (worker_id, shard_id, slot) in send order
        pending: list[tuple[int, int, int | None]] = []
        for shard_id, keys, times, side in batches:
            w = self.worker_of(shard_id)
            if w in dead_workers:
                failed_shards.append(shard_id)
                continue
            message, slot = self._make_flush(
                shard_id, np.asarray(keys), times, side, trace
            )
            try:
                self._send(w, message, shard_ids=(shard_id,))
            except ShardDeadError as exc:
                self._release_slot(slot, trace)
                dead_workers.add(w)
                errors.append(exc)
                failed_shards.append(shard_id)
                continue
            pending.append((w, shard_id, slot))
        # ack phase: one recv per surviving send, FIFO per worker
        for w, shard_id, slot in pending:
            if w in dead_workers:
                # the worker will never read this descriptor: its batch
                # counts as unapplied and the parent reclaims the slot
                self._release_slot(slot, trace)
                failed_shards.append(shard_id)
                continue
            try:
                payload = self._recv(w, op="flush", shard_ids=(shard_id,))
                if payload is not None:
                    self.obs.tracer.ingest((payload,))
                    self._observe_apply(payload)
            except (ShardDeadError, ShardTimeoutError) as exc:
                dead_workers.add(w)
                errors.append(exc)
                failed_shards.append(shard_id)
            except ShardFailedError as exc:
                # worker is alive and in protocol sync; only this batch failed
                errors.append(exc)
                failed_shards.append(shard_id)
            finally:
                self._release_slot(slot, trace)
        if errors:
            first = errors[0]
            raise type(first)(
                str(first),
                **(
                    {"timeout_s": first.timeout_s}
                    if isinstance(first, ShardTimeoutError)
                    else {}
                ),
                shard_ids=tuple(dict.fromkeys(failed_shards)),
                worker_ids=tuple(
                    dict.fromkeys(w for e in errors for w in e.worker_ids)
                ),
            ) from first
        self._h_rpc.labels("flush_many", "all").observe(
            time.perf_counter() - started
        )

    def advance(self, shard_id: int, t: int, side: int | None = None) -> None:
        self._call(shard_id, "advance", shard_id, t, side)

    def snapshot(self, shard_id: int):
        return self._call(shard_id, "snapshot", shard_id)

    def snapshots(self) -> list:
        """Copies of all shards, fanned out like ``flush_many``.

        Every worker's acknowledgements are drained even after one
        fails, so surviving workers' pipes stay in protocol sync; the
        first error is re-raised afterwards.
        """
        sent: list[int] = []  # shard ids whose request went out
        first_error: Exception | None = None
        dead_workers: set[int] = set()
        for s in range(self._num_shards):
            w = self.worker_of(s)
            if w in dead_workers:
                continue
            try:
                self._send(w, ("snapshot", s), shard_ids=(s,))
            except ShardDeadError as exc:
                dead_workers.add(w)
                first_error = first_error or exc
                continue
            sent.append(s)
        out: dict[int, object] = {}
        for s in sent:
            w = self.worker_of(s)
            if w in dead_workers:
                continue
            try:
                out[s] = self._recv(w, op="snapshot", shard_ids=(s,))
            except (ShardDeadError, ShardTimeoutError) as exc:
                dead_workers.add(w)
                first_error = first_error or exc
            except ShardFailedError as exc:
                first_error = first_error or exc
        if first_error is not None:
            raise first_error
        return [out[s] for s in range(self._num_shards)]

    def peeks(self) -> list:
        """Worker-owned shards can only be observed by copying."""
        return self.snapshots()

    def checkpoint(self, shard_id: int, path) -> None:
        self._call(shard_id, "checkpoint", shard_id, path)

    def ping(self, worker_id: int, timeout: float | None = None) -> bool:
        """Heartbeat one worker; raises the typed error on failure."""
        shard_ids = tuple(self.shards_of(worker_id))
        self._send(worker_id, ("ping",), shard_ids=shard_ids)
        self._recv(
            worker_id, op="ping", shard_ids=shard_ids,
            timeout=self.timeout_s if timeout is None else timeout,
        )
        return True

    def close(self) -> None:
        """Stop every worker, releasing pipes and process handles on
        all paths (clean exit, already-dead worker, wedged worker)."""
        if self._closed:
            return
        self._closed = True
        for w, conn in enumerate(self._conns):
            if conn is None:
                continue
            try:
                conn.send(("close",))
                if conn.poll(2.0):
                    conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
        for w in range(self.num_workers):
            self._reap(w)
        if self._ring is not None:
            self._ring.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __del__(self):  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass
