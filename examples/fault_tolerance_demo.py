"""Fault tolerance: a worker dies mid-stream and nobody notices.

A 4-shard SHE-CM `StreamEngine` on real `ProcessExecutor` workers is
wrapped in a `ChaosExecutor` scripted to SIGKILL one worker partway
through ingest. A `Supervisor` is attached, so the death is absorbed
inline: the worker restarts from the attach-time checkpoint, the
supervisor's replay log re-applies every arrival its shards were sent
since, and the final frequencies are bit-identical to a run that never
failed.

Act two disables recovery (`RetryPolicy(max_restarts=0)`) and kills
again: strict queries now raise typed errors naming the down shards,
while `strict=False` queries keep answering from the survivors with an
explicit coverage annotation. Point queries read each key's owning
shard, so keys on live shards still get the exact answer and keys on
the down shards read as zero. Then an operator-style breaker reset
brings the shards back.

Every printed check must hold; the demo exits non-zero otherwise.

Run:  python examples/fault_tolerance_demo.py
"""

import shutil
import sys
import tempfile

import numpy as np

from repro.datasets import BoundedZipf
from repro.service import (
    ChaosExecutor,
    EngineConfig,
    ProcessExecutor,
    RetryPolicy,
    ShardError,
    ShardUnrecoverableError,
    StreamEngine,
    Supervisor,
    format_stats,
    shard_ids,
)

WINDOW = 1 << 12
STREAM = 40_000


def config() -> EngineConfig:
    return EngineConfig(
        "cm",
        window=WINDOW,
        size=1 << 12,
        num_shards=4,
        flush_batch_size=1024,
        flush_interval_s=None,
        rpc_timeout_s=5.0,
        sketch_kwargs={"seed": 7},
    )


def chaos_engine(kill_at: int, box: dict) -> StreamEngine:
    def factory(shards):
        box["chaos"] = ChaosExecutor(
            ProcessExecutor(shards, num_workers=2, timeout_s=5.0),
            kill_worker_after_ops=kill_at,
        )
        return box["chaos"]

    return StreamEngine(config(), executor=factory)


def check(label: str, ok: bool, failed: list) -> None:
    """Print one check's outcome and remember it when it fails."""
    print(f"  {label:<22}{bool(ok)}")
    if not ok:
        failed.append(label)


def main() -> int:
    failed: list[str] = []
    trace = BoundedZipf(5_000, 1.2, seed=23).sample(STREAM)
    probes = np.unique(trace)[:20]

    reference = StreamEngine(config())
    reference.ingest(trace)
    want = reference.frequency_many(probes)

    # -- act one: supervised kill, transparent recovery ---------------------
    ckpt_dir = tempfile.mkdtemp(prefix="she-ft-")
    box: dict = {}
    engine = chaos_engine(kill_at=20, box=box)
    supervisor = Supervisor(engine, ckpt_dir)
    for lo in range(0, STREAM, 4096):
        engine.ingest(trace[lo : lo + 4096])
    got = engine.frequency_many(probes)
    print("act one: SIGKILL under supervision")
    print(f"  kills injected        {box['chaos'].kills}")
    print(f"  worker restarts       {engine.stats.worker_restarts}")
    print(f"  items replayed        {engine.stats.items_replayed}")
    check("bit-identical result", np.array_equal(got, want), failed)
    engine.close()
    shutil.rmtree(ckpt_dir)

    # -- act two: recovery disabled, honest degradation ---------------------
    ckpt_dir = tempfile.mkdtemp(prefix="she-ft-")
    box = {}
    engine = chaos_engine(kill_at=20, box=box)
    supervisor = Supervisor(engine, ckpt_dir, policy=RetryPolicy(max_restarts=0))
    for lo in range(0, STREAM, 4096):
        try:
            engine.ingest(trace[lo : lo + 4096])
        except ShardError as err:  # items are buffered before any flush:
            pass                   # nothing is lost, the stream keeps going
    print("\nact two: SIGKILL with the restart breaker open")
    print(f"  down shards           {engine.down_shards}")
    try:
        engine.frequency_many(probes)
        print("  strict query          answered despite down shards")
        failed.append("strict query raised")
    except ShardUnrecoverableError as err:
        print(f"  strict query          raised {type(err).__name__}")
    degraded = engine.frequency_many(probes, strict=False)
    print(f"  degraded coverage     {degraded.shards_answered}/{degraded.shards_total}"
          f" (missing {degraded.missing_shards})")
    print(f"  caveat                {degraded.caveat}")
    owners = shard_ids(probes, config().num_shards, config().shard_seed)
    down = np.isin(owners, engine.down_shards)
    check("live keys exact", np.array_equal(degraded.value[~down], want[~down]),
          failed)
    check("down keys read zero", not np.any(degraded.value[down]), failed)

    # operator steps in: refill the budget and bring the shards back
    supervisor.policy = RetryPolicy(max_restarts=2)
    supervisor.reset_breaker()
    supervisor.recover_down()
    got = engine.frequency_many(probes)
    print("  after recover_down()")
    print(f"  down shards           {engine.down_shards}")
    check("bit-identical result", np.array_equal(got, want), failed)
    print()
    print(format_stats({
        k: v for k, v in engine.stats_snapshot().items()
        if k in ("items_ingested", "items_flushed", "rpc_timeouts",
                 "worker_deaths", "worker_restarts", "items_replayed",
                 "batches_replayed", "degraded_queries", "shards_down")
    }))
    engine.close()
    reference.close()
    shutil.rmtree(ckpt_dir)
    if failed:
        print(f"FAILED checks: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
