"""Admission control under a traffic burst: one slow shard, three policies.

A 4-shard SHE-CM `StreamEngine` runs on real `ProcessExecutor` workers,
with a `ChaosExecutor` making worker 0 *slow* (every op pays latency but
still beats its deadline — a CPU-starved box, not a dead one) and then
pinning its shard down entirely mid-burst.  The same burst is driven
through each `overload_policy` with per-shard budgets configured:

* `raise`      — whole batches come back as `EngineOverloadedError`
                 (no clock ticks consumed; the caller backs off),
* `shed_oldest`/`shed_newest` — bounded buffers with exact shed
                 accounting and a query-time caveat.

After each run the demo prints the conservation ledger
(`ingested == flushed + buffered + shed + retained_down`), the overload
snapshot served on `/statusz`, and a degraded query showing the shed
caveat.  Buffers stay bounded in every run; without budgets the pinned
shard's buffer would grow with the stream.  Point queries read each
key's owning shard, so in the degraded query the stalled shard's keys
read as zero while the others still answer.

Every printed check must hold; the demo exits non-zero otherwise.

Run:  python examples/overload_demo.py
"""

import sys

import numpy as np

from repro.datasets import BoundedZipf
from repro.service import (
    OVERLOAD_POLICIES,
    ChaosExecutor,
    EngineConfig,
    EngineOverloadedError,
    ProcessExecutor,
    StreamEngine,
    format_stats,
    shard_ids,
)

WINDOW = 1 << 12
BURSTS = 60
BURST_SIZE = 2_000
PER_SHARD_BUDGET = 4_096
SLOW_SECONDS = 0.02


def config(policy: str) -> EngineConfig:
    return EngineConfig(
        "cm",
        window=WINDOW,
        size=1 << 12,
        num_shards=4,
        flush_batch_size=1024,
        flush_interval_s=None,
        rpc_timeout_s=5.0,
        max_buffered_items=PER_SHARD_BUDGET,
        down_retention_items=PER_SHARD_BUDGET // 4,
        overload_policy=policy,
        sketch_kwargs={"seed": 7},
    )


def slow_then_stalled_executor(shards):
    """Worker 0 is slow from the start; the demo marks its shard down
    partway through to model the stall admission control must survive."""
    return ChaosExecutor(
        ProcessExecutor(shards, num_workers=4, timeout_s=5.0),
        slow_workers={0: SLOW_SECONDS},
    )


def drive(policy: str, stream: np.ndarray) -> list[str]:
    """Run one policy; returns the labels of the checks that failed."""
    print(f"\n=== policy: {policy} ===")
    failed: list[str] = []
    eng = StreamEngine(config(policy), executor=slow_then_stalled_executor)
    rejected_batches = 0
    try:
        for i in range(BURSTS):
            if i == BURSTS // 3:
                # the slow worker finally wedges: its shard stops draining
                eng._down.add(0)
            burst = stream[i * BURST_SIZE:(i + 1) * BURST_SIZE]
            try:
                eng.ingest(burst)
            except EngineOverloadedError as err:
                rejected_batches += 1
                if rejected_batches == 1:
                    print(f"  first rejection: {err}")
            depths = eng.queue_depths()
            assert depths[0] <= PER_SHARD_BUDGET, depths

        snap = eng.stats_snapshot(tick=False)
        ledger = (
            snap["items_flushed"] + snap["items_buffered"]
            + snap["items_shed"] + snap["items_retained_down"]
        )
        print(f"  rejected batches: {rejected_batches}")
        print(format_stats({
            k: snap[k] for k in (
                "items_ingested", "items_flushed", "items_buffered",
                "items_shed", "items_rejected", "items_retained_down",
            )
        }))
        conserved = snap["items_ingested"] == ledger
        print(f"  conservation: {snap['items_ingested']} == {ledger}  "
              f"({'OK' if conserved else 'BROKEN'})")
        if not conserved:
            failed.append(f"{policy}: conservation")
        over = eng.overload_snapshot()
        print(f"  overload snapshot: depths={over['queue_depths']} "
              f"high_water={over['queue_high_water']} "
              f"shed_per_shard={over['items_shed_per_shard']}")

        # degraded query: shard 0 is down, and under the shed policies
        # its recent history may also have been dropped
        probe = np.unique(stream[:64])
        ans = eng.frequency_many(probe, strict=False)
        print(f"  strict=False query: {ans.shards_answered}/{ans.shards_total} "
              f"shards, missing={ans.missing_shards} shed={ans.shed_shards}")
        if ans.caveat:
            print(f"  caveat: {ans.caveat}")
        owners = shard_ids(probe, eng.num_shards, eng.config.shard_seed)
        stalled_zero = not np.any(ans.value[owners == 0])
        print(f"  stalled shard's keys read zero: {stalled_zero}")
        if ans.missing_shards != (0,) or not stalled_zero:
            failed.append(f"{policy}: degraded query")
    finally:
        eng.close()
    return failed


def main() -> int:
    stream = BoundedZipf(20_000, 1.05, seed=31).sample(BURSTS * BURST_SIZE)
    print(
        f"burst: {BURSTS} x {BURST_SIZE} items, per-shard budget "
        f"{PER_SHARD_BUDGET}, down-shard retention {PER_SHARD_BUDGET // 4}, "
        f"worker 0 slow ({SLOW_SECONDS * 1e3:.0f} ms/op) then stalled"
    )
    failed = [label for policy in OVERLOAD_POLICIES
              for label in drive(policy, stream)]
    if failed:
        print(f"\nFAILED checks: {', '.join(failed)}")
        return 1
    print("\nevery run stayed inside its budgets; an unbounded engine "
          "would have retained the stalled shard's whole backlog")
    return 0


if __name__ == "__main__":
    sys.exit(main())
