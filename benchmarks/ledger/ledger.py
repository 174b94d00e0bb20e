"""In-memory span ledger over the public entry points of each layer.

The benchmark wraps the entry points below from its own code (nothing
inside ``repro`` is instrumented): each wrapped call records a span
(name, parent, root, start, end, item count) in memory, and the ledger
turns the spans into per-layer calls, items, self time (span time minus
the time its child spans cover) and share of the traced wall time.  The
spans are written out when the run ends.

A target that no longer resolves (a renamed or deleted entry point)
marks its layer ``unresolved``: every metric of that layer is reported
without a value and with that status, never as 0.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: layer -> the public entry points whose calls are its spans
LAYER_TARGETS: dict[str, tuple[str, ...]] = {
    "hashing": ("repro.common.hashing:HashFamily.indices",),
    "sharding": ("repro.service.engine:shard_ids",),
    "engine.ingest": ("repro.service.engine:StreamEngine.ingest",),
    "wal.append": ("repro.service.wal:WriteAheadLog.append",),
    "executor.flush": (
        "repro.service.executor:SerialExecutor.flush_many",
        "repro.service.executor:ProcessExecutor.flush_many",
    ),
    "core.insert": ("repro.core.base:SheSketchBase.insert_at",),
    "executor.snapshot": (
        "repro.service.executor:SerialExecutor.snapshot",
        "repro.service.executor:ProcessExecutor.snapshots",
    ),
    "merge": ("repro.service.engine:merge_many",),
    "core.query": (
        "repro.core.she_cm:SheCountMin.frequency_many",
        "repro.core.she_bf:SheBloomFilter.contains_many",
        "repro.core.she_hll:SheHyperLogLog.cardinality",
        "repro.core.she_bm:SheBitmap.cardinality",
    ),
    "checkpoint.save": ("repro.service.checkpoint:save_checkpoint",),
    "checkpoint.recover": ("repro.service.checkpoint:recover_engine",),
}

#: layers reported with the four standard ledger columns
SPAN_LAYERS = (
    "hashing", "sharding", "engine.ingest", "wal.append", "executor.flush",
    "core.insert", "executor.snapshot", "merge", "core.query",
)
SPAN_COLUMNS = (("calls", "count"), ("items", "count"), ("self_s", "s"), ("share", "fraction"))


def _size(x) -> int:
    return int(np.size(x))


def _batch_items(batches) -> int:
    return sum(int(np.size(b[1])) for b in batches)


# how many items one call of each target carries, from its arguments
# (``args[0]`` is ``self`` for methods)
_ITEMS = {
    "HashFamily.indices": lambda a: _size(a[1]),
    "shard_ids": lambda a: _size(a[0]),
    "StreamEngine.ingest": lambda a: _size(a[1]),
    "WriteAheadLog.append": lambda a: _size(a[2]),
    "SerialExecutor.flush_many": lambda a: _batch_items(a[1]),
    "ProcessExecutor.flush_many": lambda a: _batch_items(a[1]),
    "SheSketchBase.insert_at": lambda a: _size(a[1]),
    "SerialExecutor.snapshot": lambda a: 1,
    "ProcessExecutor.snapshots": lambda a: a[0].num_shards,
    "merge_many": lambda a: len(a[0]),
    "SheCountMin.frequency_many": lambda a: _size(a[1]),
    "SheBloomFilter.contains_many": lambda a: _size(a[1]),
}


def _resolve(target: str):
    """``(owner, attribute name, original)`` of ``"module:Qual.name"``."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Ledger:
    """Span recorder plus the side counters measured at the same calls.

    Spans are recorded only while :attr:`active` is set and only in the
    process that created the ledger: forked executor workers inherit the
    patched entry points but not the recording, so worker-side apply
    stays inside the parent's ``executor.flush`` spans.
    """

    def __init__(self, targets: dict[str, tuple[str, ...]] = LAYER_TARGETS):
        self.targets = targets
        self.enabled = False
        self.active = False
        self.unresolved: dict[str, str] = {}
        self._pid = os.getpid()
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.name: list[str] = []
        self.parent: list[int] = []
        self.root: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.items: list[int] = []
        self.wall_s = 0.0
        self.shard_items: np.ndarray | None = None
        self.wal_bytes = 0
        self.flush_batches = 0
        self.bytes_moved = 0

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, items: int = 0) -> int:
        i = len(self.name)
        parent = self._stack[-1] if self._stack else -1
        self.name.append(name)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else i)
        self.items.append(items)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def recording(self) -> bool:
        return self.enabled and self.active and os.getpid() == self._pid

    @contextmanager
    def measured(self):
        """A phase whose spans count: its wall time is the denominator
        of every layer's ``share``."""
        self.active = True
        started = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - started
            self.active = False

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> "Ledger":
        """Wrap every target; a layer with any unresolvable target is
        left unwrapped and recorded as unresolved."""
        self.enabled = True
        for layer, targets in self.targets.items():
            try:
                resolved = [(t, *_resolve(t)) for t in targets]
            except (ImportError, AttributeError, ValueError) as exc:
                self.unresolved[layer] = f"{type(exc).__name__}: {exc}"
                continue
            for target, owner, attr, original in resolved:
                wrapper = self._wrap(layer, target.split(":")[1], original)
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self.enabled = False

    def _wrap(self, layer: str, qualname: str, fn):
        items_of = _ITEMS.get(qualname, lambda a: 1)
        side = {
            "shard_ids": self._count_shards,
            "SerialExecutor.flush_many": self._count_flush,
            "ProcessExecutor.flush_many": self._count_flush,
        }.get(qualname)
        ledger = self

        if qualname == "WriteAheadLog.append":
            def wrapper(*args, **kwargs):
                if not ledger.recording():
                    return fn(*args, **kwargs)
                before = args[0].total_bytes
                i = ledger.open(layer, items_of(args))
                try:
                    return fn(*args, **kwargs)
                finally:
                    ledger.close(i)
                    ledger.wal_bytes += args[0].total_bytes - before
        else:
            def wrapper(*args, **kwargs):
                if not ledger.recording():
                    return fn(*args, **kwargs)
                i = ledger.open(layer, items_of(args))
                try:
                    out = fn(*args, **kwargs)
                finally:
                    ledger.close(i)
                if side is not None:
                    side(args, out)
                return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    def _count_shards(self, args, sids) -> None:
        # one workload, one shard count: every call bins into args[1]
        counts = np.bincount(sids, minlength=int(args[1]))
        if self.shard_items is None:
            self.shard_items = counts
        else:
            self.shard_items += counts

    def _count_flush(self, args, _out) -> None:
        for batch in args[1]:
            self.flush_batches += 1
            self.bytes_moved += int(np.asarray(batch[1]).nbytes)
            self.bytes_moved += int(np.asarray(batch[2]).nbytes)

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> np.ndarray:
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        child = np.zeros_like(dur)
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def durations(self, name: str) -> list[float]:
        return [
            e - s for n, s, e in zip(self.name, self.start, self.end)
            if n == name
        ]

    def layer_metrics(self) -> dict[str, float | None]:
        """``<layer>.calls/.items/.self_s/.share`` plus the side counters;
        ``None`` marks a metric of an unresolved layer."""
        self_s = self.self_times() if self.name else np.zeros(0)
        names = np.asarray(self.name)
        items = np.asarray(self.items, dtype=np.int64)
        out: dict[str, float | None] = {}
        for layer in SPAN_LAYERS:
            if layer in self.unresolved:
                for col, _unit in SPAN_COLUMNS:
                    out[f"{layer}.{col}"] = None
                continue
            mask = names == layer
            busy = float(self_s[mask].sum()) if mask.any() else 0.0
            out[f"{layer}.calls"] = int(mask.sum())
            out[f"{layer}.items"] = int(items[mask].sum()) if mask.any() else 0
            out[f"{layer}.self_s"] = busy
            out[f"{layer}.share"] = busy / self.wall_s if self.wall_s else 0.0
        shards = self.shard_items
        out["sharding.skew"] = (
            None if "sharding" in self.unresolved
            else float(shards.max() / shards.mean())
            if shards is not None and shards.sum() else 0.0
        )
        out["wal.bytes"] = (
            None if "wal.append" in self.unresolved else self.wal_bytes
        )
        flushed = out.get("executor.flush.items")
        out["executor.flush.items_per_batch"] = (
            None if "executor.flush" in self.unresolved
            else flushed / self.flush_batches if self.flush_batches else 0.0
        )
        out["executor.bytes_moved"] = (
            None if "executor.flush" in self.unresolved else self.bytes_moved
        )
        for layer, metric in (
            ("checkpoint.save", "checkpoint.save_s"),
            ("checkpoint.recover", "checkpoint.recover_s"),
        ):
            durs = self.durations(layer)
            out[metric] = (
                None if layer in self.unresolved
                else float(np.median(durs)) if durs else 0.0
            )
        return out

    def write(self, path: Path) -> None:
        """Dump every span, columnar: times in microseconds from the
        first span, ``parent``/``root`` as span indices (-1: none)."""
        t0 = self.start[0] if self.start else 0.0
        payload = {
            "columns": ["name", "parent", "root", "start_us", "dur_us", "items"],
            "unresolved": self.unresolved,
            "spans": [
                [n, p, r, round((s - t0) * 1e6, 1), round((e - s) * 1e6, 1), k]
                for n, p, r, s, e, k in zip(
                    self.name, self.parent, self.root,
                    self.start, self.end, self.items,
                )
            ],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))
