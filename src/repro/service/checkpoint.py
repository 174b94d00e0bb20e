"""Atomic multi-shard checkpoints and crash recovery for the engine.

Layout under the checkpoint directory::

    ckpt-00000003/
        shard-00.npz     # one atomic .npz per shard (persist.save_sketch)
        ...
        MANIFEST.json    # engine config + clocks; written LAST

A checkpoint is staged in a hidden temp directory, shard files first,
manifest last, then published with one ``os.replace`` of the directory
— so a crash at any instant leaves either no trace of the attempt or a
complete, loadable checkpoint.  Recovery scans for the *newest complete*
checkpoint (manifest present, every listed shard file present) and
rebuilds the engine; torn attempts and stale temp directories are
ignored and eventually pruned.

``Checkpointer`` adds the periodic policy: call :meth:`maybe` from the
ingest loop and it checkpoints every ``interval_items`` ingested items
and/or ``interval_s`` seconds, keeping the newest ``keep`` checkpoints.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.common.validation import require_positive_int
from repro.service.engine import EngineConfig, StreamEngine
from repro.service.errors import CheckpointCorruptionError
from repro.service.wal import WalPosition, checksum, verify_checksum

__all__ = [
    "Checkpointer",
    "save_checkpoint",
    "latest_checkpoint",
    "prune_checkpoints",
    "recover_engine",
    "read_manifest",
    "load_checkpoint_shard",
    "verify_checkpoint",
]

_MANIFEST = "MANIFEST.json"
_PREFIX = "ckpt-"
_FORMAT_VERSION = 1


def _shard_name(shard_id: int) -> str:
    return f"shard-{shard_id:02d}.npz"


def _fsync_dir(path: Path) -> None:
    """Flush a directory's metadata (entry renames) to stable storage.

    Best-effort on platforms whose directories cannot be opened or
    fsynced (Windows); the data files themselves are already synced.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def save_checkpoint(engine: StreamEngine, directory: str | Path) -> Path:
    """Persist every shard plus a manifest; returns the published path.

    The engine's buffers are drained and its shards clock-aligned first,
    so the checkpoint is a consistent cut of the stream at ``now()``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    engine._sync()

    seq = _next_seq(directory)
    final = directory / f"{_PREFIX}{seq:08d}"
    staging = Path(
        tempfile.mkdtemp(dir=directory, prefix=f".{_PREFIX}{seq:08d}.")
    )
    try:
        shard_files = []
        for s in range(engine.num_shards):
            name = _shard_name(s)
            engine._exec.checkpoint(s, staging / name)
            shard_files.append(name)
        # integrity record: size + checksum of every shard file as
        # written, so recovery *detects* bit rot / truncation instead of
        # trusting whatever load_sketch makes of the bytes
        shard_meta = []
        for name in shard_files:
            data = (staging / name).read_bytes()
            crc, variant = checksum(data)
            shard_meta.append(
                {"name": name, "bytes": len(data), "crc": crc,
                 "crc_variant": variant}
            )
        manifest = {
            "format": _FORMAT_VERSION,
            "seq": seq,
            # versioned registry identity: the kind string plus the
            # persisted class name the shard archives carry, so a reader
            # can tell what must be registered before recovery (absent
            # from pre-registry checkpoints, which still load)
            "algorithm": {
                "kind": engine.config.kind,
                "class_name": engine.config.descriptor().class_name,
            },
            "config": engine.config.to_json(),
            "clock": list(engine._t),
            "shards": shard_files,
            "shard_meta": shard_meta,
            "created_unix": time.time(),
        }
        wal = getattr(engine, "_wal", None)
        if wal is not None:
            # sync first: the recorded position must never exceed the
            # durable horizon, or a power cut right after publishing
            # would leave a checkpoint pointing past the surviving log
            wal.sync()
            manifest["wal"] = {
                "position": [int(x) for x in wal.position()],
                "fsync": wal.fsync_policy,
            }
        body = json.dumps(manifest, sort_keys=True).encode()
        crc, variant = checksum(body)
        manifest["manifest_crc"] = {"crc": crc, "variant": variant}
        tmp_manifest = staging / (_MANIFEST + ".tmp")
        tmp_manifest.write_text(json.dumps(manifest, indent=2))
        os.replace(tmp_manifest, staging / _MANIFEST)
        # shard files and manifest contents are fsynced individually
        # (persist.py), but the *renames* live in directory metadata:
        # fsync the staging dir so its entries are durable before the
        # publish, then the parent so the publish rename itself is —
        # otherwise a power cut can forget a checkpoint that
        # prune_checkpoints already treated as the newest
        _fsync_dir(staging)
        os.replace(staging, final)
        _fsync_dir(directory)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    engine.stats.record_checkpoint()
    supervisor = getattr(engine, "_supervisor", None)
    if supervisor is not None:
        # everything flushed so far is durable: this cut becomes the
        # replay base and the restart breaker refills
        supervisor.on_checkpoint(final)
    return final


def read_manifest(path: str | Path) -> dict:
    """The manifest of one checkpoint directory.

    Raises if it is unreadable, and :class:`CheckpointCorruptionError`
    when it fails its self-checksum (a bit flip that still parses).
    """
    meta = json.loads((Path(path) / _MANIFEST).read_text())
    if not _manifest_crc_ok(meta):
        raise CheckpointCorruptionError(
            f"{path}: manifest failed its self-checksum"
        )
    return meta


def load_checkpoint_shard(path: str | Path, shard_id: int):
    """Load a single shard's sketch from one checkpoint directory.

    The supervisor rebuilds one worker at a time; loading only its
    shards keeps recovery cost proportional to the failure, not the
    fleet.
    """
    from repro.persist import load_sketch

    path = Path(path)
    names = read_manifest(path)["shards"]
    if not 0 <= shard_id < len(names):
        raise ValueError(
            f"checkpoint {path} has {len(names)} shards, no shard {shard_id}"
        )
    return load_sketch(path / names[shard_id])


def _next_seq(directory: Path) -> int:
    seqs = [
        int(p.name[len(_PREFIX):])
        for p in directory.iterdir()
        if p.is_dir() and p.name.startswith(_PREFIX) and p.name[len(_PREFIX):].isdigit()
    ]
    return max(seqs, default=-1) + 1


def _manifest_crc_ok(meta: dict) -> bool:
    """Self-checksum check; vacuously true for pre-durability manifests.

    The checksum covers the sorted-keys JSON dump of every field except
    ``manifest_crc`` itself; json round-trips ints and floats exactly,
    so re-serialising the loaded dict reproduces the hashed bytes.
    """
    rec = meta.get("manifest_crc")
    if rec is None:
        return True
    try:
        body = {k: v for k, v in meta.items() if k != "manifest_crc"}
        return verify_checksum(
            json.dumps(body, sort_keys=True).encode(),
            int(rec["crc"]),
            int(rec["variant"]),
        )
    except Exception:
        return False


def _is_complete(path: Path) -> bool:
    """Cheap completeness scan: manifest readable and self-consistent,
    every shard file present at its recorded size.  Full checksums are
    :func:`verify_checkpoint`'s job (this runs inside directory scans).
    """
    manifest = path / _MANIFEST
    if not manifest.is_file():
        return False
    try:
        meta = json.loads(manifest.read_text())
    except (OSError, json.JSONDecodeError):
        return False
    if meta.get("format") != _FORMAT_VERSION:
        return False
    if not _manifest_crc_ok(meta):
        return False
    sizes = {
        m.get("name"): m.get("bytes") for m in meta.get("shard_meta", [])
    }
    for name in meta.get("shards", []):
        f = path / name
        if not f.is_file():
            return False
        # a truncated shard file must make the checkpoint invisible to
        # recovery scans, not blow up (or worse, load) later
        if name in sizes and f.stat().st_size != sizes[name]:
            return False
    return True


def verify_checkpoint(path: str | Path) -> dict:
    """Affirmative integrity check of one checkpoint directory.

    Verifies the manifest self-checksum and every shard file's recorded
    size and checksum; returns the manifest on success.  Pre-durability
    checkpoints (no ``shard_meta``) only get existence checks — they
    carry nothing stronger to verify against.

    Raises:
        CheckpointCorruptionError: naming the first damaged file.
    """
    path = Path(path)
    try:
        meta = read_manifest(path)
    except CheckpointCorruptionError:
        raise
    except Exception as exc:
        raise CheckpointCorruptionError(
            f"{path}: manifest unreadable ({exc})"
        ) from exc
    recorded = {m["name"]: m for m in meta.get("shard_meta", [])}
    for name in meta.get("shards", []):
        f = path / name
        if not f.is_file():
            raise CheckpointCorruptionError(f"{path}: missing shard {name}")
        m = recorded.get(name)
        if m is None:
            continue
        data = f.read_bytes()
        if len(data) != int(m["bytes"]):
            raise CheckpointCorruptionError(
                f"{path}: shard {name} is {len(data)} bytes, "
                f"manifest recorded {m['bytes']} — truncated"
            )
        if not verify_checksum(data, int(m["crc"]), int(m["crc_variant"])):
            raise CheckpointCorruptionError(
                f"{path}: shard {name} failed its checksum — bit rot or "
                "a torn write survived the size check"
            )
    return meta


def latest_checkpoint(directory: str | Path) -> Path | None:
    """Newest *complete* checkpoint under ``directory`` (None if none)."""
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates = sorted(
        (
            p
            for p in directory.iterdir()
            if p.is_dir() and p.name.startswith(_PREFIX)
        ),
        reverse=True,
    )
    for path in candidates:
        if _is_complete(path):
            return path
    return None


def recover_engine(
    directory: str | Path,
    *,
    executor="serial",
    num_workers: int | None = None,
    replay_wal: bool = True,
) -> StreamEngine:
    """Rebuild the engine from the newest *loadable* checkpoint, then
    replay its WAL suffix.

    A checkpoint whose shard files turn out to be corrupt (bit rot,
    torn storage, injected chaos) is skipped in favour of the next
    older complete one — a stale base beats no base, and because every
    older checkpoint records an older WAL position, the replay suffix
    grows to cover exactly the difference: recovery from an older base
    loses nothing.

    When the checkpoint records a WAL position (the engine ran with
    ``wal_dir``), the log suffix is replayed into every shard by
    ``StreamEngine._replay`` — the stamp and partition code ingest
    runs — and the engine clock moves past it.  The recovered engine is
    bit-identical to one that never crashed (up to the durable horizon
    of the configured fsync policy), except under ``shed_oldest``:
    evictions are not durable, so items shed after they were logged
    are replayed.
    ``replay_wal=False`` skips that and *truncates* the log at the
    checkpoint's position instead, explicitly discarding the suffix, so
    the log never disagrees with the state that was restored.

    Raises:
        FileNotFoundError: no complete checkpoint exists at all.
        CheckpointCorruptionError: checkpoints exist but every one
            failed integrity verification — corruption is surfaced,
            never silently ingested.
        WalCorruptionError: the checkpoint base loaded but its WAL
            suffix is damaged mid-log (torn tails are fine); an older
            base cannot help, it needs even more of the same log.
    """
    directory = Path(directory)
    # local import: persist -> core only, but keep engine import-light
    from repro.persist import load_sketch

    candidates = sorted(
        (
            p
            for p in directory.iterdir()
            if p.is_dir() and p.name.startswith(_PREFIX)
        ),
        reverse=True,
    ) if directory.is_dir() else []
    corruption: list[str] = []
    saw_candidate = False
    for path in candidates:
        if not (path / _MANIFEST).is_file():
            continue  # torn staging attempt, never published
        saw_candidate = True
        try:
            meta = verify_checkpoint(path)
        except CheckpointCorruptionError as exc:
            corruption.append(str(exc))
            continue  # fall back to the next older checkpoint
        if meta.get("format") != _FORMAT_VERSION:
            continue
        kind = meta.get("algorithm", {}).get("kind") or meta.get(
            "config", {}
        ).get("kind")
        if kind is not None:
            # an unregistered algorithm is an environment problem, not
            # checkpoint corruption: say so instead of skipping to an
            # older (equally unloadable) checkpoint
            from repro.core.registry import get_descriptor

            get_descriptor(kind)
        try:
            shards = [load_sketch(path / name) for name in meta["shards"]]
        except Exception as exc:
            # pre-durability checkpoints have no checksums to flag this
            # earlier; count it as corruption and fall back
            corruption.append(f"{path}: shard load failed ({exc})")
            continue
        config = EngineConfig.from_json(meta["config"])
        engine = StreamEngine(
            config,
            executor=executor,
            num_workers=num_workers,
            _shards=shards,
            _clock_state=[int(t) for t in meta["clock"]],
        )
        engine.stats.recovered_from = str(path)
        wal_meta = meta.get("wal")
        if engine._wal is not None and wal_meta is not None:
            position = WalPosition(*(int(x) for x in wal_meta["position"]))
            if replay_wal:
                engine._t, items, batches = engine._replay(
                    position, engine._t, range(config.num_shards)
                )
                engine.stats.record_replay(items, batches)
            else:
                engine._wal.truncate_to(position)
        return engine
    if corruption:
        raise CheckpointCorruptionError(
            f"no loadable checkpoint under {directory!s}; corruption "
            "detected: " + "; ".join(corruption)
        )
    raise FileNotFoundError(
        f"no complete, loadable checkpoint under {directory!s}"
    )


def prune_checkpoints(directory: str | Path, keep: int) -> list[Path]:
    """Delete all but the ``keep`` newest complete checkpoints.

    Torn attempts (incomplete directories) older than the newest
    complete checkpoint are removed too.  Returns the deleted paths.
    """
    require_positive_int("keep", keep)
    directory = Path(directory)
    if not directory.is_dir():
        return []
    entries = sorted(
        (p for p in directory.iterdir() if p.is_dir() and p.name.startswith(_PREFIX)),
        reverse=True,
    )
    complete = [p for p in entries if _is_complete(p)]
    keep_set = set(complete[:keep])
    newest = complete[0].name if complete else None
    deleted = []
    for p in entries:
        torn = p not in set(complete)
        if p in keep_set:
            continue
        if torn and (newest is None or p.name > newest):
            continue  # possibly a checkpoint being written right now
        # manifest first: a concurrent latest_checkpoint/recover scan
        # that races this deletion sees a manifest-less directory (a
        # torn attempt, skipped) instead of a manifest whose shard
        # files are vanishing under it
        try:
            (p / _MANIFEST).unlink(missing_ok=True)
        except OSError:
            pass
        shutil.rmtree(p, ignore_errors=True)
        deleted.append(p)
    return deleted


class Checkpointer:
    """Periodic checkpoint policy bound to one engine and directory.

    Args:
        engine: the engine to checkpoint.
        directory: where checkpoints live.
        interval_items: checkpoint after this many newly ingested items.
        interval_s: and/or after this much wall time.
        keep: retain this many complete checkpoints.
    """

    def __init__(
        self,
        engine: StreamEngine,
        directory: str | Path,
        *,
        interval_items: int | None = None,
        interval_s: float | None = None,
        keep: int = 3,
    ):
        if interval_items is None and interval_s is None:
            raise ValueError("set interval_items and/or interval_s")
        if interval_items is not None:
            require_positive_int("interval_items", interval_items)
        self.engine = engine
        self.directory = Path(directory)
        self.interval_items = interval_items
        self.interval_s = interval_s
        self.keep = require_positive_int("keep", keep)
        self._clock = engine._clock
        self._last_time = self._clock()
        self._last_items = engine.stats.items_ingested

    def due(self) -> bool:
        if (
            self.interval_items is not None
            and self.engine.stats.items_ingested - self._last_items >= self.interval_items
        ):
            return True
        return (
            self.interval_s is not None
            and self._clock() - self._last_time >= self.interval_s
        )

    def maybe(self) -> Path | None:
        """Checkpoint if due; returns the new path or None."""
        if not self.due():
            return None
        return self.save()

    def save(self) -> Path:
        """Checkpoint unconditionally, prune old ones, and trim the WAL.

        WAL segments are pruned to the *oldest* position any retained
        checkpoint records: every checkpoint an operator could still
        fall back to keeps its full replay suffix.  A retained
        checkpoint without a WAL position (taken before the WAL was
        enabled) pins the whole log.
        """
        path = save_checkpoint(self.engine, self.directory)
        self._last_time = self._clock()
        self._last_items = self.engine.stats.items_ingested
        prune_checkpoints(self.directory, self.keep)
        wal = getattr(self.engine, "_wal", None)
        if wal is not None:
            positions = []
            for p in sorted(self.directory.iterdir()):
                if not (p.is_dir() and p.name.startswith(_PREFIX)):
                    continue
                if not _is_complete(p):
                    continue
                try:
                    wal_meta = read_manifest(p).get("wal")
                except Exception:
                    wal_meta = None
                if wal_meta is None:
                    positions = None  # pre-WAL checkpoint pins everything
                    break
                positions.append(
                    WalPosition(*(int(x) for x in wal_meta["position"]))
                )
            if positions:
                wal.prune_to(min(positions))
        return path
