"""Durable ingestion write-ahead log: segmented, checksummed, replayable.

The engine's suffix source.  ``StreamEngine`` appends every *admitted*
ingest batch to its log **after** admission control but **before** the
batch is stamped with union-stream times, and
``StreamEngine._replay`` rebuilds shards from a checkpoint plus the
log's suffix by re-running that stamping and partitioning.  The log
has two backends with one record shape, ``(side, keys)``:

* :class:`WriteAheadLog` — on disk, when ``EngineConfig(wal_dir=...)``
  is set; it serves both a supervisor's worker restarts and
  ``recover_engine`` after a process crash;
* :class:`MemoryLog` — bounded and in memory, attached by a
  ``Supervisor`` to engines without a WAL; it serves worker restarts
  only and lasts until the next checkpoint.

The append-before-stamp ordering is what makes replay exact:

* rejected and turned-away arrivals (``raise`` / ``shed_newest``)
  never reach the log, so a replayed stream is precisely the admitted
  stream.  ``shed_oldest`` evicts buffered items
  *after* they were logged; the engine records those evictions for
  worker replay, but they are not durable, so ``recover_engine`` under
  ``shed_oldest`` replays them;
* stamping happens only if the append succeeded, so a batch that could
  not be made durable never consumes clock ticks — the caller can back
  off and retry exactly as with the ``raise`` overload policy.

On-disk format (all integers little-endian)::

    wal-00000001.log
    ├── 16-byte segment header: 8-byte magic "SHEWAL01"
    │                           + u8 crc variant (0=zlib.crc32, 1=crc32c)
    │                           + 7 reserved zero bytes
    └── records, back to back:
        4-byte record magic + u32 payload_len + u32 crc(payload)
        + payload (u8 side + keys as little-endian uint64)

Segments rotate at ``segment_max_bytes`` and are pruned only under
checkpoint coordination (:meth:`WriteAheadLog.prune_to` from
``Checkpointer.save``): a segment is deleted once *every retained
checkpoint* records a WAL position past it, so fallback-to-older
recovery always finds the suffix it needs.

Failure semantics, the whole point of the module:

* **Torn tail** (power cut / SIGKILL mid-append): opening the log
  truncates the final segment at the first record that fails its CRC
  or runs past end-of-file — those bytes were never acknowledged as
  durable, dropping them is correct.
* **Mid-log corruption** (bit rot, a bad disk): a record that fails its
  CRC *with valid records after it* is not a torn write.  That raises
  :class:`~repro.service.errors.WalCorruptionError` — silently skipping
  it would replay a stream the engine never admitted.
* **fsync policy** — ``"always"`` fsyncs every append (no admitted item
  is ever lost), ``"interval"`` fsyncs at most every
  ``fsync_interval_s`` (bounded loss window), ``"off"`` leaves
  durability to the OS page cache.  :meth:`durable_position` tracks the
  last fsynced byte; :meth:`simulate_crash` (tests, chaos) truncates to
  exactly that horizon, the worst outcome a real power cut can produce.

Writes are unbuffered (``open(..., buffering=0)``): one ``write(2)``
per record, so a SIGKILL without power loss never loses an appended
record — only the fsync policy decides what a power cut can take.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from repro.common.validation import require_positive_int
from repro.obs import NULL_REGISTRY
from repro.service.errors import WalCorruptionError, WalWriteError

__all__ = [
    "WAL_FSYNC_POLICIES",
    "MemoryLog",
    "WalPosition",
    "WriteAheadLog",
    "iter_records",
    "verify_wal",
    "inspect_wal",
    "checksum",
    "verify_checksum",
]

#: when the engine fsyncs the log: every append / at most every
#: ``fsync_interval_s`` / never (OS page cache only)
WAL_FSYNC_POLICIES = ("always", "interval", "off")

_SEG_MAGIC = b"SHEWAL01"
_SEG_HEADER_LEN = 16
_REC_MAGIC = b"\xf1\x57\xc0\xde"
_REC_HEADER = struct.Struct("<II")  # payload_len, crc32(payload)
_REC_HEADER_LEN = len(_REC_MAGIC) + _REC_HEADER.size
_SEG_GLOB = "wal-*.log"

# CRC32C (Castagnoli) when the optional accelerated module is present,
# plain zlib.crc32 otherwise.  The variant byte in every segment header
# (and in checkpoint manifests) records which function *wrote* the
# checksums, so a reader on a different machine picks the same one.
CRC_VARIANT_ZLIB = 0
CRC_VARIANT_CRC32C = 1
try:  # pragma: no cover - depends on the environment
    from crc32c import crc32c as _crc32c

    _DEFAULT_VARIANT = CRC_VARIANT_CRC32C
except ImportError:  # pragma: no cover
    _crc32c = None
    _DEFAULT_VARIANT = CRC_VARIANT_ZLIB


def _crc_fn(variant: int):
    if variant == CRC_VARIANT_ZLIB:
        return zlib.crc32
    if variant == CRC_VARIANT_CRC32C:
        if _crc32c is None:
            raise WalCorruptionError(
                "log was written with crc32c checksums but the crc32c "
                "module is not installed in this environment"
            )
        return _crc32c
    raise WalCorruptionError(f"unknown crc variant {variant}")


def checksum(data: bytes, variant: int | None = None) -> tuple[int, int]:
    """``(crc, variant)`` of ``data`` using the preferred local variant."""
    variant = _DEFAULT_VARIANT if variant is None else variant
    return _crc_fn(variant)(data) & 0xFFFFFFFF, variant


def verify_checksum(data: bytes, crc: int, variant: int) -> bool:
    """Does ``data`` hash to ``crc`` under ``variant``?"""
    return (_crc_fn(variant)(data) & 0xFFFFFFFF) == (crc & 0xFFFFFFFF)


class WalPosition(NamedTuple):
    """A byte position in the log: (segment seq, offset *after* a record).

    Tuple ordering is the log ordering — segment first, then offset —
    so positions compare correctly across rotations.
    """

    segment: int
    offset: int


def _segment_name(seq: int) -> str:
    return f"wal-{seq:08d}.log"


def _list_segments(directory: Path) -> list[tuple[int, Path]]:
    out = []
    for p in directory.glob(_SEG_GLOB):
        stem = p.name[len("wal-"):-len(".log")]
        if stem.isdigit():
            out.append((int(stem), p))
    out.sort()
    return out


class _BadRecord(Exception):
    """Internal: a record failed to parse at ``offset`` (torn or rotten)."""

    def __init__(self, offset: int, reason: str):
        super().__init__(reason)
        self.offset = offset
        self.reason = reason


def _parse_record(buf: bytes, off: int, crc_fn) -> tuple[int, int, bytes]:
    """Parse one record at ``off``; returns (end_offset, side, key_bytes)."""
    if off + _REC_HEADER_LEN > len(buf):
        raise _BadRecord(off, "short record header")
    if buf[off:off + 4] != _REC_MAGIC:
        raise _BadRecord(off, "bad record magic")
    length, crc = _REC_HEADER.unpack_from(buf, off + 4)
    # payload = 1 side byte + whole uint64 keys
    if length < 1 or (length - 1) % 8:
        raise _BadRecord(off, f"implausible payload length {length}")
    end = off + _REC_HEADER_LEN + length
    if end > len(buf):
        raise _BadRecord(off, "record runs past end of segment")
    payload = buf[off + _REC_HEADER_LEN:end]
    if (crc_fn(payload) & 0xFFFFFFFF) != crc:
        raise _BadRecord(off, "payload checksum mismatch")
    return end, payload[0], payload[1:]


def _valid_record_after(buf: bytes, pos: int, crc_fn) -> bool:
    """Is there any fully valid record past ``pos``?  Distinguishes a
    torn tail (nothing valid follows — safe to truncate) from mid-log
    corruption (valid data follows — truncating would drop admitted
    items)."""
    search = pos + 1
    while True:
        i = buf.find(_REC_MAGIC, search)
        if i < 0:
            return False
        try:
            _parse_record(buf, i, crc_fn)
            return True
        except _BadRecord:
            search = i + 1


def _read_segment_header(buf: bytes, path: Path) -> int:
    """Validate the header; returns the crc variant byte."""
    if len(buf) < _SEG_HEADER_LEN or buf[:len(_SEG_MAGIC)] != _SEG_MAGIC:
        raise WalCorruptionError(f"{path}: bad or short segment header")
    return buf[len(_SEG_MAGIC)]


def _scan_segment(
    path: Path, *, final: bool, start_offset: int | None = None
) -> tuple[list[tuple[int, int, bytes]], int, str | None]:
    """Parse a segment's records from ``start_offset`` (header end when
    None).  Returns ``(records, end_of_valid_data, torn_reason)`` where
    each record is ``(end_offset, side, key_bytes)``.

    Only the *final* segment of a log may legally end mid-record (a
    torn append); anywhere else a parse failure is corruption and
    raises :class:`WalCorruptionError`.
    """
    buf = path.read_bytes()
    variant = _read_segment_header(buf, path)
    crc_fn = _crc_fn(variant)
    off = _SEG_HEADER_LEN if start_offset is None else start_offset
    if off > len(buf):
        raise WalCorruptionError(
            f"{path}: recorded position {off} is past the segment "
            f"end ({len(buf)} bytes) — the segment was truncated"
        )
    records: list[tuple[int, int, bytes]] = []
    while off < len(buf):
        try:
            end, side, key_bytes = _parse_record(buf, off, crc_fn)
        except _BadRecord as bad:
            if final and not _valid_record_after(buf, bad.offset, crc_fn):
                return records, off, bad.reason  # torn tail: drop it
            raise WalCorruptionError(
                f"{path}: corrupt record at byte {bad.offset} "
                f"({bad.reason}) with valid data after it — this is "
                "bit rot, not a torn write; refusing to replay past it"
            ) from None
        records.append((end, side, key_bytes))
        off = end
    return records, off, None


class WriteAheadLog:
    """Append-only durable log of admitted ingest batches.

    Args:
        directory: where segments live (created if missing).
        fsync: one of :data:`WAL_FSYNC_POLICIES`.
        fsync_interval_s: max staleness for the ``"interval"`` policy.
        segment_max_bytes: rotate to a new segment past this size.
        clock: injectable monotonic clock (tests pin it).
        registry: a :class:`repro.obs.Registry` for the ``engine_wal_*``
            metrics; None keeps them on no-op stand-ins.

    Opening an existing directory recovers the tail: the final segment
    is scanned and truncated at the first torn record.  Mid-log
    corruption in the final segment raises
    :class:`~repro.service.errors.WalCorruptionError` immediately;
    earlier segments are verified when they are read
    (:func:`iter_records` / :func:`verify_wal`).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: str = "always",
        fsync_interval_s: float = 1.0,
        segment_max_bytes: int = 64 * 1024 * 1024,
        clock=time.monotonic,
        registry=None,
    ):
        if fsync not in WAL_FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {WAL_FSYNC_POLICIES}, got {fsync!r}"
            )
        if fsync_interval_s <= 0:
            raise ValueError(
                f"fsync_interval_s must be positive, got {fsync_interval_s}"
            )
        if segment_max_bytes < _SEG_HEADER_LEN + _REC_HEADER_LEN + 9:
            raise ValueError(
                f"segment_max_bytes {segment_max_bytes} cannot hold a record"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync
        self.fsync_interval_s = float(fsync_interval_s)
        self.segment_max_bytes = int(segment_max_bytes)
        self._clock = clock
        self._variant = _DEFAULT_VARIANT
        self._crc = _crc_fn(self._variant)
        reg = registry if registry is not None else NULL_REGISTRY
        self._m_appends = reg.counter(
            "engine_wal_appends_total", "Batches appended to the WAL"
        )
        self._m_fsyncs = reg.counter(
            "engine_wal_fsyncs_total", "fsync calls issued by the WAL"
        )
        self._g_bytes = reg.gauge(
            "engine_wal_bytes", "Total bytes across live WAL segments"
        )
        self._g_lag = reg.gauge(
            "engine_wal_lag_items",
            "Appended items not yet covered by an fsync",
        )
        self.appends = 0
        self.fsyncs = 0
        self.torn_bytes_dropped = 0
        self.last_error: str | None = None
        self._pending_items = 0
        self._total_bytes = 0
        self._closed = False
        self._fh = None
        self._recover_tail()

    # -- open / tail recovery ------------------------------------------------

    def _segments(self) -> list[tuple[int, Path]]:
        return _list_segments(self.directory)

    def _recover_tail(self) -> None:
        for p in self.directory.glob("*.tmp"):  # torn segment creations
            p.unlink(missing_ok=True)
        segments = self._segments()
        if not segments:
            self._seg = 1
            self._offset = _SEG_HEADER_LEN
            self._create_segment(self._seg)
        else:
            self._seg, last = segments[-1]
            _records, valid_end, torn = _scan_segment(last, final=True)
            size = last.stat().st_size
            if valid_end < size:
                self.torn_bytes_dropped = size - valid_end
                with open(last, "rb+") as f:
                    f.truncate(valid_end)
                    f.flush()
                    os.fsync(f.fileno())
            self._offset = valid_end
            self._fh = open(last, "ab", buffering=0)
        # everything on disk at open is as durable as it will ever be
        self._durable = WalPosition(self._seg, self._offset)
        self._last_sync = self._clock()
        self._refresh_sizes()

    def _create_segment(self, seq: int) -> None:
        path = self.directory / _segment_name(seq)
        tmp = path.with_suffix(".log.tmp")
        header = _SEG_MAGIC + bytes([self._variant]) + b"\x00" * 7
        with open(tmp, "wb") as f:
            f.write(header)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)  # a segment either exists whole or not at all
        _fsync_dir(self.directory)
        self._fh = open(path, "ab", buffering=0)
        self._offset = _SEG_HEADER_LEN

    def _refresh_sizes(self) -> None:
        self._total_bytes = sum(p.stat().st_size for _s, p in self._segments())
        self._g_bytes.set(self._total_bytes)

    # -- write path ----------------------------------------------------------

    def append(self, side: int, keys: np.ndarray) -> WalPosition:
        """Append one admitted batch; returns the position after it.

        Raises :class:`~repro.service.errors.WalWriteError` (and records
        :attr:`last_error` for ``/healthz``) when the OS rejects the
        write or a policy-mandated fsync — the caller must treat the
        batch as not ingested.
        """
        if self._closed:
            raise WalWriteError("write-ahead log is closed")
        arr = np.ascontiguousarray(keys, dtype="<u8")
        payload = bytes([side]) + arr.tobytes()
        record = (
            _REC_MAGIC
            + _REC_HEADER.pack(len(payload), self._crc(payload) & 0xFFFFFFFF)
            + payload
        )
        if (
            self._offset + len(record) > self.segment_max_bytes
            and self._offset > _SEG_HEADER_LEN
        ):
            self._rotate()
        try:
            self._fh.write(record)
        except OSError as exc:
            self.last_error = f"append failed: {exc}"
            raise WalWriteError(
                f"WAL append of {arr.size} items failed: {exc}"
            ) from exc
        self._offset += len(record)
        self._total_bytes += len(record)
        self._pending_items += int(arr.size)
        self.appends += 1
        self._m_appends.inc()
        self._g_bytes.set(self._total_bytes)
        if self.fsync_policy == "always":
            self.sync()
        elif (
            self.fsync_policy == "interval"
            and self._clock() - self._last_sync >= self.fsync_interval_s
        ):
            self.sync()
        else:
            self._g_lag.set(self._pending_items)
        return self.position()

    def sync(self) -> None:
        """fsync the active segment and advance the durable horizon."""
        if self._closed or self._fh is None:
            return
        try:
            os.fsync(self._fh.fileno())
        except OSError as exc:
            self.last_error = f"fsync failed: {exc}"
            raise WalWriteError(f"WAL fsync failed: {exc}") from exc
        self.last_error = None
        self._durable = WalPosition(self._seg, self._offset)
        self._pending_items = 0
        self._last_sync = self._clock()
        self.fsyncs += 1
        self._m_fsyncs.inc()
        self._g_lag.set(0)

    def _rotate(self) -> None:
        # the old segment's tail must be durable before the log moves
        # on: a crash between rotation and the next sync would otherwise
        # leave a hole in the middle of the durable prefix
        if self.fsync_policy != "off":
            self.sync()
        self._fh.close()
        self._seg += 1
        self._create_segment(self._seg)
        if self.fsync_policy != "off":
            self._durable = WalPosition(self._seg, self._offset)

    # -- positions & lifecycle -----------------------------------------------

    def position(self) -> WalPosition:
        """Position after the last appended record."""
        return WalPosition(self._seg, self._offset)

    def records(
        self, start: WalPosition | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """``(side, keys)`` of every record from ``start``, in order
        (see :func:`iter_records` for the failure semantics)."""
        for _pos, side, keys in iter_records(self.directory, start):
            yield side, keys

    def durable_position(self) -> WalPosition:
        """Position after the last *fsynced* record — what a power cut
        cannot take away."""
        return self._durable

    @property
    def pending_items(self) -> int:
        """Appended items not yet covered by an fsync."""
        return self._pending_items

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    def segment_count(self) -> int:
        return len(self._segments())

    def close(self) -> None:
        """Final sync (best effort) and release the file handle."""
        if self._closed:
            return
        try:
            if self._fh is not None and self.fsync_policy != "off":
                self.sync()
        except WalWriteError:
            pass  # last_error already records it; close must not raise
        finally:
            self._closed = True
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # -- maintenance ---------------------------------------------------------

    def prune_to(self, position: WalPosition) -> list[Path]:
        """Delete segments wholly before ``position`` (never the active
        one).  Called under checkpoint coordination: pass the *oldest*
        WAL position any retained checkpoint records, so every
        checkpoint an operator could still fall back to keeps its
        replay suffix."""
        deleted = []
        for seq, path in self._segments():
            if seq < position.segment and seq != self._seg:
                path.unlink()
                deleted.append(path)
        if deleted:
            _fsync_dir(self.directory)
            self._refresh_sizes()
        return deleted

    def truncate_to(self, position: WalPosition) -> None:
        """Discard everything after ``position`` (explicit data drop —
        used by ``recover_engine(replay_wal=False)`` so the log stays
        consistent with the engine state that was actually restored)."""
        segments = dict(self._segments())
        if position.segment not in segments:
            raise WalCorruptionError(
                f"cannot truncate to {position}: segment "
                f"{position.segment} is missing from {self.directory}"
            )
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        for seq, path in self._segments():
            if seq > position.segment:
                path.unlink()
        path = segments[position.segment]
        with open(path, "rb+") as f:
            f.truncate(position.offset)
            f.flush()
            os.fsync(f.fileno())
        _fsync_dir(self.directory)
        self._seg = position.segment
        self._offset = position.offset
        self._fh = open(path, "ab", buffering=0)
        self._durable = position
        self._pending_items = 0
        self._refresh_sizes()

    def simulate_crash(self) -> None:
        """Chaos hook: leave on disk exactly what a power cut at this
        instant guarantees — the fsynced prefix.  Un-synced appends are
        discarded (a real cut *may* keep some of them; keeping none is
        the worst legal outcome, which is what tests must survive)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        durable = self._durable
        for seq, path in self._segments():
            if seq > durable.segment:
                path.unlink()
            elif seq == durable.segment and path.stat().st_size > durable.offset:
                with open(path, "rb+") as f:
                    f.truncate(durable.offset)
        self._closed = True


def _fsync_dir(path: Path) -> None:
    """Best-effort directory-entry fsync (no-op where unsupported)."""
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


class MemoryLog:
    """Bounded in-memory suffix log for supervised engines without a WAL.

    Holds the same ``(side, keys)`` records the WAL would, appended at
    the same point of ``StreamEngine.ingest``, from the supervisor's
    base checkpoint on.  The bound counts admitted items, buffered ones
    included; exceeding it sets ``overflowed`` and drops every record —
    worker restarts are then impossible until the next checkpoint
    calls :meth:`reset`.  Records own their keys (a copy is taken on
    append), so callers may reuse their arrays.

    Args:
        limit_items: the bound, in items.
        registry: a :class:`repro.obs.Registry` for the
            ``supervisor_replay_*`` gauges; None keeps them on no-op
            stand-ins.
    """

    def __init__(self, limit_items: int = 1 << 22, *, registry=None):
        self.limit_items = require_positive_int("limit_items", limit_items)
        self._records: list[tuple[int, np.ndarray]] = []
        self.items = 0
        self.overflowed = False
        reg = registry if registry is not None else NULL_REGISTRY
        self._g_records = reg.gauge(
            "supervisor_replay_batches",
            "Ingest batches in the in-memory replay log",
        )
        self._g_items = reg.gauge(
            "supervisor_replay_items",
            "Admitted items in the in-memory replay log",
        )
        self._g_overflowed = reg.gauge(
            "supervisor_replay_overflowed",
            "1 when the replay log overflowed (recovery impossible until "
            "the next checkpoint)",
        )

    def __len__(self) -> int:
        return len(self._records)

    def append(self, side: int, keys: np.ndarray) -> None:
        """Log one admitted batch (dropped once the log overflowed)."""
        if self.overflowed:
            return  # already unrecoverable; don't hoard memory
        self._records.append((side, np.array(keys, dtype=np.uint64)))
        self.items += int(keys.size)
        if self.items > self.limit_items:
            self.overflowed = True
            self._records.clear()
            self.items = 0
        self._publish()

    def records(self, start: int | None = None):
        """``(side, keys)`` of every record from index ``start``."""
        return iter(self._records[start or 0:])

    def reset(self) -> None:
        """A checkpoint made everything durable; start a fresh log."""
        self._records.clear()
        self.items = 0
        self.overflowed = False
        self._publish()

    def _publish(self) -> None:
        self._g_records.set(len(self._records))
        self._g_items.set(self.items)
        self._g_overflowed.set(1 if self.overflowed else 0)


# -- reading -----------------------------------------------------------------


def iter_records(
    directory: str | Path, start: WalPosition | None = None
) -> Iterator[tuple[WalPosition, int, np.ndarray]]:
    """Yield ``(position_after, side, keys)`` for every record from
    ``start`` (the whole log when None), in order.

    A torn tail on the final segment ends iteration silently (those
    bytes were never durable).  Mid-log corruption — or a ``start``
    that points into pruned/missing segments — raises
    :class:`~repro.service.errors.WalCorruptionError`: replaying *past*
    a hole would silently ingest a stream the engine never admitted.
    """
    directory = Path(directory)
    segments = _list_segments(directory)
    if start is not None:
        kept = [(s, p) for s, p in segments if s >= start.segment]
        if not kept or kept[0][0] != start.segment:
            raise WalCorruptionError(
                f"WAL position {tuple(start)} points into segment "
                f"{_segment_name(start.segment)} which is missing from "
                f"{directory} — the log was pruned past the checkpoint"
            )
        segments = kept
    prev_seq = None
    for i, (seq, path) in enumerate(segments):
        if prev_seq is not None and seq != prev_seq + 1:
            raise WalCorruptionError(
                f"gap in WAL segments: {_segment_name(prev_seq)} is "
                f"followed by {_segment_name(seq)}"
            )
        prev_seq = seq
        offset = (
            start.offset if (start is not None and seq == start.segment)
            else None
        )
        records, _end, _torn = _scan_segment(
            path, final=(i == len(segments) - 1), start_offset=offset
        )
        for end, side, key_bytes in records:
            keys = np.frombuffer(key_bytes, dtype="<u8").astype(
                np.uint64, copy=True
            )
            yield WalPosition(seq, end), side, keys


def verify_wal(directory: str | Path) -> dict:
    """Walk every record of every segment; raises
    :class:`~repro.service.errors.WalCorruptionError` on any mid-log
    damage, returns a summary dict otherwise (a torn tail is reported,
    not raised — it is a legal crash artifact)."""
    directory = Path(directory)
    segments = _list_segments(directory)
    summary = {
        "directory": str(directory),
        "segments": len(segments),
        "records": 0,
        "items": 0,
        "bytes": 0,
        "torn_tail_bytes": 0,
    }
    prev_seq = None
    for i, (seq, path) in enumerate(segments):
        if prev_seq is not None and seq != prev_seq + 1:
            raise WalCorruptionError(
                f"gap in WAL segments: {_segment_name(prev_seq)} is "
                f"followed by {_segment_name(seq)}"
            )
        prev_seq = seq
        records, end, _torn = _scan_segment(path, final=(i == len(segments) - 1))
        size = path.stat().st_size
        summary["records"] += len(records)
        summary["items"] += sum(len(kb) // 8 for _e, _s, kb in records)
        summary["bytes"] += size
        summary["torn_tail_bytes"] += size - end
    return summary


def inspect_wal(directory: str | Path) -> dict:
    """Non-raising per-segment report for the ``wal inspect`` CLI."""
    directory = Path(directory)
    out = {"directory": str(directory), "segments": [], "ok": True}
    segments = _list_segments(directory)
    for i, (seq, path) in enumerate(segments):
        entry = {
            "segment": seq,
            "path": str(path),
            "bytes": path.stat().st_size,
            "status": "ok",
            "records": 0,
            "items": 0,
        }
        try:
            records, end, torn = _scan_segment(
                path, final=(i == len(segments) - 1)
            )
            entry["records"] = len(records)
            entry["items"] = sum(len(kb) // 8 for _e, _s, kb in records)
            if torn is not None:
                entry["status"] = "torn-tail"
                entry["torn_bytes"] = entry["bytes"] - end
                entry["torn_reason"] = torn
        except WalCorruptionError as exc:
            entry["status"] = "corrupt"
            entry["error"] = str(exc)
            out["ok"] = False
        out["segments"].append(entry)
    return out
