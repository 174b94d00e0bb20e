"""The ledger benchmark's workloads: inputs, drivers, answers and checks.

Every workload draws its keys from one ``BoundedZipf`` stream of
``STREAM_ITEMS`` keys over ``UNIVERSE`` keys, built from the run's seed
and cycled to the run length.  The engine is driven through its public
API with product defaults only: no ``EngineConfig.transport`` and no
private apply entry point, so later changes to either cannot break the
benchmark.  Why each workload exists is recorded in ``BENCHMARK.json``
and ``README.md``.
"""

from __future__ import annotations

import ctypes
import dataclasses
import gc
import math
import multiprocessing
import os
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.service.checkpoint as checkpoint
from repro.core import get_descriptor
from repro.datasets import BoundedZipf
from repro.exact import ExactWindow
from repro.fixed.countmin import CountMinSketch
from repro.service import EngineConfig, StreamEngine

UNIVERSE = 1_000_000
STREAM_ITEMS = 1 << 22
#: set-up repeats for at least this many repeats and this long (times
#: ``--scale``), once before the timed phase and once after the checks:
#: this host's speed shifts by up to 1.5x in phases of seconds to
#: minutes, and a median taken inside one phase moves with it
SETUP_REPEATS = 15
SETUP_SECONDS = 1.5
#: the closed loop reads in bursts spread over the whole timed phase,
#: for the same reason: its query latencies then see the same mix of
#: fast and slow stretches as its ingest latencies
QUERY_PERIOD_S = 0.5
QUERY_BURST = 25
#: recoveries per run, each checked bit for bit against the live shards
RECOVER_REPEATS = 3
#: a p1 or p99 needs this many samples (ten beyond it): the closed
#: loops run past ``--seconds`` until they have them
P99_SAMPLES = 1000
#: the timed phase is cut into this many windows of ingest time (see
#: ``RateWindows``): at ``--seconds 20`` a window of 0.5 s holds some
#: twenty shard flushes on ``cm-bulk``, so one flush more or less in a
#: window moves its rate by a few percent only
RATE_WINDOWS = 40
#: an open-loop operation started later than this counts as failed
LATE_LIMIT_S = 1.0
CM_TOP_KEYS = 1000
BF_MEMBER_PROBES = 1024
#: HLL answers further than this from the exact window fail the run
#: (about six standard errors of the legal register subsample)
HLL_MAX_REL_ERROR = 0.10
#: BoundedZipf keys are below 2**32, so probes above it are never present
ABSENT_LOW = 1 << 32

#: kernel ledger: every registered kind on both frames, bare insert_many
MICRO_KINDS = ("bf", "bm", "hll", "cm", "mh", "wq")
MICRO_FRAMES = ("hardware", "software")
MICRO_ITEMS = 1 << 17
MICRO_WINDOW = 1 << 14
MICRO_SIZE = 1 << 13
#: SHE-MH updates every counter per item; 128 keeps it comparable in cost
MICRO_MH_COUNTERS = 128
MICRO_CHUNK = 8192


@dataclass(frozen=True)
class Workload:
    """One engine configuration plus the loop that drives it.

    ``loop`` is ``"closed"`` (back-to-back ingest calls, with a burst
    of queries every ``QUERY_PERIOD_S``), ``"alternate"`` (closed loop
    of one ingest then one query) or ``"open"`` (ingest and query on
    fixed schedules, each timed from its due time).
    """

    name: str
    kind: str
    loop: str
    skew: float
    window: int
    size: int
    num_shards: int
    call_keys: int
    executor: str = "serial"
    num_workers: int | None = None
    wal_fsync: str | None = None
    #: items ingested after the checkpoint, replayed by every recovery
    wal_suffix: int = 0
    #: keys per query: hot keys for CM, absent probes for BF
    query_keys: int = 0
    ingest_rate: float = 0.0
    query_rate: float = 0.0
    sketch_kwargs: dict = field(default_factory=dict)

    def config(self, wal_dir: Path) -> EngineConfig:
        extra = {}
        if self.wal_fsync is not None:
            extra = {"wal_dir": str(wal_dir), "wal_fsync": self.wal_fsync}
        return EngineConfig(
            self.kind,
            window=self.window,
            size=self.size,
            num_shards=self.num_shards,
            sketch_kwargs=dict(self.sketch_kwargs),
            **extra,
        )

    def params(self) -> dict:
        return dataclasses.asdict(self)


WORKLOADS = {
    w.name: w
    for w in (
        # 2048-key calls: each shard's 8192-item size trigger fires on
        # about one call in four, so the median call never flushes and
        # the p99 call always does (8192-key calls put the median on
        # the boundary between the two and it jumped 10x between runs)
        Workload(
            "cm-bulk", kind="cm", loop="closed", skew=1.05,
            window=1 << 14, size=1 << 13, num_shards=4, call_keys=2048,
            query_keys=256,
            sketch_kwargs={"num_hashes": 8, "frame": "hardware"},
        ),
        # one worker owns both shards: the driver and the worker are
        # then as many processes as the host has CPUs (nproc = 2); with
        # a worker per shard the three processes shared two CPUs
        Workload(
            "hll-wal-proc", kind="hll", loop="closed", skew=0.8,
            window=1 << 20, size=1 << 14, num_shards=2, call_keys=512,
            executor="process", num_workers=1, wal_fsync="interval",
            wal_suffix=1 << 20,
        ),
        # queries spend all the apply work of the stream (nothing else
        # flushes at this rate), so the share of ingest calls queued
        # behind one is about the share of time spent in queries; at
        # 150k items/s it was 30-40% and the ingest median sat on the
        # boundary between queued and not, at 50k items/s it is ~20%
        Workload(
            "cm-mixed-open", kind="cm", loop="open", skew=1.05,
            window=1 << 16, size=1 << 15, num_shards=4, call_keys=256,
            query_keys=64, ingest_rate=50_000.0, query_rate=50.0,
            sketch_kwargs={"num_hashes": 8},
        ),
        Workload(
            "bf-fanin", kind="bf", loop="alternate", skew=1.05,
            window=1 << 16, size=1 << 20, num_shards=8, call_keys=2048,
            query_keys=1024, sketch_kwargs={"num_hashes": 8},
        ),
    )
}


def take(arr: np.ndarray, start: int, n: int) -> np.ndarray:
    """Items ``[start, start + n)`` of ``arr`` repeated end to end."""
    lo = start % arr.size
    if lo + n <= arr.size:
        return arr[lo : lo + n]
    return np.take(arr, np.arange(start, start + n) % arr.size)


@dataclass
class Inputs:
    stream: np.ndarray
    hot: np.ndarray
    absent: np.ndarray
    rng: np.random.Generator


def make_inputs(w: Workload, seed: int, scale: float) -> Inputs:
    zipf = BoundedZipf(UNIVERSE, w.skew, seed=seed)
    stream = zipf.sample(max(int(STREAM_ITEMS * scale), 8 * w.call_keys))
    rng = np.random.default_rng([seed, 0xAB5E])
    absent = rng.integers(
        ABSENT_LOW, 1 << 63,
        size=max(int((1 << 20) * scale), 4 * w.query_keys, 1),
        dtype=np.uint64,
    )
    # BoundedZipf.keys is in rank order: the most popular keys first
    return Inputs(stream, zipf.keys[: w.query_keys].copy(), absent, rng)


def query(w: Workload, engine, inputs: Inputs, i: int):
    """The workload's query number ``i``."""
    if w.kind == "cm":
        return engine.frequency_many(inputs.hot)
    if w.kind == "bf":
        return engine.contains_many(
            take(inputs.absent, i * w.query_keys, w.query_keys)
        )
    return engine.cardinality()


def _release_free_heap() -> None:
    """Hand freed heap pages back to the OS (glibc ``malloc_trim``), so
    the baseline is the live set and not what input generation left
    resident; where glibc is absent the baseline stays as it is."""
    try:
        libc = ctypes.CDLL("libc.so.6")
        trim = libc.malloc_trim
    except (OSError, AttributeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def _status(pid: int, key: str) -> int:
    """A size field of ``/proc/<pid>/status``, in bytes."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1]) * 1024
    raise KeyError(f"no {key} in /proc/{pid}/status")


def _reset_peak(pid: int) -> int:
    """Reset the kernel's peak RSS (``VmHWM``) of ``pid`` to its current
    RSS, and return that."""
    with open(f"/proc/{pid}/clear_refs", "w") as f:
        f.write("5")
    return _status(pid, "VmRSS")


class Rss:
    """Resident-set growth over a baseline taken before set-up.

    The driver's RSS is read after the timed phase the way the baseline
    is taken: after a garbage collection and after free heap pages are
    handed back, so what is left is the memory the engine holds.  Its
    peak (``VmHWM``), for one seed in fresh processes, moved between
    1.6 and 3.0 MB on ``cm-mixed-open`` with how much freed heap the
    allocator kept resident, while the trimmed RSS stayed within 0.02
    MB.  Executor workers cannot be trimmed from here; each counts with
    its peak growth after set-up, and the largest is added.
    """

    def __init__(self) -> None:
        gc.collect()
        _release_free_heap()
        self.base = _status(os.getpid(), "VmRSS")
        self._workers: dict[int, int] = {}

    def start(self) -> None:
        self._workers = {
            p.pid: _reset_peak(p.pid) for p in multiprocessing.active_children()
        }

    def growth_mb(self) -> float:
        gc.collect()
        _release_free_heap()
        driver = _status(os.getpid(), "VmRSS") - self.base
        worker = max(
            (_status(pid, "VmHWM") - start for pid, start in self._workers.items()),
            default=0,
        )
        return (driver + worker) / (1 << 20)


class Samples:
    """A growing series of floats in a buffer allocated and touched
    before the RSS baseline is taken.  Kept in a Python list, the ingest
    latencies of a fast ``hll-wal-proc`` run took megabytes, so the
    driver's own bookkeeping made ``rss_mb`` follow the ingest rate."""

    def __init__(self, capacity: int = 1 << 20):
        self._buf = np.ones(capacity)
        self._n = 0

    def append(self, x: float) -> None:
        if self._n == self._buf.size:
            self._buf = np.concatenate((self._buf, np.ones(self._buf.size)))
        self._buf[self._n] = x
        self._n += 1

    def __len__(self) -> int:
        return self._n

    @property
    def values(self) -> np.ndarray:
        return self._buf[: self._n]


class RateWindows:
    """Ingest rate (Mitems/s) of consecutive windows of the timed phase,
    each closed at the first ingest call that ends ``length`` seconds or
    more after the window opened; time spent in :meth:`exclude` (the
    closed loop's query bursts) does not count."""

    def __init__(self, out: Samples, length: float):
        self.out = out
        self.length = length
        self.begin(time.perf_counter())

    def begin(self, now: float) -> None:
        self.start, self.items, self.skip = now, 0, 0.0

    def exclude(self, seconds: float) -> None:
        self.skip += seconds

    def add(self, items: int, now: float) -> None:
        self.items += items
        span = now - self.start - self.skip
        if span >= self.length:
            self.out.append(self.items / span / 1e6)
            self.begin(now)


@dataclass
class Pass:
    """Everything one pass over a workload measured."""

    setup_s: list = field(default_factory=list)
    items: int = 0
    wall_s: float = 0.0
    #: time inside the closed loop's query calls, left out of ``wall_s``
    read_s: float = 0.0
    busy_s: float = 0.0
    ingest_lat: Samples = field(default_factory=Samples)
    query_lat: Samples = field(default_factory=Samples)
    late: Samples = field(default_factory=Samples)
    rates: Samples = field(default_factory=Samples)
    positives: int = 0
    probes: int = 0
    rss_mb: float | None = None
    state_bytes: int = 0
    error_pct: float | None = None
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def correct(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def metrics(self) -> dict[str, tuple[float | None, int]]:
        """End-to-end metric -> (value, samples behind it); ``None`` when
        the run ended before taking a sample.

        This host's speed moves by up to 1.5x in phases that last from
        seconds to minutes, and a run's median or p99 moves with the
        share of the run spent in slow phases.  The gated metrics are
        therefore the ones a fast stretch of any run reaches: the best
        window's ingest rate and the 1st percentile of call latency.
        The medians, tails and whole-run rate are in :meth:`tails`."""
        return {
            "setup_s": (
                statistics.median(self.setup_s) if self.setup_s else None,
                len(self.setup_s),
            ),
            "ingest_peak_mips": (
                float(self.rates.values.max()) if len(self.rates) else None,
                len(self.rates),
            ),
            "ingest_p1_ms": _percentile_ms(self.ingest_lat, 1),
            "query_p1_ms": _percentile_ms(self.query_lat, 1),
            "rss_mb": (self.rss_mb, 1),
        }

    def tails(self) -> dict[str, float | None]:
        """The whole-run ingest rate and the latency medians and p99s,
        reported with the traced ledger and not gated (see
        :meth:`metrics`)."""
        return {
            "driver.ingest_mips": (
                self.items / self.wall_s / 1e6 if self.wall_s else None
            ),
            "driver.ingest_p50_ms": _percentile_ms(self.ingest_lat, 50)[0],
            "driver.ingest_p99_ms": _percentile_ms(self.ingest_lat, 99)[0],
            "driver.query_p50_ms": _percentile_ms(self.query_lat, 50)[0],
            "driver.query_p99_ms": _percentile_ms(self.query_lat, 99)[0],
        }


def _percentile_ms(samples: Samples, q: float) -> tuple[float | None, int]:
    """``(q-th percentile in ms, sample count)`` of latencies in seconds."""
    n = len(samples)
    return (float(np.percentile(samples.values, q)) * 1e3 if n else None, n)


# -- drivers ------------------------------------------------------------------


def _timed(ledger, rec: bool, name: str, items: int, fn, *args):
    """Call ``fn(*args)`` inside a driver span (when recording); returns
    ``(result, start, end)`` in ``perf_counter`` seconds."""
    if rec:
        span = ledger.open(name, items)
    a = time.perf_counter()
    out = fn(*args)
    b = time.perf_counter()
    if rec:
        ledger.close(span)
    return out, a, b


def _closed(p: Pass, w: Workload, engine, inputs: Inputs, seconds, min_calls,
            ledger) -> None:
    """Back-to-back ingest calls; every ``QUERY_PERIOD_S`` a flush (ingest
    work, timed as such) and then ``QUERY_BURST`` back-to-back queries,
    whose time is left out of the ingest wall time."""
    rec = ledger.recording()
    stream, n = inputs.stream, w.call_keys
    pos = 0
    flush_s = 0.0
    started = time.perf_counter()
    windows = RateWindows(p.rates, seconds / RATE_WINDOWS)
    deadline = started + seconds
    next_read = started + QUERY_PERIOD_S
    while True:
        now = time.perf_counter()
        reads_short = len(p.query_lat) < min_calls
        if now >= deadline and len(p.ingest_lat) >= min_calls and not reads_short:
            break
        if now >= next_read or (now >= deadline and reads_short):
            _, a, b = _timed(ledger, rec, "driver.flush", 0, engine.flush)
            flush_s += b - a
            for _ in range(QUERY_BURST):
                p.attempted += 1
                _, a, b = _timed(
                    ledger, rec, "driver.query", w.query_keys,
                    query, w, engine, inputs, len(p.query_lat),
                )
                p.query_lat.append(b - a)
                p.read_s += b - a
                windows.exclude(b - a)
            next_read += QUERY_PERIOD_S
            continue
        keys = take(stream, pos, n)
        p.attempted += 1
        _, a, b = _timed(ledger, rec, "driver.ingest", n, engine.ingest, keys)
        p.ingest_lat.append(b - a)
        windows.add(n, b)
        pos += n
    p.items = pos
    p.busy_s = float(p.ingest_lat.values.sum()) + flush_s + p.read_s


def _alternate(p: Pass, w: Workload, engine, inputs: Inputs, seconds, min_calls,
               ledger) -> None:
    rec = ledger.recording()
    stream, n, q = inputs.stream, w.call_keys, w.query_keys
    pos = rounds = 0
    windows = RateWindows(p.rates, seconds / RATE_WINDOWS)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or rounds < min_calls:
        keys = take(stream, pos, n)
        p.attempted += 2
        _, a, b = _timed(ledger, rec, "driver.ingest", n, engine.ingest, keys)
        found, c, d = _timed(
            ledger, rec, "driver.query", q, query, w, engine, inputs, rounds
        )
        p.ingest_lat.append(b - a)
        p.query_lat.append(d - c)
        windows.add(n, d)
        p.positives += int(np.count_nonzero(found))
        p.probes += q
        pos += n
        rounds += 1
    p.items = pos
    p.busy_s = float(p.ingest_lat.values.sum() + p.query_lat.values.sum())


def _open(p: Pass, w: Workload, engine, inputs: Inputs, seconds, _min_calls,
          ledger) -> None:
    """Ingest and query on fixed schedules; latency counts from the due
    time, so a stall also delays every operation queued behind it.

    The generator spins until each due time instead of sleeping: a call
    made right after a sleep also paid the generator's own wake-up,
    which about doubled the ingest median (0.14 ms against 0.07 ms at
    the same host speed)."""
    perf = time.perf_counter
    rec = ledger.recording()
    stream, n = inputs.stream, w.call_keys
    ingest_period = n / w.ingest_rate
    query_period = 1.0 / w.query_rate
    t0 = perf() + 0.005
    end = t0 + seconds
    windows = RateWindows(p.rates, seconds / RATE_WINDOWS)
    windows.begin(t0)
    n_ingest = n_query = 0
    next_ingest, next_query = t0, t0 + query_period / 2
    while True:
        is_query = next_query < next_ingest
        due = next_query if is_query else next_ingest
        if due >= end:
            break
        while perf() < due:
            pass
        p.attempted += 1
        if is_query:
            _, start, done = _timed(
                ledger, rec, "driver.query", w.query_keys,
                query, w, engine, inputs, n_query,
            )
            p.query_lat.append(done - due)
            n_query += 1
            next_query = t0 + n_query * query_period
        else:
            keys = take(stream, n_ingest * n, n)
            _, start, done = _timed(ledger, rec, "driver.ingest", n, engine.ingest, keys)
            p.ingest_lat.append(done - due)
            windows.add(n, done)
            n_ingest += 1
            next_ingest = t0 + n_ingest * ingest_period
        p.late.append(start - due)
        p.busy_s += done - start
    p.items = n_ingest * n
    late = int(np.count_nonzero(p.late.values > LATE_LIMIT_S))
    p.failed += late
    p.check(
        "no_late_operations",
        late == 0,
        f"{late} of {len(p.late)} operations started more than "
        f"{LATE_LIMIT_S:g} s after their due time",
    )


_DRIVERS = {"closed": _closed, "alternate": _alternate, "open": _open}


# -- one pass -----------------------------------------------------------------


def _setup(w: Workload, workdir: Path, scale: float,
           tag: str) -> tuple[StreamEngine, list[float]]:
    """Build the engine repeatedly (``SETUP_REPEATS`` times and
    ``SETUP_SECONDS``); return the last one, open.  Each discarded
    engine is collected before the next build, so no build runs the
    cyclic collector over another's garbage: without that, the median
    build on ``cm-bulk`` read about 0.25 ms on some runs and 0.45 ms on
    others."""
    times = []
    started = time.perf_counter()
    while True:
        wal_dir = workdir / f"wal-{tag}-{len(times)}"
        cfg = w.config(wal_dir)
        a = time.perf_counter()
        engine = StreamEngine(cfg, executor=w.executor, num_workers=w.num_workers)
        times.append(time.perf_counter() - a)
        if (len(times) >= SETUP_REPEATS
                and time.perf_counter() - started >= SETUP_SECONDS * scale):
            return engine, times
        engine.close()
        del engine
        gc.collect()
        shutil.rmtree(wal_dir, ignore_errors=True)


def _window(w: Workload, engine, inputs: Inputs) -> np.ndarray:
    """The last ``window`` items of the union stream the engine saw."""
    t_end = engine.now()
    lo = max(0, t_end - w.window)
    return take(inputs.stream, lo, t_end - lo)


def _answers(w: Workload, engine, inputs: Inputs) -> dict:
    """The engine's final answers, captured for the exact-window checks."""
    window = _window(w, engine, inputs)
    if w.kind == "cm":
        keys = np.unique(window)
        shard = engine.snapshots()[0]
        return {"window": window, "keys": keys, "est": engine.frequency_many(keys),
                "alpha": shard.config.alpha, "num_hashes": shard.num_hashes}
    if w.kind == "bf":
        distinct = np.unique(window)
        members = inputs.rng.choice(
            distinct, size=min(BF_MEMBER_PROBES, distinct.size), replace=False
        )
        return {"window": window, "members": members,
                "present": engine.contains_many(members)}
    return {"window": window, "est": engine.cardinality()}


def _same_state(desc, a, b) -> bool:
    meta_a, arrays_a = desc.sketch_state(a)
    meta_b, arrays_b = desc.sketch_state(b)
    return (
        meta_a == meta_b
        and arrays_a.keys() == arrays_b.keys()
        and all(np.array_equal(arrays_a[k], arrays_b[k]) for k in arrays_a)
    )


def _checkpoint_and_recover(p: Pass, w: Workload, engine, inputs: Inputs,
                            workdir: Path, scale: float, ledger) -> dict:
    """Checkpoint, ingest the WAL suffix, capture the final answers, then
    recover ``RECOVER_REPEATS`` times and compare each recovered shard
    with the live engine's."""
    ckpt_dir = workdir / "ckpt"
    p.attempted += 1
    with ledger.measured():
        checkpoint.save_checkpoint(engine, ckpt_dir)
    suffix = int(w.wal_suffix * scale)
    for _ in range(0, suffix, w.call_keys):
        engine.ingest(take(inputs.stream, engine.now(), w.call_keys))
    engine.flush()
    # snapshot before any further query: queries clean stale groups
    # lazily, which changes the representation but not the answers
    desc = get_descriptor(w.kind)
    live = engine.snapshots()
    live_card = engine.cardinality() if w.kind == "hll" else None
    answers = _answers(w, engine, inputs)
    p.state_bytes = engine.memory_bytes
    engine.close()
    identical = 0
    for _ in range(RECOVER_REPEATS):
        p.attempted += 1
        with ledger.measured():
            recovered = checkpoint.recover_engine(ckpt_dir)
        try:
            snaps = recovered.snapshots()
            same = len(snaps) == len(live) and all(
                _same_state(desc, x, y) for x, y in zip(live, snaps)
            )
            if live_card is not None:
                same = same and recovered.cardinality() == live_card
        finally:
            recovered.close()
        identical += bool(same)
    p.check(
        "recovery_bit_identical",
        identical == RECOVER_REPEATS,
        f"{identical} of {RECOVER_REPEATS} recoveries matched the live "
        f"shards ({w.num_shards} shards, suffix {suffix} items)",
    )
    return answers


def _binomial_ceiling(n: int, p: float, tail: float = 1e-6) -> int:
    """Smallest ``x`` with ``P(Binomial(n, p) > x) < tail``."""
    cdf = 0.0
    for x in range(n + 1):
        cdf += math.comb(n, x) * p**x * (1.0 - p) ** (n - x)
        if 1.0 - cdf < tail:
            return x
    return n


def _check_answers(p: Pass, w: Workload, answers: dict) -> None:
    exact = ExactWindow(w.window)
    exact.insert_many(answers["window"])
    if w.kind == "cm":
        keys, est = answers["keys"], answers["est"]
        counts = exact.frequency_many(keys)
        top = np.lexsort((keys, -counts))[:CM_TOP_KEYS]
        under = int(np.count_nonzero(est[top] < counts[top]))
        # SHE-CM's one documented underestimate: a key whose k mapped
        # counters are all younger than the window, probability
        # (1/(1+alpha))^k per key, answers from the young counters
        young = (1.0 / (1.0 + answers["alpha"])) ** answers["num_hashes"]
        allowed = _binomial_ceiling(int(top.size), young)
        p.check(
            "cm_never_below_exact",
            under <= allowed,
            f"{under} of the top {top.size} keys estimated below the exact "
            f"window count (all-young fallback allows {allowed})",
        )
        p.error_pct = float(
            np.mean(np.abs(est[top] - counts[top]) / counts[top]) * 100
        )
    elif w.kind == "bf":
        missed = int(np.count_nonzero(~answers["present"]))
        p.check(
            "bf_no_false_negatives",
            missed == 0,
            f"{missed} of {answers['members'].size} window keys reported absent",
        )
        p.error_pct = 100.0 * p.positives / p.probes if p.probes else 0.0
    else:
        truth = exact.cardinality()
        rel = abs(answers["est"] - truth) / truth
        p.check(
            "hll_within_bound",
            rel <= HLL_MAX_REL_ERROR,
            f"estimate {answers['est']:.0f} vs exact {truth} "
            f"({rel:.2%}, bound {HLL_MAX_REL_ERROR:.0%})",
        )
        p.error_pct = 100.0 * rel


def run_pass(w: Workload, inputs: Inputs, seconds: float, scale: float,
             workdir: Path, ledger) -> Pass:
    """Set up, drive, checkpoint/recover and check one workload."""
    p = Pass()
    workdir.mkdir(parents=True, exist_ok=True)
    rss = Rss()
    engine = None
    try:
        engine, p.setup_s = _setup(w, workdir, scale, "before")
        rss.start()
        with ledger.measured():
            started = time.perf_counter()
            min_calls = max(int(P99_SAMPLES * scale), 1)
            _DRIVERS[w.loop](p, w, engine, inputs, seconds, min_calls, ledger)
            _timed(ledger, ledger.recording(), "driver.flush", 0, engine.flush)
            p.wall_s = time.perf_counter() - started - p.read_s
        p.rss_mb = rss.growth_mb()
        answers = _checkpoint_and_recover(
            p, w, engine, inputs, workdir, scale, ledger
        )
        _check_answers(p, w, answers)
        engine.close()
        engine, after = _setup(w, workdir, scale, "after")
        p.setup_s += after
    except Exception:
        p.failed += 1
        p.errors.append(traceback.format_exc())
        p.check("no_operation_raised", False, p.errors[-1].splitlines()[-1])
    finally:
        if engine is not None:
            engine.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return p


# -- kernel ledger (traced runs) ------------------------------------------------


def _insert_mips(build, insert, keys: np.ndarray, chunk: int, repeats: int = 3) -> float:
    rates = []
    for _ in range(repeats):
        sketch = build()
        a = time.perf_counter()
        for lo in range(0, keys.size, chunk):
            insert(sketch, keys[lo : lo + chunk])
        rates.append(keys.size / (time.perf_counter() - a) / 1e6)
    return statistics.median(rates)


def _insert_many(sketch, keys):
    sketch.insert_many(keys)


def _insert_many_side0(sketch, keys):
    sketch.insert_many(0, keys)


def kernel_ledger(w: Workload, inputs: Inputs, scale: float, engine_mips: float) -> dict:
    """Bare ``insert_many`` throughput of every kind on both frames, the
    fixed-window Count-Min yardstick, and the engine-over-sketch ratio
    for this workload's own shard configuration."""
    keys = inputs.stream[: max(int(MICRO_ITEMS * scale), MICRO_CHUNK)]
    out = {}
    for kind in MICRO_KINDS:
        desc = get_descriptor(kind)
        size = MICRO_MH_COUNTERS if kind == "mh" else MICRO_SIZE
        insert = _insert_many_side0 if desc.two_stream else _insert_many
        for frame in MICRO_FRAMES:
            out[f"core.{kind}.{frame}.insert_mips"] = _insert_mips(
                lambda: desc.build(MICRO_WINDOW, size, frame=frame),
                insert, keys, MICRO_CHUNK,
            )
    out["core.cm.fixed_insert_mips"] = _insert_mips(
        lambda: CountMinSketch(MICRO_SIZE, 8), _insert_many, keys, MICRO_CHUNK
    )
    out["ratio.she_over_fixed"] = (
        out["core.cm.hardware.insert_mips"] / out["core.cm.fixed_insert_mips"]
    )
    shard = get_descriptor(w.kind)
    bare = _insert_mips(
        lambda: shard.build(w.window, w.size, **w.sketch_kwargs),
        _insert_many, keys, w.call_keys,
    )
    out["ratio.engine_over_sketch"] = engine_mips / bare
    return out
