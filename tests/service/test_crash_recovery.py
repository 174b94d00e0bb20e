"""Crash→recover acceptance: the ISSUE's durability criteria.

A simulated SIGKILL (``CrashHarness``) at ≥ 20 distinct op indices
followed by ``recover_engine`` must yield shard state *bit-identical*
to a crash-free run under ``fsync=always``, lose at most the un-fsynced
tail otherwise, and every bit-flip in a checkpoint shard file or
non-tail WAL record must surface as a typed error — never be silently
ingested.  The hypothesis property test extends the same invariant to
every registered sketch kind and a random kill point.
"""

import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import descriptor_of
from repro.obs import MetricsExporter
from repro.service import (
    ChaosExecutor,
    CheckpointCorruptionError,
    CrashHarness,
    EngineConfig,
    SerialExecutor,
    SimulatedCrash,
    StreamEngine,
    Supervisor,
    RetryPolicy,
    WalCorruptionError,
    WalWriteError,
    flip_bit,
    latest_checkpoint,
    prune_checkpoints,
    recover_engine,
    save_checkpoint,
    simulate_process_kill,
)
from repro.service.wal import checksum

KINDS = {
    "cm": dict(window=2048, size=1024, num_shards=3,
               sketch_kwargs={"seed": 7}),
    "bf": dict(window=2048, size=4096, num_shards=4,
               sketch_kwargs={"seed": 3, "num_hashes": 4}),
    "bm": dict(window=256, size=512, num_shards=2,
               sketch_kwargs={"seed": 2}),
    "hll": dict(window=2048, size=256, num_shards=4,
                sketch_kwargs={"seed": 5}),
    "mh": dict(window=1024, size=64, num_shards=2,
               sketch_kwargs={"seed": 5}),
}
TWO_STREAM = {"mh"}
N_OPS = 24  # parametrised kills cover indices 1..25 (> the 20 required)


def build_engine(kind, root, **over):
    kw = dict(KINDS[kind])
    kw.update(flush_batch_size=500, flush_interval_s=None,
              wal_dir=str(Path(root) / "wal"))
    kw.update(over)
    return StreamEngine(EngineConfig(kind, **kw))


def script(kind, n_ops=N_OPS, chunk=300, seed=11):
    """Deterministic op list: ingests with two mid-stream checkpoints."""
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(n_ops):
        if i in (8, 17):
            ops.append(("checkpoint",))
        else:
            keys = rng.integers(0, 800, size=chunk, dtype=np.uint64)
            side = (i % 2) if kind in TWO_STREAM else None
            ops.append(("ingest", keys, side))
    return ops


def run_ops(harness, ops, ckpt_dir):
    for op in ops:
        if op[0] == "checkpoint":
            harness.checkpoint(ckpt_dir)
        else:
            harness.ingest(op[1], side=op[2])


def state_of(engine):
    """Canonical bit-level state: every shard's (meta, arrays)."""
    out = []
    for snap in engine.snapshots():
        meta, arrays = descriptor_of(snap).sketch_state(snap)
        out.append((json.dumps(meta, sort_keys=True, default=repr),
                    {k: np.asarray(v) for k, v in arrays.items()}))
    return out


def assert_same_state(got, want):
    assert len(got) == len(want)
    for (gm, ga), (wm, wa) in zip(got, want):
        assert gm == wm
        assert sorted(ga) == sorted(wa)
        for k in wa:
            assert np.array_equal(ga[k], wa[k]), k


def reference_state(kind, root, ops):
    """Bit-level state of a crash-free run over exactly ``ops``."""
    ref_root = Path(root) / "ref"
    ref_root.mkdir(exist_ok=True)
    eng = build_engine(kind, ref_root)
    run_ops(CrashHarness(eng), ops, ref_root / "ckpt")
    state = state_of(eng)
    clock = eng.now()
    eng.close()
    return state, clock


def crash_then_recover(kind, root, ops, crash_at, *, fsync="always"):
    """Kill before op ``crash_at`` executes, then recover from disk."""
    crash_root = Path(root) / "crash"
    crash_root.mkdir(exist_ok=True)
    eng = build_engine(kind, crash_root, wal_fsync=fsync)
    # op-0 baseline: recovery needs a manifest to carry the config
    save_checkpoint(eng, crash_root / "ckpt")
    harness = CrashHarness(eng, crash_at_op=crash_at)
    with pytest.raises(SimulatedCrash):
        run_ops(harness, ops, crash_root / "ckpt")
        harness.kill()  # crash_at beyond the script: kill at the end
    return recover_engine(crash_root / "ckpt")


class TestKillAnywhereBitIdentical:
    """fsync=always: nothing admitted is ever lost."""

    @pytest.mark.parametrize("crash_at", range(1, 26))
    def test_cm_recovery_is_bit_identical(self, tmp_path, crash_at):
        ops = script("cm")
        want, clock = reference_state("cm", tmp_path, ops[: crash_at - 1])
        rec = crash_then_recover("cm", tmp_path, ops, crash_at)
        try:
            assert rec.now() == clock
            assert_same_state(state_of(rec), want)
        finally:
            rec.close()

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(sorted(KINDS)),
           crash_at=st.integers(min_value=1, max_value=N_OPS + 1))
    def test_any_kind_any_kill_point(self, kind, crash_at):
        with tempfile.TemporaryDirectory() as td:
            ops = script(kind)
            want, clock = reference_state(kind, td, ops[: crash_at - 1])
            rec = crash_then_recover(kind, td, ops, crash_at)
            try:
                assert rec.now() == clock
                assert_same_state(state_of(rec), want)
            finally:
                rec.close()

    def test_recovered_engine_reports_replayed_items(self, tmp_path):
        ops = script("cm")
        rec = crash_then_recover("cm", tmp_path, ops, len(ops) + 1)
        try:
            status = rec.wal_status()
            # everything after the last mid-stream checkpoint replays
            assert status["replayed_items"] > 0
            assert rec.now() == sum(
                op[1].size for op in ops if op[0] == "ingest"
            )
        finally:
            rec.close()


class TestOldManifestsRecover:
    """Manifests written by older versions recover exactly as before:
    ones that carry the removed flush-transport setting, whatever
    transport they named, and ones saved under the removed ``"block"``
    overload policy, which now reads as ``"raise"``."""

    def recover_rewritten(self, tmp_path, edit):
        """Crash a CM engine, rewrite its newest manifest's stored
        config with ``edit`` as an older version wrote it, re-sealing
        its self-checksum the way save_checkpoint does, and recover.
        Returns the recovered engine and the crash-free run's
        (state, clock)."""
        ops = script("cm")
        want, clock = reference_state("cm", tmp_path, ops)
        root = tmp_path / "crash"
        root.mkdir()
        eng = build_engine("cm", root)
        harness = CrashHarness(eng)
        run_ops(harness, ops, root / "ckpt")
        with pytest.raises(SimulatedCrash):
            harness.kill()
        manifest = latest_checkpoint(root / "ckpt") / "MANIFEST.json"
        meta = json.loads(manifest.read_text())
        meta.pop("manifest_crc")
        edit(meta["config"])
        crc, variant = checksum(json.dumps(meta, sort_keys=True).encode())
        meta["manifest_crc"] = {"crc": crc, "variant": variant}
        manifest.write_text(json.dumps(meta, indent=2))
        return recover_engine(root / "ckpt"), want, clock

    @pytest.mark.parametrize("transport", ["pickle", "shm"])
    def test_manifest_with_transport_key_recovers_bit_identical(
            self, tmp_path, transport):
        def edit(config):
            assert "transport" not in config
            config["transport"] = transport

        rec, want, clock = self.recover_rewritten(tmp_path, edit)
        try:
            assert rec.now() == clock
            assert rec.wal_status()["replayed_items"] > 0
            assert_same_state(state_of(rec), want)
        finally:
            rec.close()

    def test_manifest_with_block_policy_recovers_as_raise(self, tmp_path):
        def edit(config):
            assert "block_timeout_s" not in config
            config["overload_policy"] = "block"
            config["block_timeout_s"] = 2.0

        rec, want, clock = self.recover_rewritten(tmp_path, edit)
        try:
            assert rec.config.overload_policy == "raise"
            assert "block_timeout_s" not in rec.config.to_json()
            assert rec.now() == clock
            assert rec.wal_status()["replayed_items"] > 0
            assert_same_state(state_of(rec), want)
        finally:
            rec.close()
        # built directly, the retired policy is an error naming the
        # three that remain
        with pytest.raises(ValueError, match="shed_newest") as exc:
            EngineConfig("cm", window=64, size=64, overload_policy="block")
        for policy in ("raise", "shed_oldest", "shed_newest"):
            assert policy in str(exc.value)


class TestWeakerFsyncLosesAtMostTheTail:
    """fsync=off/interval: recovery lands on a record-aligned prefix."""

    @pytest.mark.parametrize("fsync", ["off", "interval"])
    def test_recovery_is_a_clean_prefix(self, tmp_path, fsync):
        crash_at = 22
        ops = script("cm")
        ingests = [op for op in ops[: crash_at - 1] if op[0] == "ingest"]
        rec = crash_then_recover("cm", tmp_path, ops, crash_at, fsync=fsync)
        try:
            recovered = rec.now()
            prefix_sums = np.cumsum(
                [0] + [op[1].size for op in ingests]
            ).tolist()
            # record-aligned: exactly some prefix of the admitted chunks
            assert recovered in prefix_sums
            # checkpoints fsync the log, so at least the suffix base holds
            n_at_last_ckpt = sum(
                op[1].size for op in ops[:17] if op[0] == "ingest"
            )
            assert recovered >= n_at_last_ckpt
            # and the recovered state is bit-identical to a crash-free
            # run over exactly that prefix — never a torn mid-chunk mix
            n_chunks = prefix_sums.index(recovered)
            want, _ = reference_state("cm", tmp_path, ingests[:n_chunks])
            assert_same_state(state_of(rec), want)
        finally:
            rec.close()


class TestCorruptionIsNeverSilent:
    def seeded(self, tmp_path, n_ckpts=2, **over):
        eng = build_engine("cm", tmp_path, **over)
        rng = np.random.default_rng(1)
        paths = []
        for _ in range(n_ckpts):
            eng.ingest(rng.integers(0, 800, size=500, dtype=np.uint64))
            paths.append(save_checkpoint(eng, tmp_path / "ckpt"))
        return eng, paths

    def test_shard_bitflip_falls_back_to_older_checkpoint(self, tmp_path):
        eng, paths = self.seeded(tmp_path)
        total = eng.now()
        simulate_process_kill(eng)
        flip_bit(paths[-1] / "shard-00.npz", 100)
        rec = recover_engine(tmp_path / "ckpt")
        try:
            # fell back to the older checkpoint, then replayed the WAL
            # suffix from its position: nothing lost, nothing corrupt
            assert rec.stats.recovered_from == str(paths[0])
            assert rec.now() == total
        finally:
            rec.close()

    def test_sole_corrupt_checkpoint_raises_typed(self, tmp_path):
        eng, paths = self.seeded(tmp_path, n_ckpts=1)
        simulate_process_kill(eng)
        flip_bit(paths[0] / "shard-00.npz", 100)
        with pytest.raises(CheckpointCorruptionError):
            recover_engine(tmp_path / "ckpt")

    def test_manifest_bitflip_is_detected(self, tmp_path):
        eng, paths = self.seeded(tmp_path, n_ckpts=1)
        simulate_process_kill(eng)
        flip_bit(paths[0] / "MANIFEST.json", 200)
        with pytest.raises(CheckpointCorruptionError):
            recover_engine(tmp_path / "ckpt")

    def test_nontail_wal_bitflip_raises_during_recovery(self, tmp_path):
        # tiny segments force a multi-segment log so the flip lands in
        # a fully-sealed (non-final) segment — unambiguous bit rot
        eng = build_engine("cm", tmp_path, wal_segment_bytes=2048)
        save_checkpoint(eng, tmp_path / "ckpt")
        rng = np.random.default_rng(1)
        for _ in range(10):
            eng.ingest(rng.integers(0, 800, size=100, dtype=np.uint64))
        simulate_process_kill(eng)
        segments = sorted((tmp_path / "wal").glob("wal-*.log"))
        assert len(segments) >= 2
        flip_bit(segments[0], 40)
        with pytest.raises(WalCorruptionError):
            recover_engine(tmp_path / "ckpt")


class TestCheckpointHygiene:
    def test_truncated_shard_file_skips_the_checkpoint(self, tmp_path):
        eng, paths = TestCorruptionIsNeverSilent().seeded(tmp_path)
        eng.close()
        shard = paths[-1] / "shard-00.npz"
        shard.write_bytes(shard.read_bytes()[:-10])
        # size mismatch vs the manifest's shard_meta → not complete
        assert latest_checkpoint(tmp_path / "ckpt") == paths[0]

    def test_prune_unlinks_manifest_before_rmtree(self, tmp_path, monkeypatch):
        eng, paths = TestCorruptionIsNeverSilent().seeded(tmp_path, n_ckpts=3)
        eng.close()
        import shutil as _shutil

        real_rmtree = _shutil.rmtree
        manifest_present = []

        def spying_rmtree(path, *args, **kwargs):
            manifest_present.append((Path(path) / "MANIFEST.json").exists())
            return real_rmtree(path, *args, **kwargs)

        monkeypatch.setattr(
            "repro.service.checkpoint.shutil.rmtree", spying_rmtree
        )
        prune_checkpoints(tmp_path / "ckpt", keep=1)
        # the manifest must already be gone when the dir is torn down:
        # a crash mid-prune can never leave a complete-looking ghost
        assert manifest_present and not any(manifest_present)
        assert latest_checkpoint(tmp_path / "ckpt") == paths[-1]


class TestHealthzDurability:
    def test_degraded_while_wal_fsync_errors(self, tmp_path, monkeypatch):
        eng = build_engine("cm", tmp_path)
        exporter = MetricsExporter(eng)  # _health() needs no server
        code, _body = exporter._health()
        assert code == 200
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (_ for _ in ()).throw(OSError("disk gone"))
        )
        with pytest.raises(WalWriteError):
            eng.ingest(np.arange(10, dtype=np.uint64))
        code, body = exporter._health()
        assert code == 503
        assert body["status"] == "degraded"
        assert "disk gone" in body["wal"]["last_error"]
        # the disk comes back: one clean sync restores service
        monkeypatch.setattr(os, "fsync", real_fsync)
        eng._wal.sync()
        code, body = exporter._health()
        assert code == 200 and body["status"] == "ok"
        eng.close()


class TestSupervisorWalFallback:
    def test_overflowed_replay_buffer_recovers_from_wal(self, tmp_path):
        stream = np.random.default_rng(5).integers(
            0, 500, size=8_000, dtype=np.uint64
        )
        config = EngineConfig(
            "cm", window=2048, size=1024, num_shards=4,
            flush_batch_size=700, flush_interval_s=None,
            sketch_kwargs={"seed": 7}, wal_dir=str(tmp_path / "wal"),
        )
        chaos = {}

        def factory(shards):
            chaos["x"] = ChaosExecutor(
                SerialExecutor(shards), kill_worker_after_ops=15
            )
            return chaos["x"]

        eng = StreamEngine(config, executor=factory)
        # replay_limit_items far below the stream: without the WAL this
        # exact setup is test_replay_overflow_is_unrecoverable
        sup = Supervisor(eng, tmp_path / "sup", replay_limit_items=100,
                         policy=RetryPolicy(backoff_base_s=0.0))
        try:
            for lo in range(0, stream.size, 1500):
                eng.ingest(stream[lo:lo + 1500])
            assert chaos["x"].kills, "chaos never fired"
            assert sup.log is None  # no in-memory log to overflow
            assert sup.snapshot()["replay_source"] == "wal"
            assert eng.down_shards == ()
            ref_cfg = EngineConfig(
                "cm", window=2048, size=1024, num_shards=4,
                flush_batch_size=700, flush_interval_s=None,
                sketch_kwargs={"seed": 7},
            )
            ref = StreamEngine(ref_cfg)
            ref.ingest(stream)
            probes = np.unique(stream)[:200]
            assert np.array_equal(eng.frequency_many(probes),
                                  ref.frequency_many(probes))
            ref.close()
        finally:
            eng.close()
