"""Acceptance: one scrape shows windowed stage quantiles + exemplars.

A process-executor engine with WAL durability is driven through every
hot-path stage (admit -> wal_append -> stamp -> flush_rpc -> apply ->
query_fanin); a single ``/metrics`` + ``/statusz`` scrape must then
expose windowed p50/p95/p99 latency per stage and exemplar trace-ids
an operator can feed straight into the trace ring.
"""

import json
import re
import urllib.request

import numpy as np

from repro.obs.exporter import MetricsExporter
from repro.obs.windows import ENGINE_STAGES
from repro.service import EngineConfig, StreamEngine

QUANTILE_LABELS = ("0.5", "0.95", "0.99")


def _fetch(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.read().decode("utf-8")


class TestStageScrape:
    def _drive(self, eng):
        rng = np.random.default_rng(4)
        for _ in range(6):
            eng.ingest(rng.integers(0, 5000, size=800, dtype=np.uint64))
            eng.flush()
            eng.frequency(17)

    def test_metrics_and_statusz_cover_the_hot_path(self, tmp_path):
        cfg = EngineConfig("cm", window=8192, size=2048, num_shards=2,
                           wal_dir=str(tmp_path / "wal"),
                           flush_batch_size=100_000, flush_interval_s=None,
                           sketch_kwargs={"seed": 2})
        with StreamEngine(cfg, executor="process", obs=True) as eng, \
                MetricsExporter(eng) as exp:
            self._drive(eng)
            text = _fetch(exp.url + "/metrics")

            for stage in ENGINE_STAGES:
                for q in QUANTILE_LABELS:
                    needle = (
                        f'engine_stage_latency_seconds{{stage="{stage}"'
                        f',quantile="{q}"}}'
                    )
                    assert needle in text, f"missing {needle}"

            exemplars = re.findall(
                r'engine_stage_exemplar_seconds\{stage="(\w+)"'
                r',trace_id="([0-9a-f]{16})"\}',
                text,
            )
            assert len(exemplars) >= 4
            # exemplars attribute traces to concrete stages, not one blob
            assert len({stage for stage, _ in exemplars}) >= 3

            status = json.loads(_fetch(exp.url + "/statusz"))
            stages = status["telemetry"]["stages"]["stages"]
            assert set(stages) == set(ENGINE_STAGES)
            populated = [
                s for s in ENGINE_STAGES
                if stages[s]["quantiles_s"]["0.5"] is not None
            ]
            assert len(populated) >= 4
            for stage in populated:
                qs = stages[stage]["quantiles_s"]
                assert qs["0.5"] <= qs["0.95"] <= qs["0.99"]
            traced = [
                e["trace_id"]
                for s in populated
                for e in stages[s]["exemplars"]
            ]
            assert traced and all(
                re.fullmatch(r"[0-9a-f]{16}", t) for t in traced
            )

            # the windowed registry view rides the same scrape: derived
            # rate gauges for the engine counters appear after a second
            # scrape establishes a delta baseline
            text2 = _fetch(exp.url + "/metrics")
            assert 'window="1m"' in text2
