"""Trace propagation survives chaos: slow workers and stalled RPCs.

The flush root span must keep its parent/child linkage to worker-side
apply spans when a :class:`ChaosExecutor` injects latency, and a
stalled worker that trips the RPC deadline must still file the root
span, tagged with the error class — exactly the situations where an
operator reaches for the trace ring.
"""

import os

import numpy as np
import pytest

from repro.service import EngineConfig, StreamEngine
from repro.service.errors import ShardTimeoutError
from repro.service.executor import ProcessExecutor
from repro.service.faults import ChaosExecutor


def _cfg(**kw):
    kw.setdefault("flush_batch_size", 100_000)  # explicit flush only
    kw.setdefault("flush_interval_s", None)
    kw.setdefault("sketch_kwargs", {"seed": 3})
    return EngineConfig("cm", window=4096, size=1024, num_shards=2, **kw)


class TestSlowWorkerPropagation:
    def test_worker_apply_spans_link_to_flush_root(self):
        chaos = {}

        def factory(shards):
            chaos["x"] = ChaosExecutor(
                ProcessExecutor(shards, num_workers=2, timeout_s=5.0),
                slow_workers={0: 0.05},
            )
            return chaos["x"]

        eng = StreamEngine(_cfg(), executor=factory, obs=True)
        try:
            eng.ingest(np.arange(2000, dtype=np.uint64))
            eng.flush()
            spans = eng.obs.tracer.spans()
            root = [s for s in spans if s.name == "engine.flush"][-1]
            workers = [
                s for s in eng.obs.tracer.spans(root.trace_id)
                if s.name == "worker.apply"
            ]
            assert len(workers) == 2
            # one apply message per worker, tagged with the shards it carries
            assert sorted(s.tags["shards"] for s in workers) == [[0], [1]]
            for span in workers:
                assert span.parent_id == root.span_id
                assert span.pid != os.getpid()  # measured inside the worker
            # the chaos latency is paid on the RPC, outside the worker's
            # measured apply section: attribution separates the two
            stages = eng.obs.stages
            assert stages.quantile("apply", 0.5) is not None
            assert stages.quantile("flush_rpc", 0.5) >= 0.05
        finally:
            eng.close()


class TestStalledWorkerRootSpan:
    def test_deadline_trip_files_the_root_span_with_error(self):
        chaos = {}

        def factory(shards):
            chaos["x"] = ChaosExecutor(
                ProcessExecutor(shards, num_workers=2, timeout_s=0.3)
            )
            return chaos["x"]

        eng = StreamEngine(
            _cfg(rpc_timeout_s=0.3), executor=factory, obs=True
        )
        try:
            eng.ingest(np.arange(1000, dtype=np.uint64))
            # stall the next op's worker past the ack deadline
            chaos["x"]._delay_ops = {chaos["x"].ops + 1: 1.0}
            with pytest.raises(ShardTimeoutError):
                eng.flush()
            roots = [
                s for s in eng.obs.tracer.spans()
                if s.name == "engine.flush"
            ]
            assert roots, "root span must be filed even on failure"
            assert roots[-1].tags["error"] == "ShardTimeoutError"
        finally:
            eng.close()
