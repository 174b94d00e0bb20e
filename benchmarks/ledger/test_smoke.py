"""Smoke test of the ledger benchmark: every workload at ``--scale 0.02``
(same code paths, a fiftieth of the work).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_smoke.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ledger import LAYER_TARGETS, SPAN_COLUMNS, SPAN_LAYERS, Ledger  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(out: Path, workload: str, trace: int, root: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "ledger" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "10",
         "--trace", str(trace), "--scale", "0.02", "--out", str(out)],
        capture_output=True, text=True, timeout=170, cwd=root,
    )
    return proc


def _result(out: Path, workload: str, trace: int):
    proc = _run(out, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    (record_path,) = [p for p in out.glob("*.json") if not p.name.endswith("-spans.json")]
    return line, json.loads(record_path.read_text())


def test_catalogue_is_within_limits():
    e2e, layers = BENCH["end_to_end"], BENCH["per_layer"]
    assert len(e2e) <= 16
    assert len(layers) <= 128
    names = [m["name"] for m in e2e + layers] + WORKLOADS
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)
    layer_names = {m["name"] for m in layers}
    for layer in SPAN_LAYERS:
        assert {f"{layer}.{col}" for col, _unit in SPAN_COLUMNS} <= layer_names


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_metric(tmp_path, workload):
    line, record = _result(tmp_path, workload, trace=1)
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert all(c["passed"] for c in record["checks"]), record["checks"]
    assert list(line["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    for m in BENCH["per_layer"]:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    for m in BENCH["end_to_end"]:
        got = record["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0 and got["samples"] >= 1, (m["name"], got)
    env = record["env"]
    for key in ("nproc", "python", "numpy", "git_head", "seed", "params", "run_seconds"):
        assert key in env
    assert (tmp_path / record["spans"]).is_file()


def test_untraced_line_has_every_end_to_end_metric(tmp_path):
    line, _record = _result(tmp_path, "cm-bulk", trace=0)
    assert line["correct"] is True
    assert list(line["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    for m in BENCH["end_to_end"]:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_unresolved_entry_point_is_reported_not_zero():
    targets = dict(LAYER_TARGETS)
    targets["core.query"] += ("repro.core.she_cm:SheCountMin.no_such_query",)
    targets["merge"] = ("repro.no_such_module:merge_many",)
    ledger = Ledger(targets).install()
    try:
        from repro.core.she_cm import SheCountMin

        assert not hasattr(SheCountMin.frequency_many, "__wrapped__")
        metrics = ledger.layer_metrics()
    finally:
        ledger.uninstall()
    assert set(ledger.unresolved) == {"core.query", "merge"}
    line = run._line(BENCH["per_layer"], metrics, "unresolved")
    for layer in ("core.query", "merge"):
        for col, unit in SPAN_COLUMNS:
            assert line[f"{layer}.{col}"] == {
                "value": None, "unit": unit, "status": "unresolved"
            }
    assert line["hashing.calls"] == {"value": 0, "unit": "count"}


class _StallingEngine:
    """Stalls in its first ingest call, then answers at once."""

    def __init__(self, stall_s: float):
        self.stall_s = stall_s

    def ingest(self, keys):
        time.sleep(self.stall_s)
        self.stall_s = 0.0

    def frequency_many(self, keys):
        return np.zeros(len(keys), dtype=np.int64)


def test_open_loop_fails_the_run_when_operations_start_late():
    w = workloads.WORKLOADS["cm-mixed-open"]
    stream = np.arange(1 << 16, dtype=np.uint64)
    inputs = workloads.Inputs(stream, stream[: w.query_keys], stream,
                              np.random.default_rng(0))
    p = workloads.Pass()
    stall = workloads.LATE_LIMIT_S + 0.3
    workloads._open(p, w, _StallingEngine(stall), inputs, stall + 0.2, 1, Ledger())
    assert p.failed > 0
    assert not p.correct
    assert [c["name"] for c in p.checks if not c["passed"]] == ["no_late_operations"]


def _write_runs(directory: Path, values: dict[int, float], failed=None,
                prefix: str = "run") -> None:
    """One untraced cm-bulk result file per ``seed: ingest_peak_mips``."""
    directory.mkdir(parents=True, exist_ok=True)
    for i, (seed, mips) in enumerate(values.items()):
        n_failed = (failed or {}).get(seed, 0)
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in BENCH["end_to_end"]}
        metrics["ingest_peak_mips"]["value"] = mips
        record = {
            "env": {"workload": "cm-bulk", "seed": seed, "trace": 0},
            "metrics": metrics,
            "correct": n_failed == 0,
            "attempted": 1000,
            "failed": n_failed,
        }
        (directory / f"{prefix}-{i}.json").write_text(json.dumps(record))


def test_compare_refuses_a_gain_with_more_failed_operations(tmp_path, capsys):
    parent = {s: 1.0 + 0.001 * s for s in range(10)}
    change = {s: 2.0 + 0.001 * s for s in range(10)}
    _write_runs(tmp_path / "p", parent)
    _write_runs(tmp_path / "c", change)
    assert compare.main([str(tmp_path / "p"), str(tmp_path / "c"),
                         "--claim", "ingest_peak_mips:cm-bulk"]) == 1  # other workloads missing
    assert "claim ingest_peak_mips:cm-bulk: met" in capsys.readouterr().out

    _write_runs(tmp_path / "c", change, failed={3: 2})
    assert compare.main([str(tmp_path / "p"), str(tmp_path / "c"),
                         "--claim", "ingest_peak_mips:cm-bulk"]) == 1
    out = capsys.readouterr().out
    assert "change run failed its checks" in out
    assert re.search(r"cm-bulk +failed ops +0/10000 +2/10000 +regressed", out)
    assert "claim ingest_peak_mips:cm-bulk: NOT met (more failed operations" in out


def test_compare_keeps_every_run_and_flags_repeated_seeds(tmp_path, capsys):
    _write_runs(tmp_path / "p", {s: 1.0 for s in range(10)})
    _write_runs(tmp_path / "c", {s: 2.0 for s in range(10)})
    _write_runs(tmp_path / "c", {0: 9.0}, prefix="again")
    runs = compare.RunSet(tmp_path / "c")
    assert sorted(v for _s, v in runs.values("cm-bulk", "ingest_peak_mips")) == [2.0] * 10 + [9.0]
    assert runs.repeated_seeds("cm-bulk") == [0]
    compare.main([str(tmp_path / "p"), str(tmp_path / "c"), "--claim", "ingest_peak_mips:cm-bulk"])
    out = capsys.readouterr().out
    assert "warning: change has more than one cm-bulk run for seeds [0]" in out
    assert "claim ingest_peak_mips:cm-bulk: NOT met (seeds repeat" in out


def test_setup_floor_absorbs_sub_millisecond_changes():
    parent = [0.0002, 0.00021, 0.00022, 0.00023, 0.00024]
    assert compare.verdict(parent, [x * 3 for x in parent], 0.25, "lower",
                           compare.ABSOLUTE_FLOOR["setup_s"])[0] == "unchanged"
    assert compare.verdict(parent, [x + 0.006 for x in parent], 0.25, "lower",
                           compare.ABSOLUTE_FLOOR["setup_s"])[0] == "regressed"


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = _run(tmp_path / "out", "cm-bulk", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
