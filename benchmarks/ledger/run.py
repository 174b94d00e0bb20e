"""Run one ledger workload, check its answers and print its metrics.

    python3 benchmarks/ledger/run.py --workload cm-bulk --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout: the benchmark imports the
``repro`` package from this checkout's ``src/`` (and refuses to run
without it), with every ``REPRO_*`` variable removed from the
environment so product defaults are what gets measured.

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``.
``--trace 1`` runs the workload once untraced, then again with the
span ledger installed (see ``ledger.py``), then the bare-kernel
ledger, and prints every per-layer metric; the tracing overhead is the
difference between the two passes.  Either way a result file with the
environment stamp, every metric with its sample count, the checks and
(traced) the span dump lands in ``--out`` (default
``benchmarks/ledger/out``).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _import_repro() -> None:
    """Put this checkout's ``src`` first on the path, with no
    ``REPRO_*`` overrides, and make sure that is what gets imported."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no repro package under {src}; run from a source checkout")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"run.py: imported repro from {repro.__file__}, not {src}")


def _git_head() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _env_stamp(args, workload, why: str, started: float) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_head": _git_head(),
        "workload": workload.name,
        "why": why,
        "params": workload.params(),
        "seed": args.seed,
        "run_seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "started_unix": started,
        "finished_unix": time.time(),
    }


def _line(entries: list[dict], values: dict, absent_status: str) -> dict:
    """The metrics of the result line, in ``BENCHMARK.json`` order and
    units; a metric without a value carries a status instead of 0."""
    out = {}
    for entry in entries:
        value = values.get(entry["name"])
        if value is None:
            out[entry["name"]] = {"value": None, "unit": entry["unit"], "status": absent_status}
        else:
            out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


def _reap_children() -> None:
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(5)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of each timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink phase length, stream and item counts (smoke tests)")
    ap.add_argument("--out", default=None, help="result directory")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    started = time.time()
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in whys:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; one of {sorted(whys)}")
    _import_repro()
    from ledger import Ledger
    from workloads import WORKLOADS, kernel_ledger, make_inputs, run_pass

    import numpy as np

    w = WORKLOADS[args.workload]
    seconds = args.seconds * args.scale
    out_dir = Path(args.out) if args.out else HERE / "out"
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    work = HERE / ".work" / tag
    try:
        inputs = make_inputs(w, args.seed, args.scale)
        passes = [run_pass(w, inputs, seconds, args.scale, work, Ledger())]
        e2e = passes[0].metrics()
        record = {
            "metrics": {
                e["name"]: {"value": e2e[e["name"]][0], "unit": e["unit"],
                            "samples": e2e[e["name"]][1]}
                for e in bench["end_to_end"]
            },
            "tails": passes[0].tails(),
        }
        values = {name: v for name, (v, _n) in e2e.items()}
        entries, absent_status = bench["end_to_end"], "missing"
        if args.trace:
            ledger = Ledger().install()
            try:
                passes.append(run_pass(w, inputs, seconds, args.scale, work, ledger))
            finally:
                ledger.uninstall()
            base, traced = passes
            layers = ledger.layer_metrics()
            layers.update(base.tails())
            layers["state_bytes"] = traced.state_bytes
            layers["driver.late_p99_ms"] = (
                float(np.percentile(traced.late.values, 99)) * 1e3 if len(traced.late) else 0.0
            )
            layers["answer.error_pct"] = traced.error_pct
            if base.items and traced.items:
                layers["trace.overhead_pct"] = 100.0 * (
                    (traced.busy_s / traced.items) / (base.busy_s / base.items) - 1.0
                )
            if layers["driver.ingest_mips"]:
                layers.update(kernel_ledger(
                    w, inputs, args.scale, layers["driver.ingest_mips"]
                ))
            spans = out_dir / f"{tag}-spans.json"
            out_dir.mkdir(parents=True, exist_ok=True)
            ledger.write(spans)
            record["ledger"] = {
                e["name"]: {"value": layers.get(e["name"]), "unit": e["unit"]}
                for e in bench["per_layer"]
            }
            record["unresolved"] = ledger.unresolved
            record["spans"] = spans.name
            values, entries, absent_status = layers, bench["per_layer"], "unresolved"
    finally:
        _reap_children()
    result = {
        "correct": all(p.correct for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": _line(entries, values, absent_status),
    }
    record = {
        "env": _env_stamp(args, w, whys[w.name], started),
        **record,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "checks": [c for p in passes for c in p.checks],
        "errors": [e for p in passes for e in p.errors],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"{w.name} seed={args.seed} seconds={args.seconds} scale={args.scale} "
          f"trace={args.trace} nproc={record['env']['nproc']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<34} {m['value']!s:>24} {m['unit']:<9} n={m['samples']}")
    for name, m in record.get("ledger", {}).items():
        print(f"  {name:<34} {m['value']!s:>24} {m['unit']}")
    for c in record["checks"]:
        print(f"  check {c['name']}: {'ok' if c['passed'] else 'FAILED'} ({c['detail']})")
    for err in record["errors"]:
        print(err, file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
