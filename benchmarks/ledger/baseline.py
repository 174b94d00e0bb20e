"""Summarise a directory of ledger runs into the recorded baseline.

    python3 benchmarks/ledger/baseline.py RUNS_DIR > benchmarks/ledger/baseline.json

Per workload and end-to-end metric, and per workload and ``tails``
value (whole-run rate, latency medians and p99s): median, quartiles
(as ``statistics.quantiles(n=4)`` gives them), spread (quartile
distance over median) and run count of the passing untraced runs; per
workload the failed and attempted operations of every untraced run;
plus the ledger of the newest traced run of each workload, and the
environment stamp of the newest run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from compare import RunSet, summary


def main(argv=None) -> int:
    directory = Path((argv or sys.argv[1:])[0])
    runs = RunSet(directory)
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    records = [
        json.loads(p.read_text())
        for p in sorted(directory.glob("*.json"))
        if not p.name.endswith("-spans.json")
    ]
    records.sort(key=lambda r: r["env"]["started_unix"])
    out = {"env": records[-1]["env"], "left_out": runs.failed_checks(),
           "end_to_end": {}, "tails": {}, "operations": {}, "ledger": {}}
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            xs = [v for _seed, v in runs.values(w["name"], m["name"])]
            if not xs:
                continue
            med, q1, q3 = summary(xs)
            out["end_to_end"].setdefault(w["name"], {})[m["name"]] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "runs": len(xs),
            }
        tails: dict[str, list[float]] = {}
        for _name, record in runs.runs.get(w["name"], []):
            for key, value in record.get("tails", {}).items():
                if record["correct"] and value is not None:
                    tails.setdefault(key, []).append(value)
        for key, xs in tails.items():
            med, q1, q3 = summary(xs)
            out["tails"].setdefault(w["name"], {})[key] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "runs": len(xs),
            }
        failed, attempted = runs.failed_fraction(w["name"])
        out["operations"][w["name"]] = {"failed": failed, "attempted": attempted}
    for r in records:
        if r["env"]["trace"]:
            out["ledger"][r["env"]["workload"]] = {
                "seed": r["env"]["seed"],
                "metrics": {k: m["value"] for k, m in r["ledger"].items()},
            }
    for key in ("workload", "why", "params", "seed", "trace", "started_unix", "finished_unix"):
        out["env"].pop(key, None)
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
