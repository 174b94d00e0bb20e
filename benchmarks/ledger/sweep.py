"""Repeat ledger runs over seeds and workloads into a results directory.

    python3 benchmarks/ledger/sweep.py --out results/set-a --runs 10
    python3 benchmarks/ledger/sweep.py --out results/pairs --runs 10 \\
        --root ../parent-checkout --root .

Run ``i`` uses seed ``--first-seed + i`` for every workload.  With one
``--root`` the result files land in ``--out``; with two (parent first,
then change) each root gets ``--out/<index>-<name>/`` and the order of
the two alternates from one run to the next, so the pairs ``compare.py
--claim`` needs come out interleaved.  Each run is a fresh
``run.py`` process of that root's own benchmark copy.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload in BENCHMARK.json")
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", action="append", type=Path,
                    help="checkout to run (repeatable); default: this one")
    args = ap.parse_args(argv)
    roots = [r.resolve() for r in (args.root or [HERE.parents[1]])]
    bench = json.loads((roots[-1] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    out = Path(args.out).resolve()
    dests = (
        [out] if len(roots) == 1
        else [out / f"{i}-{root.name}" for i, root in enumerate(roots)]
    )
    failures = 0
    for run in range(args.runs):
        seed = args.first_seed + run
        order = list(range(len(roots)))
        if run % 2:
            order.reverse()
        for workload in workloads:
            for i in order:
                cmd = [
                    sys.executable, str(roots[i] / "benchmarks" / "ledger" / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(args.trace),
                    "--out", str(dests[i]),
                ]
                proc = subprocess.run(cmd, cwd=roots[i], capture_output=True, text=True)
                last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
                print(f"run {run} seed {seed} {workload} root {i}: exit {proc.returncode} {last[0][:160]}",
                      flush=True)
                if proc.returncode:
                    failures += 1
                    sys.stderr.write(proc.stderr[-2000:])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
