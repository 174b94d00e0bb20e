"""Compare two sets of ledger runs under the bounds in BENCHMARK.json.

    python3 benchmarks/ledger/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmarks/ledger/compare.py PARENT_DIR CHANGE_DIR --claim ingest_peak_mips:cm-bulk

Both directories hold ``run.py`` result files (``sweep.py`` writes
them); untraced runs count.  A run whose checks failed is listed and
its metrics are left out; one on the change side fails the comparison.
For every (end-to-end metric, workload) pair the table shows each
side's median and quartiles, the change of the median in the metric's
worse direction, its bound, and a verdict.  The allowance is the bound
times the parent's median, and never less than the metric's
``ABSOLUTE_FLOOR``:

* ``unresolved``: the parent's own quartile distance is wider than the
  allowance, and not every change run reads better than every parent
  run;
* ``regressed``: the change's median is worse than the parent's by
  more than the allowance;
* ``improved``: the change's median is better, by more than the
  parent's quartile distance (or every change run beats every parent
  run);
* ``unchanged``: otherwise.

Each workload also gets a row for its failed operations over attempted
ones, counted over every run; more failures on the change side is a
regression.

``--claim metric:workload`` (repeatable) applies the gain rule to one
pair: runs are paired by seed, at least ten pairs, the change wins at
least nine tenths of them (ties count for neither), and the medians
differ by more than the parent's quartile distance.  A claim is not
met when a seed repeats on either side (the pairing is ambiguous) or
when the change fails more operations than the parent on any workload.

Exit code 1 when any pair regressed or is unresolved, a change run
failed its checks, or a claim is not met.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: smallest worsening that counts, in the metric's unit: set-up takes
#: a fraction of a millisecond on the serial workloads, where a
#: relative bound alone reads timer and scheduler noise as a change
ABSOLUTE_FLOOR = {"setup_s": 0.005}


class RunSet:
    """Every untraced run in one directory."""

    def __init__(self, directory: Path):
        self.runs: dict[str, list[tuple[str, dict]]] = {}
        for path in sorted(directory.glob("*.json")):
            if path.name.endswith("-spans.json"):
                continue
            record = json.loads(path.read_text())
            if record["env"]["trace"]:
                continue
            self.runs.setdefault(record["env"]["workload"], []).append((path.name, record))

    def failed_checks(self) -> list[str]:
        return [
            name for runs in self.runs.values()
            for name, record in runs if not record["correct"]
        ]

    def values(self, workload: str, metric: str) -> list[tuple[int, float]]:
        """``(seed, value)`` of every passing run that measured ``metric``."""
        out = []
        for _name, record in self.runs.get(workload, []):
            value = record["metrics"].get(metric, {}).get("value")
            if record["correct"] and value is not None:
                out.append((record["env"]["seed"], value))
        return out

    def repeated_seeds(self, workload: str) -> list[int]:
        seeds = Counter(r["env"]["seed"] for _n, r in self.runs.get(workload, []))
        return sorted(s for s, k in seeds.items() if k > 1)

    def failed_fraction(self, workload: str) -> tuple[int, int]:
        """``(failed, attempted)`` operations over every run, passing or not."""
        runs = [r for _n, r in self.runs.get(workload, [])]
        return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)


def summary(xs: list[float]) -> tuple[float, float, float]:
    """Median and the quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q2, q1, q3


def verdict(parent: list[float], change: list[float], bound: float, better: str,
            floor: float = 0.0) -> tuple[str, float]:
    """The verdict and the relative change of the median (positive: worse)."""
    sign = 1.0 if better == "lower" else -1.0
    p_med, p_q1, p_q3 = summary(parent)
    c_med = summary(change)[0]
    allowed = max(bound * abs(p_med), floor)
    worse_by = sign * (c_med - p_med)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if p_q3 - p_q1 > allowed and not all_better:
        v = "unresolved"
    elif worse_by > allowed:
        v = "regressed"
    elif worse_by < 0 and (all_better or -worse_by > p_q3 - p_q1):
        v = "improved"
    else:
        v = "unchanged"
    return v, worse_by / p_med


def claim(parent: list[tuple[int, float]], change: list[tuple[int, float]],
          better: str) -> tuple[bool, str]:
    """The gain rule over runs paired by seed."""
    sign = 1.0 if better == "lower" else -1.0
    p_by, c_by = dict(parent), dict(change)
    seeds = sorted(set(p_by) & set(c_by))
    wins = sum(sign * (c_by[s] - p_by[s]) < 0 for s in seeds)
    p_med, p_q1, p_q3 = summary([p_by[s] for s in seeds]) if seeds else (0, 0, 0)
    c_med = summary([c_by[s] for s in seeds])[0] if seeds else 0
    gap = sign * (p_med - c_med)
    met = len(seeds) >= 10 and wins >= 0.9 * len(seeds) and gap > p_q3 - p_q1
    return met, (
        f"{wins}/{len(seeds)} pairs won (need >= 9/10 of at least 10), "
        f"median gap {gap:+.6g} vs parent quartile distance {p_q3 - p_q1:.6g}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--claim", action="append", default=[], metavar="METRIC:WORKLOAD")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": RunSet(args.parent), "change": RunSet(args.change)}
    bad = 0
    for side, runs in sides.items():
        for name in runs.failed_checks():
            print(f"{side} run failed its checks, left out: {name}")
            bad += side == "change"
    repeated = set()
    for w in bench["workloads"]:
        for side, runs in sides.items():
            seeds = runs.repeated_seeds(w["name"])
            if seeds:
                repeated.add(w["name"])
                print(f"warning: {side} has more than one {w['name']} run for seeds {seeds}")
    print(f"{'workload':<14} {'metric':<14} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'worse':>8} {'bound':>6}  verdict")
    more_failures = []
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            p = [v for _s, v in sides["parent"].values(w["name"], m["name"])]
            c = [v for _s, v in sides["change"].values(w["name"], m["name"])]
            if not p or not c:
                print(f"{w['name']:<14} {m['name']:<14} missing runs "
                      f"(parent {len(p)}, change {len(c)})")
                bad += 1
                continue
            v, worse = verdict(p, c, m["bound"], m["better"],
                               ABSOLUTE_FLOOR.get(m["name"], 0.0))
            bad += v in ("regressed", "unresolved")
            ps, cs = summary(p), summary(c)
            print(f"{w['name']:<14} {m['name']:<14} "
                  f"{ps[0]:<10.4g} [{ps[1]:.4g}, {ps[2]:.4g}]".ljust(64)
                  + f" {cs[0]:<10.4g} [{cs[1]:.4g}, {cs[2]:.4g}]".ljust(35)
                  + f" {worse:>+8.2%} {m['bound']:>6.0%}  {v} (n={len(p)}/{len(c)})")
        (pf, pa), (cf, ca) = (sides[s].failed_fraction(w["name"]) for s in sides)
        worse_ops = bool(pa and ca) and cf * pa > pf * ca
        if worse_ops:
            more_failures.append(w["name"])
            bad += 1
        print(f"{w['name']:<14} {'failed ops':<14} {f'{pf}/{pa}':<34} {f'{cf}/{ca}':<34} "
              f"{'':>8} {'':>6}  {'regressed' if worse_ops else 'unchanged'}")
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    for spec in args.claim:
        metric, _, workload = spec.partition(":")
        if metric not in better:
            print(f"claim {spec}: unknown metric")
            bad += 1
            continue
        met, detail = claim(
            sides["parent"].values(workload, metric),
            sides["change"].values(workload, metric),
            better[metric],
        )
        if workload in repeated:
            met, detail = False, f"seeds repeat, so runs cannot be paired; {detail}"
        if more_failures:
            met, detail = False, f"more failed operations on {more_failures}; {detail}"
        print(f"claim {spec}: {'met' if met else 'NOT met'} ({detail})")
        bad += not met
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
