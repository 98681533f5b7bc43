#!/usr/bin/env python3
"""Compares two sets of xmodel benchmark runs against BENCHMARK.json's bounds.

    python3 xbench/compare.py BASE NEW

BASE and NEW each name records written by `run.py --out`: a directory of
them, one record file, or a baseline file with a set name, as in
xbench/baselines/4cpu-seed1.json:a. Only untraced runs are compared. Runs
pair up in the order they were made (list order, or file name order in a
directory), so measure the two sides alternately.

For each (end-to-end metric, workload) it prints each side's median and
quartiles, the change of the median, the share of pairs NEW wins (ties win
for neither side) and a verdict:

  improved    over at least 10 pairs, NEW wins at least 9 in 10 and its
              median beats BASE's by more than BASE's own quartile spread;
  unresolved  a side's quartile spread, as a share of its median, is wider
              than the bound, and NEW neither reads better than every BASE
              run nor worse than every BASE run by more than the bound;
  worse       NEW's median is worse than BASE's by more than the bound;
  unchanged   otherwise.

It exits 1 when any pair is worse or NEW fails a larger share of its
operations than BASE on some workload, 0 otherwise.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A gain needs at least this many pairs of runs behind it.
MIN_PAIRS_FOR_GAIN = 10


def load(spec):
    path, _, set_name = spec.partition(":")
    p = Path(path)
    if p.is_dir():
        records = [json.loads(f.read_text()) for f in sorted(p.glob("*.json"))]
    else:
        doc = json.loads(p.read_text())
        records = doc["sets"][set_name] if set_name else doc
        if isinstance(records, dict):
            records = [records]
    return [r for r in records if r["trace"] == 0]


def by_workload(records):
    out = {}
    for r in records:
        out.setdefault(r["workload"], []).append(r["result"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, new, lower_is_better, bound):
    """Returns (verdict, relative change of the median, win share)."""
    def better(x, y):
        return x < y if lower_is_better else x > y

    wins = sum(better(n, b) for b, n in zip(base, new))
    win_share = wins / min(len(base), len(new))
    bm, nm = statistics.median(base), statistics.median(new)
    bq1, bq3 = quartiles(base)
    nq1, nq3 = quartiles(new)
    change = (nm - bm) / bm if bm else 0.0
    worse_by = change if lower_is_better else -change
    spread = max((bq3 - bq1) / bm if bm else 0.0,
                 (nq3 - nq1) / nm if nm else 0.0)
    all_better = all(better(n, b) for n in new for b in base)
    all_worse = all(better(b, n) for n in new for b in base)
    if (min(len(base), len(new)) >= MIN_PAIRS_FOR_GAIN and win_share >= 0.9
            and better(nm, bm) and abs(nm - bm) > bq3 - bq1):
        return "improved", change, win_share
    if spread > bound and not all_better:
        if all_worse and worse_by > bound:
            return "worse", change, win_share
        return "unresolved", change, win_share
    if worse_by > bound:
        return "worse", change, win_share
    return "unchanged", change, win_share


def fmt(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = by_workload(load(argv[1])), by_workload(load(argv[2]))
    regression = False
    print(f"{'workload':<16} {'metric':<12} {'base median [q1, q3]':<30} "
          f"{'new median [q1, q3]':<30} {'change':>8} {'wins':>5}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in base or workload not in new:
            print(f"{workload:<16} (no runs on both sides)")
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            n = [r["metrics"][name]["value"] for r in new[workload]]
            v, change, wins = verdict(b, n, metric["better"] == "lower",
                                      metric["bound"])
            regression |= v == "worse"
            print(f"{workload:<16} {name:<12} {fmt(b):<30} {fmt(n):<30} "
                  f"{change:>+8.1%} {wins:>5.0%}  {v}")
        shares = []
        for side in (base, new):
            attempted = sum(r["attempted"] for r in side[workload])
            failed = sum(r["failed"] for r in side[workload])
            shares.append(failed / attempted if attempted else 1.0)
        if shares[1] > shares[0]:
            regression = True
        print(f"{workload:<16} failed share: base {shares[0]:.2%}, "
              f"new {shares[1]:.2%}")
    return 1 if regression else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
