#!/usr/bin/env python3
"""Compare two sets of benchmark results, or report the spread of one.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR
    python3 perfbench/compare.py --spread DIR

A result set is a directory of files written by `run.py --out DIR`; only
--trace 0 results count. For every workload x end-to-end metric of
BENCHMARK.json the comparison prints one verdict:

  improved    at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither side), and the medians differ by more
              than the base's interquartile distance;
  worse       the change's median is worse than the base's by more than the
              metric's bound;
  unresolved  the run-to-run spread (interquartile distance over median) of
              either side exceeds the bound, unless every run of the change
              reads better than every run of the base;
  no change   otherwise.

Pairs are formed in run order: the i-th base run with the i-th change run.
Alternate which side runs first from pair to pair; the report warns when
the two sets were not interleaved in time. Exits 1 when any verdict is
"worse".

--spread prints, per workload x metric, the median and the interquartile
distance over the median (statistics.quantiles, n=4) next to the bound.
"""
import argparse
import collections
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(directory):
    """{workload: [record, ...]} of trace-0 results, in run order."""
    runs = collections.defaultdict(list)
    for f in sorted(pathlib.Path(directory).glob("*.json")):
        rec = json.loads(f.read_text())
        if rec.get("trace") == 0 and rec["result"].get("correct"):
            runs[rec["workload"]].append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["time"])
    return runs


def values(recs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in recs
            if metric in r["result"]["metrics"]]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def spread(v):
    q1, _, q3 = quartiles(v)
    med = statistics.median(v)
    return (q3 - q1) / med if med else float("inf")


def verdict(base, change, better, bound):
    sign = 1 if better == "higher" else -1
    mb, mc = statistics.median(base), statistics.median(change)
    q1, _, q3 = quartiles(base)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(mc - mb) > q3 - q1):
        return "improved"
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    if max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved"
    if sign * (mc - mb) / mb < -bound:
        return "worse"
    return "no change"


def interleaved(base, change):
    tb = [r["time"] for r in base]
    tc = [r["time"] for r in change]
    return not (max(tb) < min(tc) or max(tc) < min(tb))


def fmt(v):
    q1, q2, q3 = quartiles(v)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(spec, base_dir, change_dir):
    base, change = load(base_dir), load(change_dir)
    worse = False
    print(f"{'workload':20} {'metric':16} {'base median [q1, q3]':32} "
          f"{'change median [q1, q3]':32} {'delta':>8} {'wins':>6}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if not base.get(name) or not change.get(name):
            print(f"{name:20} (no results on one side)")
            continue
        if not interleaved(base[name], change[name]):
            print(f"{name:20} warning: base and change runs were not "
                  "interleaved in time")
        for m in spec["end_to_end"]:
            b, c = values(base[name], m["name"]), values(change[name], m["name"])
            if not b or not c:
                continue
            v = verdict(b, c, m["better"], m["bound"])
            worse |= v == "worse"
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
            delta = (statistics.median(c) - statistics.median(b)) / \
                statistics.median(b)
            print(f"{name:20} {m['name']:16} {fmt(b):32} {fmt(c):32} "
                  f"{delta:+8.2%} {wins:>2}/{min(len(b), len(c)):<3}  {v}")
    return 1 if worse else 0


def report_spread(spec, directory):
    runs = load(directory)
    bad = False
    for w in spec["workloads"]:
        recs = runs.get(w["name"], [])
        for m in spec["end_to_end"]:
            v = values(recs, m["name"])
            if len(v) < 2:
                continue
            s = spread(v)
            exempt = m["name"] == "setup_s"
            flag = "ok" if exempt or s <= m["bound"] / 3 else \
                ("within bound" if s <= m["bound"] else "OVER BOUND")
            bad |= not exempt and s > m["bound"]
            print(f"{w['name']:20} {m['name']:16} n={len(v):<3} "
                  f"median={statistics.median(v):<12.5g} spread={s:.4f} "
                  f"bound={m['bound']:<5} {flag}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dirs", nargs="+", metavar="DIR")
    ap.add_argument("--spread", action="store_true",
                    help="report the spread of one result set")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    a = ap.parse_args()
    spec = json.loads(pathlib.Path(a.benchmark).read_text())
    if a.spread:
        if len(a.dirs) != 1:
            ap.error("--spread takes one directory")
        return report_spread(spec, a.dirs[0])
    if len(a.dirs) != 2:
        ap.error("give BASE_DIR and CHANGE_DIR")
    return compare(spec, *a.dirs)


if __name__ == "__main__":
    sys.exit(main())
