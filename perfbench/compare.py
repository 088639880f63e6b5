#!/usr/bin/env python3
"""Summarise or compare saved benchmark results (see perfbench/run.py).

    python3 perfbench/compare.py spread DIR
        Per workload and metric: median, quartile spread as a share of
        the median, and the bound from BENCHMARK.json.
    python3 perfbench/compare.py pair BASE_DIR NEW_DIR
        Per workload and metric: both medians and the change, flagged
        when it is worse than the metric's bound. Refuses to pair runs
        whose host/build stamps differ in anything but the commit.

Only untraced runs are read. Each DIR holds the <workload>-seed<N>-
trace0.json records run.py writes.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(directory):
    runs = {}
    for f in sorted(pathlib.Path(directory).glob("*-trace0.json")):
        rec = json.loads(f.read_text())
        runs.setdefault(rec["workload"], []).append(rec)
    return runs


def metrics_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def host_key(stamp):
    return {k: v for k, v in (stamp or {}).items() if k != "commit"}


def values(recs, name):
    return [r["result"]["metrics"][name]["value"] for r in recs
            if r["result"]["correct"] and name in r["result"]["metrics"]]


def spread(directory):
    spec = metrics_spec()
    for workload, recs in sorted(load(directory).items()):
        bad = sum(not r["result"]["correct"] for r in recs)
        print(f"{workload}: {len(recs)} runs, {bad} not correct")
        for name, m in spec.items():
            v = values(recs, name)
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med if med else float("inf")
            flag = "" if share <= m["bound"] / 3 else "  > bound/3"
            print(f"  {name:14s} median {med:12.6g} {m['unit']:6s} "
                  f"spread {share:6.3f}  bound {m['bound']:.2f}{flag}")


def pair(base_dir, new_dir):
    spec = metrics_spec()
    base, new = load(base_dir), load(new_dir)
    stamps = {json.dumps(host_key(r["stamp"]), sort_keys=True)
              for runs in (base, new) for recs in runs.values()
              for r in recs}
    if len(stamps) > 1:
        print("refusing to pair: host/build stamps differ:")
        for s in sorted(stamps):
            print("  " + s)
        return 2
    worse = 0
    for workload in sorted(set(base) & set(new)):
        print(workload)
        for name, m in spec.items():
            b, n = values(base[workload], name), values(new[workload], name)
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else 0.0
            regress = change > m["bound"] if m["better"] == "lower" \
                else -change > m["bound"]
            worse += regress
            print(f"  {name:14s} {mb:12.6g} -> {mn:12.6g} {m['unit']:6s} "
                  f"{change:+7.2%}{'  WORSE than bound' if regress else ''}")
    return 1 if worse else 0


def main(argv):
    if len(argv) == 3 and argv[1] == "spread":
        spread(argv[2])
        return 0
    if len(argv) == 4 and argv[1] == "pair":
        return pair(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
