#!/usr/bin/env python3
"""Compares two benchmark result sets, metric by metric.

    python3 perfbench/compare.py BEFORE AFTER [--benchmark BENCHMARK.json]

BEFORE and AFTER are each a directory of result files (as the benchmark
writes them under .bench_out/results/) or a file of such records, one
JSON object per line. For every workload x end-to-end metric in
BENCHMARK.json the tool prints, per set, the median and quartiles of the
untraced runs, their spread (interquartile range over median), and a
verdict against the metric's bound:

    unresolved  either set's spread exceeds the bound: the runs cannot
                tell a change of that size from noise; or the runs of the
                row differ in host stamp (usable CPUs, threads, build type
                or suite scale), so they do not measure the same thing
    worse       AFTER's median is worse than BEFORE's by more than the bound
    better      AFTER's median is better by more than the bound
    same        otherwise

Records of runs that were not correct (a failed output or correct: false)
are left out and counted on standard error. Per-layer metrics of traced
runs, when both sets have them, are listed
with their medians and the AFTER/BEFORE ratio, without a verdict. The exit
code is 1 when any verdict is worse or unresolved, else 0.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Host-stamp fields that change what a run measures.
STAMP_KEYS = ("usable_cpus", "threads", "build_type", "suite_scale")


def load_records(path):
    records = []
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            if name.endswith(".json"):
                with open(os.path.join(path, name)) as f:
                    records.append(json.load(f))
    else:
        with open(path) as f:
            records = [json.loads(line) for line in f if line.strip()]
    records = [r for r in records if "workload" in r and "metrics" in r]
    good = [r for r in records if r.get("correct") and not r.get("failed")]
    if len(good) < len(records):
        print(f"{path}: left out {len(records) - len(good)} record(s) of "
              f"runs that were not correct", file=sys.stderr)
    return good


def stamps(records, traced):
    """{workload: set of host-stamp tuples} over records with the trace."""
    out = {}
    for r in records:
        if bool(r.get("trace")) == traced:
            host = r.get("host", {})
            out.setdefault(r["workload"], set()).add(
                tuple(host.get(k) for k in STAMP_KEYS))
    return out


def group(records, traced):
    """{workload: {metric: [values]}} over records with the given trace."""
    out = {}
    for r in records:
        if bool(r.get("trace")) != traced:
            continue
        per = out.setdefault(r["workload"], {})
        for name, m in r["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def summary(values):
    """(median, q1, q3, spread) of a list; spread is IQR / median."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def verdict(before, after, bound, better):
    mb, _, _, sb = summary(before)
    ma, _, _, sa = summary(after)
    if sb > bound or sa > bound or not mb:
        return "unresolved"
    change = (ma - mb) / abs(mb)
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(HERE),
                                         "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    recs_b, recs_a = load_records(args.before), load_records(args.after)
    before, after = group(recs_b, False), group(recs_a, False)
    stamp_b, stamp_a = stamps(recs_b, False), stamps(recs_a, False)

    bad = 0
    print(f"{'workload':12s} {'metric':14s} {'bound':>6s}  "
          f"{'before median [q1, q3] spread':>40s}  "
          f"{'after median [q1, q3] spread':>40s}  {'change':>8s}  verdict")
    for w in (x["name"] for x in bench["workloads"]):
        hosts = stamp_b.get(w, set()) | stamp_a.get(w, set())
        if len(hosts) > 1:
            print(f"{w:12s} host stamps differ ({', '.join(STAMP_KEYS)}): "
                  + "; ".join(str(h) for h in sorted(hosts, key=str)))
        for m in bench["end_to_end"]:
            name = m["name"]
            vb = before.get(w, {}).get(name)
            va = after.get(w, {}).get(name)
            if not vb or not va:
                print(f"{w:12s} {name:14s} missing in "
                      f"{'before' if not vb else 'after'}")
                bad += 1
                continue
            cells = []
            for v in (vb, va):
                med, q1, q3, spread = summary(v)
                cells.append(f"{med:10.4g} [{q1:.4g}, {q3:.4g}] "
                             f"{spread:6.3f} n={len(v):<2d}")
            change = (summary(va)[0] - summary(vb)[0]) / abs(summary(vb)[0])
            v = ("unresolved" if len(hosts) > 1 else
                 verdict(vb, va, m["bound"], m["better"]))
            bad += v in ("worse", "unresolved")
            print(f"{w:12s} {name:14s} {m['bound']:6.3f}  {cells[0]:>40s}  "
                  f"{cells[1]:>40s}  {change:+8.3f}  {v}")

    layers_b, layers_a = group(recs_b, True), group(recs_a, True)
    shared = sorted(set(layers_b) & set(layers_a))
    if shared:
        print()
        print(f"{'workload':12s} {'per-layer metric':34s} "
              f"{'before':>12s} {'after':>12s} {'ratio':>7s}")
        for w in shared:
            for name, vb in layers_b[w].items():
                va = layers_a[w].get(name)
                if not va:
                    continue
                mb, ma = statistics.median(vb), statistics.median(va)
                ratio = f"{ma / mb:7.3f}" if mb else "      -"
                print(f"{w:12s} {name:34s} {mb:12.5g} {ma:12.5g} {ratio}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
