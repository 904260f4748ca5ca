#!/usr/bin/env python3
"""Compare two sets of benchmark results against BENCHMARK.json's bounds.

    python3 examples/benchmark/compare.py BASE HEAD [--benchmark BENCHMARK.json]

BASE and HEAD are each a result document written by the benchmark's
`--out` flag, or a directory of them (every `*.json` directly inside).
Within one set, the documents of a workload are pooled: the median and
quartiles of their values (`statistics.quantiles(values, n=4)`) stand for
the set. A set holding a single document uses that run's own quartiles.

For every end-to-end metric and workload present in both sets, one
verdict is printed:

* unresolved -- the two sets' quartile ranges overlap by more than the
  metric's bound (as a share of BASE's median), unless every HEAD run
  reads better than every BASE run;
* worse / better -- HEAD's median moved by more than the bound;
* unchanged -- otherwise.

The exit code is 1 when any verdict is worse or unresolved.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict


def load_docs(path):
    """Every result document in a file or a directory of files."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, f) for f in os.listdir(path) if f.endswith(".json")
        )
    else:
        files = [path]
    docs = []
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        docs.extend(doc.get("runs", [doc]))
    return docs


def summarize(docs):
    """{(metric, workload): (median, q1, q3, runs)} over a set's documents."""
    values = defaultdict(list)
    single = {}
    for doc in docs:
        for name, m in doc["metrics"].items():
            if m["value"] is None:
                continue
            key = (name, doc["workload"])
            values[key].append(m["value"])
            single[key] = (m["value"], m["q1"], m["q3"])
    out = {}
    for key, vals in values.items():
        if len(vals) == 1:
            med, q1, q3 = single[key]
        else:
            q1, med, q3 = statistics.quantiles(vals, n=4)
        out[key] = (med, q1, q3, vals)
    return out


def verdict(base, head, bound, lower_is_better):
    """The verdict and the signed change of HEAD's median against BASE's."""
    b_med, b_q1, b_q3, b_vals = base
    h_med, h_q1, h_q3, h_vals = head
    change = (h_med - b_med) / b_med
    worse_by = change if lower_is_better else -change
    overlap = max(0.0, min(b_q3, h_q3) - max(b_q1, h_q1)) / b_med
    if lower_is_better:
        all_better = max(h_vals) < min(b_vals)
    else:
        all_better = min(h_vals) > max(b_vals)
    if overlap > bound and not (all_better and len(b_vals) > 1):
        return "unresolved", change
    if worse_by > bound:
        return "worse", change
    if worse_by < -bound:
        return "better", change
    return "unchanged", change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="result document or directory of them")
    parser.add_argument("head", help="result document or directory of them")
    parser.add_argument(
        "--benchmark",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCHMARK.json"),
        help="the BENCHMARK.json whose end_to_end bounds apply",
    )
    args = parser.parse_args()

    with open(args.benchmark) as fh:
        spec = json.load(fh)
    base = summarize(load_docs(args.base))
    head = summarize(load_docs(args.head))
    workloads = [w["name"] for w in spec["workloads"]]

    bad = 0
    header = f"{'metric':<16} {'workload':<14} {'base median [q1, q3]':>36} {'head median [q1, q3]':>36} {'change':>8} {'bound':>6}  verdict"
    print(header)
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        for w in workloads:
            key = (name, w)
            if key not in base or key not in head:
                continue
            v, change = verdict(base[key], head[key], bound, lower)
            bad += v in ("worse", "unresolved")
            fmt = lambda s: f"{s[0]:.6g} [{s[1]:.6g}, {s[2]:.6g}]"
            print(
                f"{name:<16} {w:<14} {fmt(base[key]):>36} {fmt(head[key]):>36} "
                f"{change * 100:+7.2f}% {bound * 100:5.1f}%  {v}"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
