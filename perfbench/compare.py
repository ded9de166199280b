#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory is what `python3 perfbench/run.py --all --seeds ... --out DIR`
writes. Runs are paired by (workload, seed); only untraced runs carry the
end-to-end metrics the rule applies to. For every workload and end-to-end
metric (bounds and directions from BENCHMARK.json):

- improved: at least 10 pairs, the change wins at least 9 of every 10
  (ties count for neither side) and the medians differ by more than the
  parent's IQR;
- regressed: the change's median is worse than the parent's by more than the
  metric's bound;
- unresolved: either side's IQR exceeds the bound (as a share of its
  median), unless every change run beats, or loses to, every parent run;
  also a would-be improvement from fewer than 10 pairs;
- otherwise unchanged.

It also compares the share of failed operations (failed / attempted). Each
workload is reported in its own row. Exits non-zero when anything regressed.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10


def load(directory):
    """{workload: {seed: result}} of the untraced runs in `directory`."""
    runs = {}
    for workload in sorted(os.listdir(directory)):
        path = os.path.join(directory, workload)
        if not os.path.isdir(path):
            continue
        for name in sorted(os.listdir(path)):
            if not name.endswith(".trace0.json"):
                continue
            with open(os.path.join(path, name)) as f:
                run = json.load(f)
            runs.setdefault(workload, {})[run["seed"]] = run["result"]
    return runs


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def judge(metric, parent, change):
    """Verdict for one metric from paired value lists (same seed order)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def better(a, b):  # a strictly better than b
        return a < b if lower else a > b

    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_iqr = iqr(parent)
    p_spread = p_iqr / p_med if p_med else float("inf")
    c_spread = iqr(change) / c_med if c_med else float("inf")
    delta = (c_med - p_med) / p_med if p_med else float("inf")
    worse_by = delta if lower else -delta
    all_better = all(better(c, p) for c in change for p in parent)
    all_worse = all(better(p, c) for c in change for p in parent)
    if max(p_spread, c_spread) > bound and not (all_better or all_worse):
        verdict = "unresolved"
    elif wins * 10 >= 9 * pairs and abs(c_med - p_med) > p_iqr:
        verdict = "improved" if pairs >= MIN_PAIRS else "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    else:
        verdict = "unchanged"
    return {
        "verdict": verdict, "pairs": pairs, "wins": wins,
        "parent_median": p_med, "change_median": c_med,
        "parent_iqr_share": p_spread, "change_iqr_share": c_spread,
        "delta": delta, "bound": bound,
    }


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    parser.add_argument("--json", action="store_true",
                        help="print the full comparison as JSON")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    parent = load(args.parent)
    change = load(args.change)

    report = {}
    regressed = False
    for workload in sorted(set(parent) | set(change)):
        p_runs = parent.get(workload, {})
        c_runs = change.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        row = {"seeds": seeds, "metrics": {}}
        if not seeds:
            row["error"] = "no paired runs"
            report[workload] = row
            continue
        for metric in metrics:
            name = metric["name"]
            try:
                p = [p_runs[s]["metrics"][name]["value"] for s in seeds]
                c = [c_runs[s]["metrics"][name]["value"] for s in seeds]
            except KeyError:
                row["metrics"][name] = {"verdict": "missing"}
                continue
            row["metrics"][name] = judge(metric, p, c)
            regressed = regressed or row["metrics"][name]["verdict"] == "regressed"
        p_fail = failed_share([p_runs[s] for s in seeds])
        c_fail = failed_share([c_runs[s] for s in seeds])
        row["failed_share"] = {"parent": p_fail, "change": c_fail}
        regressed = regressed or c_fail > p_fail
        report[workload] = row

    if args.json:
        print(json.dumps(report, indent=1))
    else:
        for workload, row in report.items():
            if "error" in row:
                print("%s: %s" % (workload, row["error"]))
                continue
            cells = []
            for name, r in row["metrics"].items():
                if r["verdict"] == "missing":
                    cells.append("%s missing" % name)
                    continue
                cells.append("%s %s %+.1f%% (wins %d/%d, IQR %.1f%%/%.1f%%)"
                             % (name, r["verdict"], 100 * r["delta"], r["wins"],
                                r["pairs"], 100 * r["parent_iqr_share"],
                                100 * r["change_iqr_share"]))
            fail = row["failed_share"]
            cells.append("failed share %.4f -> %.4f"
                         % (fail["parent"], fail["change"]))
            print("%s (%d pairs): %s" % (workload, len(row["seeds"]),
                                          "; ".join(cells)))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
