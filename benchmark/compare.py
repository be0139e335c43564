#!/usr/bin/env python3
"""Compares two benchmark result files (run.py --repeat ... --out F).

    python3 benchmark/compare.py parent.json change.json [--claim wall_s:fig1_high_avail]

Run k of the parent is paired with run k of the change, so record the two
sides alternately (see benchmark/README.md). One row per (end-to-end metric,
workload):

  improved    every change run beats every parent run;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  slower      within the bound, but the change loses at least 9 of every 10
              pairs, over ten or more (ties count for neither side);
  unresolved  either side's spread (IQR / median) is wider than the bound;
  unchanged   otherwise.

The bound has to cover the drift of the host's speed between unpaired runs.
Both sides of a pair run in the same phase of it, so the pairs show a
slowdown far smaller than the bound as `slower`: not a failure, but a cost a
change has to own. For setup_s a worsening under 0.02 s counts as neither:
set-up is a few milliseconds of process start, where a share alone is
jitter.

A claim (--claim metric:workload, repeatable) is met only when the change
wins at least 9 of every 10 pairs, over ten or more, its median is better by
more than the parent's IQR, and it fails no more output rows than the
parent. Exit status 1 when a row regressed or a claim is not met.
"""

import argparse
import json
import statistics
import sys

# Smallest worsening that counts as regressed or slower.
ABSOLUTE_FLOOR = {"setup_s": 0.02}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def load(path):
    with open(path) as f:
        return json.load(f)


def series(result, workload, metric):
    return [run["metrics"][metric] for run in result["runs"]
            if run["workload"] == workload and metric in run["metrics"]]


def failed_rows(result, workload):
    return sum(run["failed"] for run in result["runs"] if run["workload"] == workload)


def compare_metric(parent, change, bound, lower_is_better, floor=0.0):
    def better(a, b):  # a better than b
        return a < b if lower_is_better else a > b

    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    worse_by = c_med - p_med if lower_is_better else p_med - c_med
    worse_share = worse_by / p_med if p_med else 0.0
    spread = max((p_q3 - p_q1) / p_med if p_med else 0.0,
                 (c_q3 - c_q1) / c_med if c_med else 0.0)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    losses = sum(1 for p, c in pairs if better(p, c))
    enough_pairs = len(pairs) >= 10
    claim_met = (enough_pairs and wins >= 0.9 * len(pairs) and better(c_med, p_med)
                 and abs(c_med - p_med) > p_q3 - p_q1)
    if all(better(c, p) for c in change for p in parent):
        status = "improved"
    elif worse_by > max(bound * abs(p_med), floor):
        status = "regressed"
    elif enough_pairs and losses >= 0.9 * len(pairs) and worse_by > floor:
        status = "slower"
    elif spread > bound:
        status = "unresolved"
    else:
        status = "unchanged"
    return {"parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
            "change_median": c_med, "change_q1": c_q1, "change_q3": c_q3,
            "worse_share": worse_share, "spread": spread, "bound": bound,
            "pairs": len(pairs), "wins": wins, "status": status, "claim_met": claim_met}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC:WORKLOAD")
    args = parser.parse_args()
    parent, change = load(args.parent), load(args.change)
    metrics = parent["end_to_end"]
    workloads = sorted({run["workload"] for run in parent["runs"]} &
                       {run["workload"] for run in change["runs"]})
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    for claim in claims:
        if len(claim) != 2 or claim[0] not in {m["name"] for m in metrics} \
                or claim[1] not in workloads:
            parser.error(f"--claim {':'.join(claim)}: not an end-to-end metric:workload pair")

    bad = False
    print(f"{'workload':18s} {'metric':12s} {'parent med':>12s} {'change med':>12s} "
          f"{'worse':>8s} {'spread':>7s} {'bound':>6s} {'wins':>6s}  status")
    for workload in workloads:
        more_failures = failed_rows(change, workload) > failed_rows(parent, workload)
        if more_failures:
            print(f"{workload}: the change fails more output rows than the parent")
            bad = True
        for metric in metrics:
            p = series(parent, workload, metric["name"])
            c = series(change, workload, metric["name"])
            if not p or not c:
                continue
            row = compare_metric(p, c, metric["bound"], metric["better"] == "lower",
                                 ABSOLUTE_FLOOR.get(metric["name"], 0.0))
            status = row["status"]
            if (metric["name"], workload) in claims:
                met = row["claim_met"] and not more_failures
                status += ", claim met" if met else ", claim NOT met"
                bad |= not met
            bad |= row["status"] == "regressed"
            print(f"{workload:18s} {metric['name']:12s} {row['parent_median']:12.6g} "
                  f"{row['change_median']:12.6g} {row['worse_share']:+8.1%} "
                  f"{row['spread']:7.1%} {row['bound']:6.0%} "
                  f"{row['wins']:>2d}/{row['pairs']:<3d}  {status}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
