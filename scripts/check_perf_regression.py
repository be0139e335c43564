#!/usr/bin/env python3
"""Perf-regression gate: diff a fresh BENCH_*.json against the committed baseline.

Records are matched by (benchmark, threads, procs). The compared metric is
replications_per_sec when a record has one, else events_per_sec; records with
neither (e.g. pure alloc-count rows) only check allocs_per_replication.

A record's `cores` (the CPUs the measuring process could run on) is not part
of the match key: CI runners differ from the baseline host, and keying on it
would turn every record into NEW/GONE. When a matched pair's core counts
differ, a note is printed beside its verdict and both counts land in the
--report JSON.

Because the committed baselines were produced on a different machine than the
CI runner, raw rates are not comparable. --calibrate names one benchmark to
use as a speed probe: the fresh/baseline ratio on that record (clamped to
[0.25, 4.0]) rescales every fresh rate before the tolerance band is applied.
A fresh record regresses when its calibrated rate drops more than --tolerance
below baseline, or its allocs/replication rises more than the tolerance band
(plus a small absolute slack for allocator noise) above baseline.

Unmatched records never fail the gate, so benchmarks can be added or retired
without touching this script — but they are reported explicitly: a fresh
record with no baseline counterpart prints as "NEW ... no baseline" (a newly
added benchmark whose first accepted run becomes its baseline), and a
baseline record with no fresh counterpart prints as "GONE ... retired" (a
benchmark the suite no longer emits — usually a cue to regenerate the
baseline file). Both statuses land in the --report JSON.

Exit status: 0 = no regressions, 1 = at least one regression, 2 = bad input.

Example:
  scripts/check_perf_regression.py \
      --baseline BENCH_kernel.json --fresh fresh/BENCH_kernel.json \
      --calibrate kernel/event_chain_1m --tolerance 0.35 --report diff.json
"""

import argparse
import json
import sys

CLAMP_LO, CLAMP_HI = 0.25, 4.0
ALLOC_SLACK = 16.0  # absolute allocs/replication slack on top of the band


def load_records(path):
    try:
        with open(path, encoding="utf-8") as handle:
            records = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        sys.exit(f"check_perf_regression: cannot read {path}: {error}")
    if not isinstance(records, list):
        sys.exit(f"check_perf_regression: {path}: expected a JSON array of records")
    return {(r["benchmark"], r.get("threads", 0), r.get("procs", 0)): r for r in records}


def rate_metric(record):
    """(metric-name, value) for the record's primary rate, or (None, 0)."""
    if record.get("replications_per_sec", 0) > 0:
        return "replications_per_sec", record["replications_per_sec"]
    if record.get("events_per_sec", 0) > 0:
        return "events_per_sec", record["events_per_sec"]
    return None, 0.0


def calibration_ratio(baseline, fresh, probe):
    if not probe:
        return 1.0, "calibration disabled"
    base_probe = next((r for (name, *_), r in baseline.items() if name == probe), None)
    fresh_probe = next((r for (name, *_), r in fresh.items() if name == probe), None)
    if base_probe is None or fresh_probe is None:
        return 1.0, f"probe {probe!r} missing on one side; calibration skipped"
    _, base_rate = rate_metric(base_probe)
    _, fresh_rate = rate_metric(fresh_probe)
    if base_rate <= 0 or fresh_rate <= 0:
        return 1.0, f"probe {probe!r} has no rate; calibration skipped"
    ratio = max(CLAMP_LO, min(CLAMP_HI, fresh_rate / base_rate))
    return ratio, f"probe {probe!r}: fresh/baseline = {fresh_rate / base_rate:.3f}, clamped to {ratio:.3f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="committed BENCH_*.json")
    parser.add_argument("--fresh", required=True, help="freshly generated BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.35,
                        help="allowed fractional drop after calibration (default 0.35)")
    parser.add_argument("--calibrate", default=None,
                        help="benchmark name used as the machine-speed probe")
    parser.add_argument("--report", default=None, help="write a JSON diff report here")
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")

    baseline = load_records(args.baseline)
    fresh = load_records(args.fresh)
    ratio, ratio_note = calibration_ratio(baseline, fresh, args.calibrate)
    print(f"calibration: {ratio_note}")

    rows, regressions = [], []
    for key in sorted(set(baseline) | set(fresh)):
        name, threads, procs = key
        label = (f"{name}" + (f" @{threads}t" if threads else "")
                 + (f" @{procs}p" if procs else ""))
        if key not in baseline:
            rows.append({"benchmark": name, "threads": threads, "procs": procs,
                         "status": "new (no baseline)"})
            print(f"  NEW   {label}: no baseline (newly added benchmark; "
                  "not gated until a baseline is committed)")
            continue
        if key not in fresh:
            rows.append({"benchmark": name, "threads": threads, "procs": procs,
                         "status": "retired (baseline only)"})
            print(f"  GONE  {label}: baseline record has no fresh counterpart "
                  "(retired benchmark? consider regenerating the baseline)")
            continue

        base, new = baseline[key], fresh[key]
        row = {"benchmark": name, "threads": threads, "procs": procs, "status": "ok"}
        problems = []

        metric, base_rate = rate_metric(base)
        if metric:
            _, fresh_rate = rate_metric(new)
            calibrated = fresh_rate / ratio
            floor = base_rate * (1.0 - args.tolerance)
            row.update({"metric": metric, "baseline": base_rate, "fresh": fresh_rate,
                        "calibrated": calibrated, "floor": floor})
            if calibrated < floor:
                problems.append(
                    f"{metric} {calibrated:.0f} (calibrated) < floor {floor:.0f}"
                    f" (baseline {base_rate:.0f}, tolerance {args.tolerance:.0%})")

        base_allocs = base.get("allocs_per_replication", 0.0)
        fresh_allocs = new.get("allocs_per_replication", 0.0)
        if base_allocs or fresh_allocs:
            ceiling = base_allocs * (1.0 + args.tolerance) + ALLOC_SLACK
            row.update({"baseline_allocs_per_replication": base_allocs,
                        "fresh_allocs_per_replication": fresh_allocs,
                        "allocs_ceiling": ceiling})
            if fresh_allocs > ceiling:
                problems.append(
                    f"allocs/replication {fresh_allocs:.1f} > ceiling {ceiling:.1f}"
                    f" (baseline {base_allocs:.1f})")

        base_cores, fresh_cores = base.get("cores", 0), new.get("cores", 0)
        if base_cores != fresh_cores:
            row.update({"baseline_cores": base_cores, "fresh_cores": fresh_cores})
            print(f"  note  {label}: cores differ (baseline {base_cores or 'unrecorded'},"
                  f" fresh {fresh_cores or 'unrecorded'})")

        if problems:
            row["status"] = "regression: " + "; ".join(problems)
            regressions.append(f"{label}: " + "; ".join(problems))
            print(f"  FAIL  {label}: " + "; ".join(problems))
        else:
            detail = ""
            if metric:
                detail = f" {metric} {row['calibrated']:.0f} vs floor {row['floor']:.0f}"
            print(f"  ok    {label}:{detail}")
        rows.append(row)

    if args.report:
        report = {"baseline": args.baseline, "fresh": args.fresh,
                  "tolerance": args.tolerance, "calibration_ratio": ratio,
                  "calibration_note": ratio_note, "regressions": len(regressions),
                  "records": rows}
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"report written to {args.report}")

    if regressions:
        print(f"\n{len(regressions)} perf regression(s) against {args.baseline}")
        return 1
    print(f"\nno perf regressions against {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
