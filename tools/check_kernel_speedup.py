#!/usr/bin/env python3
"""Gate the blocked kernels' throughput from a benchmark JSON report.

Two modes, one per report schema:

Default (google-benchmark JSON, from `bench_kernels --json ...`): compares
the partition-aware blocked asynchronous solve against the reference one
on two 256x256 FD grids, the Laplacian and a variable-coefficient one:

    BM_SolveSharedAsync/256/real_time           (KernelKind::kReference)
    BM_SolveSharedBlocked/256/real_time         (KernelKind::kBlocked)
    BM_SolveSharedAsyncVarcoef/256/real_time    (KernelKind::kReference)
    BM_SolveSharedBlockedVarcoef/256/real_time  (KernelKind::kBlocked)

The Laplacian's pattern runs are uniform (their coefficients sit in
registers); the varcoef grid's rows carry their own values, so the second
pair keeps the per-row-value sweep gated. In each pair the blocked run must
reach at least --min-speedup times the reference's items_per_second
(default 1.0: the blocked default may never be slower than the reference
oracle), minus a small noise allowance. Throughput comes from
the *median* over --benchmark_repetitions, not the mean — on shared CI
runners a single descheduled repetition drags the mean far below steady
state, while the median shrugs it off — and --noise-tolerance-pct (default
3) relaxes the floor by the residual run-to-run jitter two medians still
carry.

--scale (ajac-bench-report JSON, from `bench_scale --json ...`): reads the
"scale" table, picks the largest fd2 problem it benched (CI runs
--edge 2048, local runs default to 4096), and gates the large-n ordering
the bandwidth work promises, on mrows_per_s:

    blocked >= reference x --min-speedup
    sellcs  >= blocked   x --min-new-speedup

bench_scale already reports medians over --reps, so the rows are used
directly; the same --noise-tolerance-pct allowance applies to both floors.

Exit status: 0 ok, 1 too slow or benchmarks missing, 2 bad input.

Usage: tools/check_kernel_speedup.py report.json [--min-speedup 1.0]
       tools/check_kernel_speedup.py scale.json --scale [--min-new-speedup 1.0]
"""

import argparse
import json
import statistics
import sys

# (label, reference, blocked) benchmark pairs the default mode gates.
PAIRS = (
    ("blocked vs reference", "BM_SolveSharedAsync/256/real_time",
     "BM_SolveSharedBlocked/256/real_time"),
    ("blocked vs reference, varcoef",
     "BM_SolveSharedAsyncVarcoef/256/real_time",
     "BM_SolveSharedBlockedVarcoef/256/real_time"),
)

SCALE_NEW_KERNELS = ("sellcs",)


def items_per_second(report: dict, name: str) -> float:
    # With --benchmark_repetitions the report carries one entry per
    # repetition plus aggregates. Prefer the median aggregate; otherwise
    # compute the median of the repetition entries ourselves (also covers
    # the single-run case, where the median of one value is that value).
    rates = []
    for bench in report.get("benchmarks", []):
        run_name = bench.get("run_name", bench.get("name"))
        if run_name != name:
            continue
        rate = bench.get("items_per_second")
        if rate is None:
            continue
        if bench.get("aggregate_name") == "median":
            return float(rate)
        if bench.get("run_type", "iteration") == "iteration":
            rates.append(float(rate))
    if not rates:
        raise KeyError(name)
    return statistics.median(rates)


def gate(label: str, actual: float, base: float, min_speedup: float,
         noise_pct: float) -> bool:
    """Print one comparison line; True when actual/base clears the floor."""
    speedup = actual / base
    floor = min_speedup * (1.0 - noise_pct / 100.0)
    ok = speedup >= floor
    print(f"check_kernel_speedup: {'OK' if ok else 'FAIL'} — {label}: "
          f"{speedup:.3f}x (floor {min_speedup}x - {noise_pct}% noise "
          f"= {floor:.3f}x)")
    return ok


def check_scale(report: dict, args) -> int:
    """Gate the bench_scale table (see module docstring, --scale mode)."""
    table = report.get("tables", {}).get("scale")
    if table is None:
        print("check_kernel_speedup: no 'scale' table in report "
              "(is this a bench_scale --json file?)", file=sys.stderr)
        return 1
    columns = table.get("columns", [])
    try:
        key_col = columns.index("problem/kernel")
        n_col = columns.index("n")
        rate_col = columns.index("mrows_per_s")
    except ValueError as e:
        print(f"check_kernel_speedup: scale table column missing: {e}",
              file=sys.stderr)
        return 2

    # kernel -> mrows_per_s for the largest fd2 problem in the table.
    by_problem: dict = {}
    for row in table.get("rows", []):
        key = str(row[key_col])
        if "/" not in key or not key.startswith("fd2-"):
            continue
        problem, kernel = key.rsplit("/", 1)
        by_problem.setdefault(problem, {"n": row[n_col], "rates": {}})
        by_problem[problem]["rates"][kernel] = float(row[rate_col])
    if not by_problem:
        print("check_kernel_speedup: no fd2 rows in the scale table",
              file=sys.stderr)
        return 1
    problem = max(by_problem, key=lambda p: by_problem[p]["n"])
    rates = by_problem[problem]["rates"]

    missing = [k for k in ("reference", "blocked", *SCALE_NEW_KERNELS)
               if k not in rates]
    if missing:
        print(f"check_kernel_speedup: kernels {missing} missing from "
              f"{problem} (run bench_scale with all kernels)",
              file=sys.stderr)
        return 1

    best_new = max(SCALE_NEW_KERNELS, key=lambda k: rates[k])
    print(f"check_kernel_speedup: {problem} "
          f"(n={by_problem[problem]['n']:,}): " +
          ", ".join(f"{k} {rates[k]:.1f} Mrows/s"
                    for k in ("reference", "blocked", *SCALE_NEW_KERNELS)))
    ok = gate("blocked vs reference", rates["blocked"], rates["reference"],
              args.min_speedup, args.noise_tolerance_pct)
    ok &= gate(f"{best_new} vs blocked", rates[best_new], rates["blocked"],
               args.min_new_speedup, args.noise_tolerance_pct)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="benchmark --json output file")
    parser.add_argument("--scale", action="store_true",
                        help="gate a bench_scale ajac-bench-report instead "
                             "of a bench_kernels google-benchmark report")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="minimum blocked/reference throughput ratio")
    parser.add_argument("--min-new-speedup", type=float, default=1.0,
                        help="--scale only: minimum sellcs/blocked "
                             "throughput ratio")
    parser.add_argument("--noise-tolerance-pct", type=float, default=3.0,
                        help="run-to-run jitter allowance subtracted from "
                             "the floor, in percent")
    args = parser.parse_args()

    try:
        with open(args.report, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_kernel_speedup: cannot read {args.report}: {e}",
              file=sys.stderr)
        return 2

    if args.scale:
        return check_scale(report, args)

    rates = []
    for label, reference, blocked in PAIRS:
        try:
            ref = items_per_second(report, reference)
            blk = items_per_second(report, blocked)
        except KeyError as e:
            print(f"check_kernel_speedup: benchmark {e} missing from report "
                  f"(run bench_kernels without a filter excluding "
                  f"SolveShared)", file=sys.stderr)
            return 1
        if ref <= 0:
            print(f"check_kernel_speedup: {reference} items_per_second is "
                  f"zero", file=sys.stderr)
            return 2
        rates.append((label, ref, blk))

    ok = True
    for label, ref, blk in rates:
        print(f"check_kernel_speedup: {label}: reference {ref:,.0f} items/s, "
              f"blocked {blk:,.0f} items/s")
        ok &= gate(label, blk, ref, args.min_speedup,
                   args.noise_tolerance_pct)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
