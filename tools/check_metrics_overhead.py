#!/usr/bin/env python3
"""Gate the observability layer's overhead from a bench_kernels JSON report.

Reads a google-benchmark JSON file (produced by `bench_kernels --json ...`)
and compares each metrics-enabled solve against its disabled twin:

    BM_SolveSharedAsync/32/real_time         (metrics == nullptr)
    BM_SolveSharedAsyncMetrics/32/real_time  (live MetricsRegistry)

    BM_SolveSharedAsync/32/real_time           (stream == nullptr)
    BM_SolveSharedAsyncStreaming/32/real_time  (live TelemetryHub + monitor)

Each instrumented run may be at most --max-overhead-pct slower in
items_per_second (default 5, the CI budget; the ISSUE acceptance bound for
a null registry is 2 — pass --max-overhead-pct 2 against a pair of runs
that both use metrics == nullptr to check that claim). Throughput is the
median over --benchmark_repetitions (see
check_kernel_speedup.py for why median, not mean). Exit status: 0 ok,
1 over budget or benchmarks missing, 2 bad input.

Usage: tools/check_metrics_overhead.py report.json [--max-overhead-pct 5]
"""

import argparse
import json
import statistics
import sys

PAIRS = [
    ("scalar", "BM_SolveSharedAsync/32/real_time",
     "BM_SolveSharedAsyncMetrics/32/real_time"),
    ("scalar streaming", "BM_SolveSharedAsync/32/real_time",
     "BM_SolveSharedAsyncStreaming/32/real_time"),
]


def items_per_second(report: dict, name: str) -> float:
    # With --benchmark_repetitions the report carries one entry per
    # repetition plus aggregates. Prefer the median aggregate; otherwise
    # compute the median of the repetition entries ourselves (also covers
    # the single-run case).
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="bench_kernels --json output file")
    parser.add_argument("--max-overhead-pct", type=float, default=5.0,
                        help="maximum tolerated slowdown in percent")
    args = parser.parse_args()

    try:
        with open(args.report, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_metrics_overhead: cannot read {args.report}: {e}",
              file=sys.stderr)
        return 2

    status = 0
    for label, baseline, instrumented in PAIRS:
        try:
            base = items_per_second(report, baseline)
            inst = items_per_second(report, instrumented)
        except KeyError as e:
            print(f"check_metrics_overhead: benchmark {e} missing from "
                  f"report (run bench_kernels without a filter excluding "
                  f"SolveShared)", file=sys.stderr)
            return 1

        if base <= 0:
            print(f"check_metrics_overhead: {label} baseline "
                  f"items_per_second is zero", file=sys.stderr)
            return 2

        overhead_pct = (base - inst) / base * 100.0
        verdict = "OK" if overhead_pct <= args.max_overhead_pct else "FAIL"
        print(f"check_metrics_overhead: {verdict} [{label}] — "
              f"disabled {base:,.0f} items/s, enabled {inst:,.0f} items/s, "
              f"overhead {overhead_pct:+.2f}% "
              f"(budget {args.max_overhead_pct}%)")
        if verdict != "OK":
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
