#!/usr/bin/env python3
"""Gate the uniform row policy's rate bound from a bench_policies report.

Reads the JSON report written by `bench_policies --json ...` and checks the
claim the policy subsystem makes (table `policy_rates`): the measured tail
contraction gap of uniform-random relaxation stays within [--ratio-lo,
--ratio-hi] times the Avron/Druinsky/Gupta prediction lambda_min/n on every
matrix. Too low means the sampler is broken (a correct uniform sampler can
never fall below the expectation bound); too high means the tail is not
tracking lambda_min (wrong matrix, wrong burn-in, or a rate measurement
bug). The report's `policy_solve` race is not gated.

Exit status: 0 ok, 1 the gate failed or the table is missing, 2 bad input.

Usage: tools/check_policy_rates.py report.json
"""

import argparse
import json
import sys


def table_rows(report: dict, name: str):
    table = report.get("tables", {}).get(name)
    if table is None:
        raise KeyError(name)
    columns = table["columns"]
    return [dict(zip(columns, row)) for row in table["rows"]]


def check_rates(report: dict, lo: float, hi: float) -> list:
    failures = []
    rows = table_rows(report, "policy_rates")
    if not rows:
        failures.append("policy_rates table is empty")
    for row in rows:
        ratio = float(row["gap ratio"])
        ok = lo <= ratio <= hi
        print(f"check_policy_rates: {'OK' if ok else 'FAIL'} — "
              f"{row['matrix']}: measured/theory gap ratio {ratio:.3f} "
              f"(allowed [{lo}, {hi}])")
        if not ok:
            failures.append(f"{row['matrix']} gap ratio {ratio:.3f}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="bench_policies --json output file")
    parser.add_argument("--ratio-lo", type=float, default=0.85,
                        help="minimum measured/theoretical gap ratio")
    parser.add_argument("--ratio-hi", type=float, default=2.5,
                        help="maximum measured/theoretical gap ratio")
    args = parser.parse_args()

    try:
        with open(args.report, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_policy_rates: cannot read {args.report}: {e}",
              file=sys.stderr)
        return 2

    try:
        failures = check_rates(report, args.ratio_lo, args.ratio_hi)
    except (KeyError, TypeError, ValueError) as e:
        print(f"check_policy_rates: malformed report {args.report}: {e} "
              f"(run bench_policies --json to produce it)", file=sys.stderr)
        return 1

    if failures:
        print(f"check_policy_rates: {len(failures)} gate(s) failed: "
              f"{'; '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
