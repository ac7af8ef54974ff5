#!/usr/bin/env python3
"""Live terminal dashboard over an ajac telemetry NDJSON stream.

Tails the newline-delimited JSON file an NdjsonSink writes (e.g. via
`solver_cli --telemetry-ndjson run.ndjson`) and renders a top-style view:
one row per actor from its latest beacon, plus the monitor's global
estimates — relative residual, rho-hat, ETA-to-tolerance, iteration
imbalance — and any latched straggler flags. Stdlib only; works on a file
still being written (follows appended lines like `tail -f`) or on a
finished stream with --once.

Usage:
    tools/ajac_top.py run.ndjson              # follow, refresh every 0.5 s
    tools/ajac_top.py run.ndjson --once       # one snapshot of a done run
    tools/ajac_top.py run.ndjson --interval 2
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def fmt_duration(us: float) -> str:
    if us < 0:
        return "-"
    if us < 1e3:
        return f"{us:.0f}us"
    if us < 1e6:
        return f"{us / 1e3:.1f}ms"
    return f"{us / 1e6:.2f}s"


class Dashboard:
    def __init__(self) -> None:
        self.actors: dict[int, dict] = {}
        self.estimate: dict | None = None
        self.records = 0
        self.bad_lines = 0

    def ingest(self, line: str) -> None:
        line = line.strip()
        if not line:
            return
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            self.bad_lines += 1  # partial tail line; retried next poll
            return
        self.records += 1
        if rec.get("type") == "beacon":
            self.actors[int(rec["actor"])] = rec
        elif rec.get("type") == "estimate":
            self.estimate = rec

    def render(self) -> str:
        lines = []
        est = self.estimate
        lines.append(
            f"ajac_top — {self.records} records, "
            f"{len(self.actors)} actors reporting"
        )
        if est is not None:
            rel = est.get("global_rel_residual", -1.0)
            rel_s = f"{rel:.3e}" if rel >= 0 else "-"
            rho = est.get("rho_hat", 0.0)
            rho_s = f"{rho:.6f}" if rho > 0 else "-"
            lines.append(
                f"  rel.residual {rel_s}   rho-hat {rho_s}   "
                f"eta {fmt_duration(est.get('eta_us', -1.0))}   "
                f"imbalance {est.get('iteration_imbalance', 0.0):.3f}   "
                f"dropped {est.get('dropped', 0)}"
            )
            for s in est.get("stragglers", []):
                lines.append(
                    f"  STRAGGLER actor {s['actor']} since "
                    f"{fmt_duration(s['detected_ts_us'])} "
                    f"(rate {s['rate']:.3g} vs median "
                    f"{s['median_rate']:.3g} relax/us)"
                )
        lines.append("")
        lines.append(
            f"  {'actor':>5} {'iteration':>12} {'relaxations':>14} "
            f"{'own |r|_1':>12} {'draws':>12} {'ts':>10}"
        )
        flagged = {
            s["actor"] for s in (est or {}).get("stragglers", [])
        }
        for actor in sorted(self.actors):
            b = self.actors[actor]
            mark = "!" if actor in flagged else " "
            lines.append(
                f" {mark}{actor:>5} {b['iteration']:>12} "
                f"{b['relaxations']:>14} {b['own_residual_1']:>12.3e} "
                f"{b['policy_draws']:>12} "
                f"{fmt_duration(b['ts_us']):>10}"
            )
        return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("stream", help="telemetry NDJSON file to tail")
    parser.add_argument("--interval", type=float, default=0.5,
                        help="refresh period in seconds (default 0.5)")
    parser.add_argument("--once", action="store_true",
                        help="read what is there, print one snapshot, exit")
    args = parser.parse_args()

    dash = Dashboard()
    try:
        f = open(args.stream, "r", encoding="utf-8")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    with f:
        # A line still being appended to fails to parse and is re-read on
        # the next poll from the saved offset.
        offset = 0
        while True:
            f.seek(offset)
            while True:
                line = f.readline()
                if not line.endswith("\n"):
                    break  # incomplete tail (or EOF); re-read next poll
                offset = f.tell()
                dash.ingest(line)
            if args.once:
                print(dash.render())
                return 0
            # Clear screen + home, then the frame.
            sys.stdout.write("\x1b[2J\x1b[H" + dash.render() + "\n")
            sys.stdout.flush()
            try:
                time.sleep(args.interval)
            except KeyboardInterrupt:
                return 0


if __name__ == "__main__":
    sys.exit(main())
