#!/usr/bin/env python3
"""Compare two bench --json artifacts and fail on regression.

Usage: bench_regression.py PREVIOUS.json CURRENT.json [--max-drop 0.20]

Reads the runs[].graphs_per_sec artifacts that bench_batch_throughput,
bench_patch_throughput, bench_perf and bench_cluster write with --json. Every
arm is printed with its previous value, current value and change; arms are
matched by their "name" or "threads" field ("churn" for the patch bench,
else their position).

The gated metric is the best graphs/sec across the runs — the figure a
deployment actually gets from the serving layer. CI runners are noisy, so
the gate is a relative drop (default 20%, the ROADMAP's threshold), not an
absolute number. Exit codes: 0 ok / within tolerance, 1 regression,
2 unusable input (missing file, malformed JSON, no runs).
"""

import argparse
import json
import sys


def arm_rates(path: str) -> dict:
    """Maps each arm's label to its graphs_per_sec, in file order."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_regression: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    arms = {}
    for i, run in enumerate(data.get("runs", [])):
        rate = run.get("graphs_per_sec")
        if not isinstance(rate, (int, float)):
            continue
        for field in ("name", "threads", "churn"):
            if field in run:
                arms[f"{field}={run[field]}"] = rate
                break
        else:
            arms[f"run {i}"] = rate
    if not arms:
        print(f"bench_regression: no graphs_per_sec runs in {path}", file=sys.stderr)
        sys.exit(2)
    return arms


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("previous")
    parser.add_argument("current")
    parser.add_argument("--max-drop", type=float, default=0.20,
                        help="maximum tolerated relative drop (0.20 = 20%%)")
    args = parser.parse_args()

    prev_arms = arm_rates(args.previous)
    curr_arms = arm_rates(args.current)
    for label in list(prev_arms) + [a for a in curr_arms if a not in prev_arms]:
        before = prev_arms.get(label)
        after = curr_arms.get(label)
        shown = "-" if before is None else f"{before:.2f}"
        now = "-" if after is None else f"{after:.2f}"
        if before is None or after is None:
            delta = " (unmatched)"
        elif before > 0:
            delta = f" ({(after - before) / before:+.1%})"
        else:
            delta = ""
        print(f"bench_regression:   {label}: {shown} -> {now} graphs/sec{delta}")

    prev = max(prev_arms.values())
    curr = max(curr_arms.values())
    change = (curr - prev) / prev
    print(f"bench_regression: previous best {prev:.1f} graphs/sec, "
          f"current best {curr:.1f} graphs/sec ({change:+.1%})")
    if curr < prev * (1.0 - args.max_drop):
        print(f"bench_regression: REGRESSION — throughput dropped more than "
              f"{args.max_drop:.0%}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
