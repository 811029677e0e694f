#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark across two checkouts.

    python3 bench/ab_pairs.py --parent DIR --change DIR --workload NAME \\
        [--seed N] [--seconds S] [--pairs N]

Runs `python3 <side>/perfbench/run.py --workload NAME --seed N --seconds S
--trace 0` once per side as an unmeasured warm-up (which also builds each
side's perfbench binary in its own checkout), then N pairs. Pair i runs the
parent first when i is even and the change first when it is odd, so neither
side always runs on a warmer or cooler machine.

For each end-to-end metric (direction from the change's BENCHMARK.json) it
prints each side's median [q1, q3], the pairs the change won (strictly
better in the metric's direction), and whether the gain rule holds: the
change wins at least 9 of every 10 pairs, and its median beats the parent's
by more than the parent's interquartile range.

Exit status: 0 when every run succeeded (whatever the numbers say), 1 when a
run failed or printed no result, 2 on bad arguments.
"""

import argparse
import json
import os
import subprocess
import sys


def quantile(xs, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def run_side(root, args, seconds):
    """One perfbench run in checkout `root`; returns its metrics dict."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "0"]
    # Each checkout builds into its own .bench_build; a shared build
    # directory would rebuild on every switch of side.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       cwd=root, env=env)
    lines = r.stdout.decode(errors="replace").strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if r.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(r.stderr.decode(errors="replace")[-4000:])
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        print(f"ab_pairs: run failed in {root} (exit {r.returncode})",
              file=sys.stderr)
        sys.exit(1)
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="checkout of the parent")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be at least 1")
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for root in sides.values():
        if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
            ap.error(f"{root} has no perfbench/run.py")
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    for name, root in sides.items():
        run_side(root, args, 1)
        print(f"warm-up {name}: ok", flush=True)
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            runs[name].append(run_side(sides[name], args, args.seconds))
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): " +
              " ".join(f"{m} {runs['parent'][-1][m]:.6g} -> {runs['change'][-1][m]:.6g}"
                       for m in better if m in runs["parent"][-1]), flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds} s: median [q1, q3]")
    print(f"{'metric':<12} {'parent':>32} {'change':>32} {'gap':>8} "
          f"{'wins':>6}  gain rule")
    for m, direction in better.items():
        p = [r[m] for r in runs["parent"]]
        c = [r[m] for r in runs["change"]]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (cv - pv) > 0 for pv, cv in zip(p, c))
        pmed, cmed = quantile(p, 0.5), quantile(c, 0.5)
        iqr = quantile(p, 0.75) - quantile(p, 0.25)
        holds = 10 * wins >= 9 * args.pairs and sign * (cmed - pmed) > iqr
        gap = (cmed - pmed) / pmed * 100 if pmed else float("nan")

        def cell(xs):
            return (f"{quantile(xs, 0.5):.6g} [{quantile(xs, 0.25):.6g}, "
                    f"{quantile(xs, 0.75):.6g}]")

        print(f"{m:<12} {cell(p):>32} {cell(c):>32} {gap:>+7.1f}% "
              f"{wins:>3}/{args.pairs:<2}  {'holds' if holds else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
