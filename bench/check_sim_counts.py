#!/usr/bin/env python3
"""Zero-tolerance gate on the simulated side of the repository benchmark.

    python3 bench/check_sim_counts.py [--baseline FILE] [--results DIR]
    python3 bench/check_sim_counts.py --capture [--baseline FILE] [--results DIR]

Every simulated count is a pure function of the workload and its seed, so a
change that only makes the host faster must leave all of them identical.
This script reads the traced results that

    python3 perfbench/run.py --workload <w> --seed 7 --seconds 2 --trace 1

leaves in DIR (default .bench_build/results, or $CARGO_TARGET_DIR/results when
that is set, as in perfbench/run.py) for every workload named in the
baseline, and compares each baselined metric exactly. A sim-side metric
that a result carries but the baseline lacks fails too, so a new count is
gated from the change that adds it. It prints one line per workload and
exits 1 on any difference, missing result or unbaselined metric.

--capture rewrites the baseline from the results in DIR instead. The metrics
it keeps are the sim-side ones: every per-layer metric that is not host time
(units ns and MB/s, and obs.trace_overhead_frac, are host time) plus the
simulated day length or makespan. A change that claims identical counts is
checked against a baseline captured at its parent commit; only a deliberate
change to simulated behaviour recaptures it.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(ROOT, "bench", "baselines", "sim_counts_seed7.json")
# Where perfbench/run.py writes its results (see build_dir() there).
DEFAULT_RESULTS = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "results")
WORKLOADS = ("tenant_day", "star_etl", "dfs_ec", "star_columnar")
SEED = 7
HOST_UNITS = ("ns", "MB/s")
HOST_METRICS = ("obs.trace_overhead_frac",)
SIM_INFO = ("sim_day_s", "sim_makespan_s")


def load_report(results, workload, seed):
    path = os.path.join(results, f"{workload}_seed{seed}_trace1.json")
    try:
        with open(path) as f:
            return json.load(f)["report"]
    except (OSError, ValueError, KeyError) as e:
        return f"cannot read {path}: {e}"


def sim_side(report):
    out = {}
    for name, m in report["layer"].items():
        if m["unit"] not in HOST_UNITS and name not in HOST_METRICS:
            out[name] = m["value"]
    for name in SIM_INFO:
        if name in report["info"]:
            out[name] = report["info"][name]["value"]
    return out


def capture(args):
    workloads = {}
    for w in WORKLOADS:
        rep = load_report(args.results, w, SEED)
        if isinstance(rep, str):
            print(rep, file=sys.stderr)
            return 1
        workloads[w] = sim_side(rep)
    doc = {
        "seed": SEED,
        "command": "python3 perfbench/run.py --workload <w> --seed "
                   f"{SEED} --seconds 2 --trace 1",
        "workloads": workloads,
    }
    os.makedirs(os.path.dirname(args.baseline), exist_ok=True)
    with open(args.baseline, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.baseline}")
    return 0


def check(args):
    with open(args.baseline) as f:
        base = json.load(f)
    seed = base["seed"]
    bad = 0
    for w, want in sorted(base["workloads"].items()):
        rep = load_report(args.results, w, seed)
        if isinstance(rep, str):
            print(f"FAIL {w}: {rep}")
            bad += 1
            continue
        got = sim_side(rep)
        diffs = [(name, v, got.get(name)) for name, v in sorted(want.items())
                 if got.get(name) != v]
        extra = sorted(set(got) - set(want))
        if not diffs and not extra:
            print(f"ok   {w}: {len(want)} sim-side metrics identical")
            continue
        bad += 1
        if diffs:
            print(f"FAIL {w}: {len(diffs)} of {len(want)} sim-side metrics differ")
            for name, v, g in diffs:
                print(f"  {name}: baseline {v}, got {g}")
        if extra:
            print(f"FAIL {w}: {len(extra)} sim-side metrics have no baseline "
                  "(recapture with --capture if they are intended)")
            for name in extra:
                print(f"  {name}: got {got[name]}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", default=DEFAULT_BASELINE)
    ap.add_argument("--results", default=DEFAULT_RESULTS)
    ap.add_argument("--capture", action="store_true")
    args = ap.parse_args()
    return capture(args) if args.capture else check(args)


if __name__ == "__main__":
    sys.exit(main())
