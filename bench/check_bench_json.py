#!/usr/bin/env python3
"""Validate the --json documents that the bench_* binaries write.

    python3 bench/check_bench_json.py FILE...

Each FILE must exist and be strict JSON: the bare nan or inf that
bench::JsonWriter prints for a non-finite value is rejected, and so are the
NaN and Infinity that Python's json module accepts by default. The document
must name its bench and carry at least one metric, and every metric value
must be a finite number. A bench whose --json file could not be opened only
warns and still exits 0, so a missing file is an error here. Prints one
line per file and exits 1 if any file fails.
"""

import json
import math
import sys


def reject_constant(name):
    raise ValueError(f"non-finite value {name}")


def problems(path):
    try:
        with open(path) as f:
            doc = json.load(f, parse_constant=reject_constant)
    except (OSError, ValueError) as e:
        return [str(e)]
    if not isinstance(doc, dict):
        return ["document is not an object"]
    out = []
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        out.append("no bench name")
    metrics = doc.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        return out + ["no metrics"]
    for i, m in enumerate(metrics):
        name = m.get("name") if isinstance(m, dict) else None
        v = m.get("value") if isinstance(m, dict) else None
        if (isinstance(v, bool) or not isinstance(v, (int, float))
                or not math.isfinite(v)):
            out.append(f"metric {i} ({name}): value {v!r} is not a finite number")
    return out


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bad = 0
    for path in paths:
        errs = problems(path)
        if errs:
            bad += 1
            print(f"FAIL {path}: {'; '.join(errs)}")
        else:
            print(f"ok   {path}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
