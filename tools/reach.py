#!/usr/bin/env python3
"""Reachability report over src/: what a coverage run never executed.

    python3 tools/reach.py BUILD_DIR

BUILD_DIR is a tree configured with --coverage whose binaries have already
run, so every object that executed left a .gcda file beside it. The script
runs `gcov -j` (JSON output, shipped with GCC) on each .gcda in a temporary
directory, reads the reports, and prints two lists:

  - every src/ function whose execution count is zero in every report,
    one line each: `file:line  name`. A function defined in a header is
    compiled into many objects; it counts as reached when any of them ran
    it, and its template instantiations at one line count as one function;
  - every src/ file that no report mentions. gcov only reports code that
    a binary which ran had linked in, so a header whose inline code nothing
    instantiated, or a source file that no run binary linked, never shows
    up as a zero count. A header that holds only declarations is listed
    here too, since it has no code to report.

It only reports: the exit status is 0 whenever the reports could be read.
Needs only the Python standard library and gcov.
"""

import argparse
import gzip
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_EXTS = (".hpp", ".h", ".cpp")


def find(top, suffixes):
    for dirpath, _, names in os.walk(top):
        for name in sorted(names):
            if name.endswith(suffixes):
                yield os.path.join(dirpath, name)


def gcov_reports(build_dir):
    """Run gcov -j over every .gcda under build_dir; yield each JSON report."""
    with tempfile.TemporaryDirectory() as tmp:
        for i, gcda in enumerate(find(build_dir, (".gcda",))):
            out = os.path.join(tmp, str(i))
            os.mkdir(out)
            subprocess.run(["gcov", "-j", "-o", os.path.dirname(gcda), gcda],
                           cwd=out, check=True, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
            for path in find(out, (".gcov.json.gz",)):
                with gzip.open(path, "rt") as f:
                    yield json.load(f)


def in_src(report, entry, src):
    path = os.path.join(report.get("current_working_directory", ""), entry["file"])
    path = os.path.realpath(path)
    return os.path.relpath(path, src) if path.startswith(src + os.sep) else None


def reach(reports, src):
    """(unreached functions, unmentioned files) over the given reports."""
    counts = {}  # (file, start_line) -> [name, total execution count]
    mentioned = set()
    for report in reports:
        for entry in report["files"]:
            rel = in_src(report, entry, src)
            if rel is None:
                continue
            mentioned.add(rel)
            for fn in entry["functions"]:
                key = (rel, fn["start_line"])
                slot = counts.setdefault(key, [fn["demangled_name"], 0])
                slot[1] += fn["execution_count"]
    unreached = sorted((f, line, name) for (f, line), (name, n) in counts.items()
                       if n == 0)
    files = sorted(os.path.relpath(p, src) for p in find(src, SOURCE_EXTS))
    return unreached, [f for f in files if f not in mentioned]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("build_dir", help="coverage build tree whose binaries ran")
    args = ap.parse_args()
    src = os.path.realpath(os.path.join(ROOT, "src"))
    # gcov runs in a temporary directory, so its paths must not be relative.
    build_dir = os.path.abspath(args.build_dir)
    unreached, unmentioned = reach(gcov_reports(build_dir), src)
    print(f"unreached functions: {len(unreached)}")
    for f, line, name in unreached:
        print(f"  {f}:{line}  {name}")
    print(f"files no report mentions: {len(unmentioned)}")
    for f in unmentioned:
        print(f"  {f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
