#!/usr/bin/env python3
"""Reachability report over src/: what a coverage run never executed.

    python3 tools/reach.py BUILD_DIR
    python3 tools/reach.py --self-test

BUILD_DIR is a tree configured with --coverage whose binaries have already
run, so every object that executed left a .gcda file beside it. The script
runs `gcov -j` (JSON output, shipped with GCC) on each .gcda in a temporary
directory, reads the reports, and prints two lists:

  - every src/ function that no report shows running, one line each:
    `file:line  name`. A function counts as reached when its execution
    count is non-zero, or when any line in its [start_line, end_line] range
    has a non-zero count, in any report. gcov gives a function that was
    inlined everywhere a count of 0 although its lines ran, so the line
    counts are what catch it; gcov may put an inlined body's count on the
    function's first line alone. (The price: a lambda counts as reached
    when the line that creates it, its first line, ran.) A function
    defined in a header is compiled into many objects; it counts as
    reached when any of them ran it, and its template instantiations at
    one line count as one function;
  - every src/ file that no report mentions. gcov only reports code that
    a binary which ran had linked in, so a header whose inline code nothing
    instantiated, or a source file that no run binary linked, never shows
    up as a zero count. A header that holds only declarations is listed
    here too, since it has no code to report.

It only reports: the exit status is 0 whenever the reports could be read.
--self-test runs reach() over two synthetic reports and exits 1 if it
misjudges one of their functions or files. Needs only the Python standard
library and gcov.
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
    counts = {}  # (file, start_line) -> [name, end_line, total execution count]
    ran = {}  # file -> line numbers with a non-zero count in some report
    mentioned = set()
    for report in reports:
        for entry in report["files"]:
            rel = in_src(report, entry, src)
            if rel is None:
                continue
            mentioned.add(rel)
            for fn in entry["functions"]:
                key = (rel, fn["start_line"])
                slot = counts.setdefault(key, [fn["demangled_name"], fn["end_line"], 0])
                slot[1] = max(slot[1], fn["end_line"])
                slot[2] += fn["execution_count"]
            ran.setdefault(rel, set()).update(
                line["line_number"] for line in entry["lines"] if line["count"] > 0)
    unreached = sorted(
        (f, start, name) for (f, start), (name, end, n) in counts.items()
        if n == 0 and not any(start <= line <= end for line in ran.get(f, ())))
    files = sorted(os.path.relpath(p, src) for p in find(src, SOURCE_EXTS))
    return unreached, [f for f in files if f not in mentioned]


def self_test():
    """Two synthetic reports through reach(): 0 if it judges them right."""
    def fn(name, start, end, count):
        return {"demangled_name": name, "start_line": start, "end_line": end,
                "execution_count": count}

    def line(number, count):
        return {"line_number": number, "count": count}

    with tempfile.TemporaryDirectory() as src:
        for name in ("pool.hpp", "pool.cpp", "unlinked.cpp"):
            open(os.path.join(src, name), "w").close()
        # Two objects that include pool.hpp. Neither shows an out-of-line
        # call of Pool::index(), which submit() inlined; the second ran
        # its lines. Pool::drain() ran nowhere.
        first = {"current_working_directory": src, "files": [
            {"file": "pool.hpp",
             "functions": [fn("Pool::index()", 10, 12, 0), fn("Pool::drain()", 20, 24, 0)],
             "lines": [line(11, 0), line(21, 0), line(22, 0)]},
            {"file": "pool.cpp", "functions": [fn("Pool::submit()", 5, 9, 3)],
             "lines": [line(6, 3)]}]}
        second = {"current_working_directory": src, "files": [
            {"file": "pool.hpp",
             "functions": [fn("Pool::index()", 10, 12, 0), fn("Pool::drain()", 20, 24, 0)],
             "lines": [line(11, 7), line(21, 0), line(25, 4)]}]}
        got = reach([first, second], os.path.realpath(src))
    want = ([("pool.hpp", 20, "Pool::drain()")], ["unlinked.cpp"])
    if got != want:
        print(f"self-test FAILED: got {got}, want {want}")
        return 1
    print("self-test ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("build_dir", nargs="?", help="coverage build tree whose binaries ran")
    ap.add_argument("--self-test", action="store_true",
                    help="check reach() on two synthetic reports, then exit")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.build_dir is None:
        ap.error("BUILD_DIR is required")
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
