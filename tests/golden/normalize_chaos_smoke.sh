#!/bin/sh
# Print chaos_demo smoke outputs in a form that is stable across hosts: each
# file under a "== <file name>" header, with the wall-clock fields
# ("in <t>s" and "(<n> plans/min)") removed. Everything else chaos_demo
# prints is simulated and deterministic per seed.
#
#   tests/golden/normalize_chaos_smoke.sh chaos-smoke/*.txt
set -eu
for f in "$@"; do
  echo "== $(basename "$f")"
  sed -E 's/ in [0-9][0-9.e+-]*s([, ])/\1/; s/ \([0-9]+ plans\/min\)//' "$f"
done
