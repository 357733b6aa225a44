#!/bin/sh
# Keeps the single crash-point set honest: every name passed to
# hit_crash_point("...") or crash_point("...") under src/ must appear in
# the campaign lists of tests/support/crash_points.hpp, and every listed
# name must still exist under src/. Any drift fails with a diff.
#
# Usage: crash_points_in_sync.sh [repo root]   (default: two levels up)
set -eu

root="${1:-$(dirname "$0")/../..}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

grep -rhoE '(hit_crash_point|crash_point)\("[^"]+"\)' "$root/src" |
  sed -E 's/.*\("([^"]+)"\)/\1/' | sort -u >"$tmp/src"
grep -oE '"[a-z][a-z0-9-]*\.[a-z0-9.-]+"' \
  "$root/tests/support/crash_points.hpp" | tr -d '"' | sort -u >"$tmp/listed"

if [ ! -s "$tmp/src" ]; then
  echo "no crash points found under $root/src" >&2
  exit 1
fi
if ! diff -u "$tmp/src" "$tmp/listed"; then
  echo "crash points drifted: '-' only under src/," \
    "'+' only in tests/support/crash_points.hpp" >&2
  exit 1
fi
echo "$(wc -l <"$tmp/src") crash points in sync"
